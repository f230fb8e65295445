"""Write the exact bits of the library's quadratic statistics on fixed states.

    PYTHONPATH=SRC python tools/libruns.py OUT

For fixed grid states (the vacuum, an approximate codeword, the codeword
shifted off its nodes, a seeded random state, at 64x64, 96x90, 128x256 and
512x512) and ideal states (both codewords and a shifted |+>), writes one line
per result to OUT: ``gauge_trace``, ``ec_gauge_trace``,
``logical_from_overlap``, ``ec_channel_logical``, ``stabilizer_residual``,
``norm_squared`` and a ``pp_bridge`` round trip.  It also writes a saved
96x90 grid into the current directory as CSV files under relative names, one
with its rows shuffled among blank lines and four edits of it (a repeat across
row blocks, an underscore, a separator and a malformed line late in the file),
and writes what ``load_grid_csv`` reads from each: its samples or its exact
message.  Floats are written with ``float.hex`` and arrays as the SHA-256 of
their bytes, so two trees agree on a line only when they agree bit for bit.
Every second state takes its EC maps before its plain ones.  :mod:`bytecheck`
runs this under each tree: the CLI reaches none of these grid results, and
reads no grid.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys

import numpy as np

from zakgkp import (
    GKPCode,
    IdealZakState,
    ModularWavefunction,
    apply_X,
    apply_Z,
    approx_codeword,
    codeword,
    ec_channel_logical,
    logical_from_overlap,
    stabilizer_residual,
    vacuum,
    zak_transform,
)
from zakgkp.gridio import load_grid_csv, save_grid_csv
from zakgkp.ssd import ec_gauge_trace, gauge_trace, pp_bridge, pp_bridge_inverse, to_ssd


def bits(value):
    """``float.hex`` of a number, or the SHA-256 of an array's bytes."""
    if isinstance(value, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
    if isinstance(value, complex):
        return f"{value.real.hex()} {value.imag.hex()}"
    return float(value).hex()


def grid_states(code):
    for nu, nv in ((64, 64), (96, 90), (128, 256)):
        grid = code.grid(nu, nv)
        word = zak_transform(approx_codeword(code, 1, 0.3), grid, 16)
        yield f"vacuum {nu}x{nv}", zak_transform(vacuum(), grid, 16)
        yield f"gkp-approx:0.3:1 {nu}x{nv}", word
        yield f"gkp-approx:0.3:1 shifted {nu}x{nv}", apply_X(apply_Z(word, 3 * grid.dv), -5 * grid.du)
    grid = code.grid(512, 512)
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
    yield "random 512x512", ModularWavefunction(grid, raw).normalized()


def ideal_states(code):
    plus = IdealZakState(code.full_patch(), {(0.0, 0.0): 1 / math.sqrt(2), (code.alpha, 0.0): 1 / math.sqrt(2)})
    yield "gkp0", codeword(code, 0)
    yield "gkp1", codeword(code, 1)
    yield "shifted |+>", apply_X(apply_Z(plus, 0.21), 0.3 * code.alpha)


def csv_files(code):
    """``(name, lines)`` of CSV grid files: a saved 96x90 grid, whose 8640 rows are
    a block of 5760 and one of 2880, with its rows shuffled among blank lines, and
    four edits of the saved rows."""
    save_grid_csv(zak_transform(approx_codeword(code, 1, 0.3), code.grid(96, 90), 16), "grid96x90.csv")
    with open("grid96x90.csv", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    head, rows = lines[:3], lines[3:]
    shuffled = rows[:]
    random.Random(24).shuffle(shuffled)
    for at in (8640, 5760, 100, 0):
        shuffled[at:at] = ["", "  "]
    yield "shuffled.csv", head + shuffled
    yield "repeat-across-blocks.csv", head + rows[:5760] + [rows[5759]] + rows[5761:]
    yield "underscore.csv", head + rows[:4000] + ["44,40,1_0.5,2"] + rows[4001:]
    yield "separator.csv", head + rows[:7000] + [rows[7000] + "\x1c"] + rows[7001:]
    yield "malformed-late.csv", head + rows[:8500] + ["94,40,0.5"] + rows[8501:]


def loaded(name):
    """The bits of the samples ``load_grid_csv`` reads from ``name``, or its message."""
    try:
        return bits(load_grid_csv(name).samples)
    except ValueError as exc:
        return repr(str(exc))


def results(label, state, code, ec_first):
    """``(label, name, bits)`` of each quadratic statistic of ``state``."""
    maps = {
        "gauge_trace": lambda: gauge_trace(to_ssd(state, code)),
        "logical_from_overlap": lambda: logical_from_overlap(state, code),
        "ec_gauge_trace": lambda: ec_gauge_trace(to_ssd(state, code)),
        "ec_channel_logical": lambda: ec_channel_logical(state, code),
    }
    names = list(maps)
    for name in names[2:] + names[:2] if ec_first else names:
        q = maps[name]()
        yield label, name, f"{bits(q.matrix)} {bits(q.raw_trace)}"
    yield label, "stabilizer_residual", " ".join(bits(r) for r in stabilizer_residual(state, code))
    yield label, "norm_squared", bits(state.norm_squared())
    if isinstance(state, ModularWavefunction):
        modes = pp_bridge(to_ssd(state, code))
        back = pp_bridge_inverse(modes)
        yield label, "pp_bridge", " ".join(bits(c) for c in modes.coeffs)
        yield label, "pp_bridge_inverse", bits(back.mode.samples)


def main(argv):
    if len(argv) != 1:
        print("usage: PYTHONPATH=SRC python tools/libruns.py OUT", file=sys.stderr)
        return 2
    code = GKPCode()
    states = [*grid_states(code), *ideal_states(code)]
    with open(argv[0], "w", encoding="ascii") as fh:
        for index, (label, state) in enumerate(states):
            for line in results(label, state, code, ec_first=index % 2 == 1):
                fh.write("  ".join(line) + "\n")
        for name, lines in csv_files(code):
            with open(name, "w", encoding="ascii") as out:
                out.write("\n".join(lines) + "\n")
            fh.write(f"{name}  load_grid_csv  {loaded(name)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
