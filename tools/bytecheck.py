"""Check that two source trees give byte-identical CLI and library results.

    python tools/bytecheck.py OLD_SRC NEW_SRC

Runs 27 commands: 26 ``zakgkp`` command lines (``zakplot``, ``shift-array``,
``logical`` and ``sweep``, on grid, tabulated and ideal states, in csv and bin,
each expected to succeed (exit 0), to be refused as a configuration error
(exit 2) or to fail numerically (exit 3)) and ``libruns.py``, which writes the bits of
in-process results the CLI never reaches (a grid state's logical maps, residuals, norm, Kraus amplitudes and
``pp_bridge`` round trip, the maps and residuals of comb matrices the CLI never builds, and what
``load_grid_csv`` reads from edited CSV files).  Each runs once
with each ``src`` tree first on ``PYTHONPATH``, each tree in its own temporary
directory, which first holds the same ``table.csv`` for the tabulated runs.
Every output file and manifest is compared byte for byte, and so
is each exit code, which must also be the one listed, so that a tree that
cannot run fails rather than matching another that cannot; stderr is not
compared.  For each text file that differs, up to 20 differing lines are
printed with their line numbers on each side and their first two fields
(``label  name`` in ``library.txt``).  Exits 1 on any difference, 0 when
everything is identical.  With
the same tree on both sides it checks that reruns are deterministic.
"""

from __future__ import annotations

import difflib
import math
import os
import subprocess
import sys
import tempfile

# (expected exit code, command line)
RUNS = [
    (0, "zakplot --state gkp-approx:0.3:0 --grid 64x64 --format csv --out zakplot.csv"),
    # three 64-row blocks, the last one short, and an Nv that is no power of two: the CSV encoder's
    # chunks of rows (seven here) end inside each block, in the grid and in its real _abs and _arg
    (0, "zakplot --state gkp-approx:0.3:0 --grid 136x100 --format csv --out zakplot_136x100.csv"),
    (0, "zakplot --state vacuum --grid 64x64 --format bin --out zakplot.bin"),
    (0, "zakplot --state gkp1 --out zakplot_ideal.csv"),
    (0, "shift-array --state gkp0 --out shift_ideal"),
    (0, "shift-array --state gkp-approx:0.3:0 --grid 96x96 --format csv --out shift_csv"),
    (0, "shift-array --state gkp-approx:0.3:0 --grid 96x96 --format bin --out shift_bin"),
    (0, "logical --state gkp-approx:0.2:0 --grid 128x128 --method trace --out trace.csv"),
    (0, "logical --state gkp-approx:0.2:1 --grid 128x128 --method ec-trace --out ec_trace.csv"),
    (0, "sweep --state gkp-approx:0.5:0 --grid 128x128 --deltas 0.5,0.3,0.1 --out sweep.csv"),
    # non-square comb routes: a gauge split along v instead of u would differ here
    (0, "logical --state gkp-approx:0.3:1 --grid 128x64 --method ec-trace --out ec_trace_128x64.csv"),
    (0, "sweep --state gkp-approx:0.3:0 --grid 64x128 --deltas 0.4,0.3 --out sweep_64x128.csv"),
    (0, "logical --state gkp1 --method ec-trace --out ideal_ec_trace.csv"),
    (0, "logical --state gkp0 --grid 68x16 --out ideal_68x16.csv"),  # an ideal state ignores the grid
    (0, "logical --state vacuum --grid 128x128 --method trace --out vacuum_trace.csv"),  # complex cross entry
    (0, "zakplot --state tabulated:table.csv --grid 64x64 --format csv --out zakplot_table.csv"),
    (0, "logical --state tabulated:table.csv --grid 64x64 --out table_trace.csv"),
    (2, "logical --grid 68x16 --out refused.csv"),  # halves that are not grids: no file
    # the library's rules, each a refusal with no file
    (2, "logical --grid 10x10 --out refused_grid.csv"),  # Nu not a multiple of 4
    (2, "logical --alpha -1 --out refused_alpha.csv"),
    (2, "logical --alpha 1e308 --out refused_patch.csv"),  # the period 2*alpha overflows
    (2, "logical --state gkp-approx:0.3 --out refused_spec.csv"),
    (2, "sweep --deltas 0.3,-1 --out refused_deltas.csv"),
    (2, "shift-array --state gkp-approx:0.3:0 --grid 64x64 --out refused_steps"),  # dx not a grid step
    # numerical failures, each with no file
    (3, "logical --state gkp-approx:0.2:0 --grid 8x8 --out unresolved.csv"),  # the norm-defect gate
    (3, "zakplot --state gkp-approx:0.1:0 --grid 64x64 --mmax 4 --out truncated.csv"),  # the truncation refusal
]

#: the CLI runs, then the library runs, as (expected exit code, label, interpreter arguments)
COMMANDS = [(code, args, ["-m", "zakgkp.cli", *args.split()]) for code, args in RUNS] + [
    (0, "libruns.py library.txt", [os.path.join(os.path.dirname(os.path.abspath(__file__)), "libruns.py"), "library.txt"]),
]


def table_rows():
    """The rows ``x,re,im`` of the tabulated runs' table: a Gaussian bump ``exp(-x^2 / 2)`` on the
    comb ``u_j + a m``, ``|m| <= 4``, that the default code's 64x64 grid probes, each float its repr."""
    a = 2 * math.sqrt(math.pi)
    du = a / 64
    xs = [(-a / 4 + du * j) + a * m for m in range(-4, 5) for j in range(64)]
    return "".join(f"{x!r},{math.exp(-x * x / 2)!r},0.0\n" for x in xs)


def run_all(src, workdir):
    """Exit codes of COMMANDS under ``src`` and the bytes of every file they wrote."""
    with open(os.path.join(workdir, "table.csv"), "w", encoding="utf-8") as fh:
        fh.write(table_rows())
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    codes = [
        subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        for _, _, argv in COMMANDS
    ]
    files = {}
    for folder, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, workdir)] = fh.read()
    return codes, files


def differing_lines(old, new, limit=20):
    """``line OLD -> NEW: FIELDS`` for up to ``limit`` lines that differ between two texts, and how
    many more do: the first two fields of the line (split on two spaces, cut to 80 characters) and
    its line number on each side, ``-`` on a side without a line of those fields in the same
    differing stretch."""
    a, b = old.splitlines(), new.splitlines()
    fields = lambda line: "  ".join(line.split("  ")[:2])[:80]  # noqa: E731
    entries = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            unpaired = {fields(a[i]): i + 1 for i in range(i1, i2)}
            pairs = [(unpaired.pop(fields(b[j]), "-"), j + 1, fields(b[j])) for j in range(j1, j2)]
            pairs += [(i, "-", key) for key, i in unpaired.items()]
            entries += [f"line {i} -> {j}: {key}" for i, j, key in pairs]
    return entries[:limit] + [f"and {len(entries) - limit} more lines"] * (len(entries) > limit)


def text(data):
    """``data`` decoded, or None for a file that is not text."""
    try:
        return None if b"\0" in data else data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def main(argv):
    if len(argv) != 2 or not all(os.path.isfile(os.path.join(src, "zakgkp", "cli.py")) for src in argv):
        print("usage: python tools/bytecheck.py OLD_SRC NEW_SRC (each a tree holding zakgkp/)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for side, src in zip(("old", "new"), argv):
            os.mkdir(os.path.join(tmp, side))
            results.append(run_all(src, os.path.join(tmp, side)))
    (old_codes, old_files), (new_codes, new_files) = results
    # (difference, differing lines of a text file)
    differ = [(f"exit codes {a}, {b} (expected {code}): {args}", [])
              for (code, args, _), a, b in zip(COMMANDS, old_codes, new_codes) if not code == a == b]
    for name in sorted(old_files.keys() | new_files.keys()):
        old, new = old_files.get(name), new_files.get(name)
        if old != new:
            texts = [text(old), text(new)] if old is not None and new is not None else [None]
            differ.append((f"{name}: {'differs' if len(texts) == 2 else 'only one side'}",
                           [] if None in texts else differing_lines(*texts)))
    for line, lines in differ:
        print(line)
        for entry in lines:
            print(f"  {entry}")
    print(f"{len(COMMANDS)} runs, {len(old_files | new_files)} files: "
          + (f"{len(differ)} differences" if differ else "byte-identical, exit codes as expected"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
