"""Command-line front end.

Subcommands: ``zakplot`` (magnitude/phase grids of a state), ``shift-array``
(a panel array of displaced states), ``logical`` (logical-qubit report) and
``sweep`` (approximation-quality table over a list of delta values).

Flags override values from an optional ``key=value`` config file; the
resolved configuration is echoed into a ``.manifest`` next to each output.
All commands are deterministic functions of the configuration.  Exit
codes: 0 success, 2 configuration error, 3 numerical-tolerance failure.
The library states the rules for a table, grid, alpha, delta and panel step;
``_refused`` maps its refusal of a configuration value to exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import shutil
import sys
from typing import NamedTuple

import numpy as np

from . import gridio, operators
from .core import (
    IdealZakState,
    ModularWavefunction,
    TabulatedState,
    VacuumState,
    _comb_rule,
    _frozen,
    comb_matrix,
    zak_transform,
)
from .errors import ConfigError, OffGridError, ZakError
from .gkp import (
    DEFAULT_ALPHA,
    GKPCode,
    approx_codeword,
    codeword,
    ec_channel_logical,
    logical_from_overlap,
    stabilizer_residual,
)

__all__ = ["main"]

NORM_DEFECT_TOL = 1e-6  # |raw_trace - 1| past which logical and sweep refuse a state of norm 1 (README)


class _Key(NamedTuple):
    """One configuration key: read from a config file or, for ``commands``, a flag."""

    parse: type
    default: object
    help: str
    choices: tuple | None = None
    commands: tuple | None = None  # None: every command


_KEYS = {
    "alpha": _Key(float, DEFAULT_ALPHA, "GKP half-period (default sqrt(pi))"),
    "grid": _Key(str, "256x256", "samples as NUxNV (default 256x256)"),
    "mmax": _Key(int, 16, "comb truncation order (default 16)"),
    "state": _Key(str, "vacuum", "vacuum | gkp0 | gkp1 | gkp-approx:DELTA:ELL | tabulated:PATH"),
    "out": _Key(str, None, "output path (a directory for shift-array)"),
    "format": _Key(str, "csv", "grid file format", ("csv", "bin")),
    "seed": _Key(int, None, "seed echoed into the manifest"),
    "method": _Key(str, "trace", "logical map (overlap is an alias of trace)",
                   ("trace", "ec-trace", "overlap"), ("logical",)),
    "jmax": _Key(int, 3, "largest X panel index (default 3)", commands=("shift-array",)),
    "kmax": _Key(int, 3, "largest Z panel index (default 3)", commands=("shift-array",)),
    "dx": _Key(float, None, "X step (default alpha/3)", commands=("shift-array",)),
    "dy": _Key(float, None, "Z step (default pi/(2 alpha))", commands=("shift-array",)),
    "deltas": _Key(str, "0.5,0.4,0.3,0.2,0.1", "comma-separated delta list", commands=("sweep",)),
}


@contextlib.contextmanager
def _refused(context):
    """The library's refusal of a configuration value (ValueError or OffGridError) or an unreadable
    file (OSError) as a ConfigError that starts with ``context``: the flag, key or file line at
    fault.  Wrap parsing, construction and reading only: a NonFiniteError is a ValueError too."""
    try:
        yield
    except (ValueError, OffGridError, OSError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _lines(path, what):
    """``(lineno, line)`` pairs of the text file ``path``; ConfigError naming ``what`` and
    ``path`` unless it opens and decodes as UTF-8."""
    with _refused(f"cannot read {what} {path}"), open(path, encoding="utf-8") as fh:
        return list(enumerate(fh, 1))


def _load_config_file(path):
    values = {}
    for lineno, raw in _lines(path, "config file"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        with _refused(f"{path}:{lineno}: expected key=value, got {line!r}"):
            key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        with _refused(f"{path}:{lineno}: bad value for {key}: {value!r}"):
            values[key] = _KEYS[key].parse(value)
    return values


def _resolve_config(args):
    """The configuration (defaults, then the config file, then flags), its code and its grid."""
    cfg = {key: spec.default for key, spec in _KEYS.items()}
    cfg["config_file"] = args.config or ""
    if args.config:
        cfg.update(_load_config_file(args.config))
    for key in _KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key, spec in _KEYS.items():
        if spec.choices and cfg[key] not in spec.choices:
            raise ConfigError(f"{key} must be one of {', '.join(spec.choices)}, got {cfg[key]!r}")
    if not cfg["out"]:
        raise ConfigError("--out is required")
    if cfg["jmax"] < 0 or cfg["kmax"] < 0:
        raise ConfigError(f"--jmax and --kmax must be nonnegative, got {cfg['jmax']} and {cfg['kmax']}")
    with _refused(f"--grid expects NUxNV, got {cfg['grid']!r}"):  # the grid rule is ZakGrid's
        nu, nv = (int(n) for n in cfg["grid"].lower().split("x"))
    # alpha's rule, the grid's, or a period 2*alpha or v_min = -pi/(2 alpha) that overflows
    with _refused(f"alpha={cfg['alpha']!r}, grid={cfg['grid']!r}"):
        code = GKPCode(alpha=cfg["alpha"])
        grid = code.grid(nu, nv)
    with _refused(f"mmax={cfg['mmax']!r}"):
        _comb_rule(grid, cfg["mmax"])
    return cfg, code, grid


def _load_table(path):
    xs, values = [], []
    for lineno, raw in _lines(path, "table"):
        line = raw.strip()
        if not line or line.startswith("#") or line.lower().startswith("x,"):
            continue
        with _refused(f"{path}:{lineno}: expected x,re,im, got {line!r}"):
            x, re, im = (float(p) for p in line.split(","))
        xs.append(x)
        values.append(complex(re, im))
    with _refused(f"table {path}"):
        return TabulatedState(xs, values)


def _parse_state(spec, code):
    """``(ell, state)`` of a state spec: the codeword index it targets (0 for vacuum and
    tabulated) and the ideal state (an IdealZakState) or position-space descriptor it names.
    A table's rules are ``TabulatedState``'s, and a ``gkp-approx`` spec's ``approx_codeword``'s."""
    if spec in ("gkp0", "gkp1"):
        return int(spec[-1]), codeword(code, int(spec[-1]))
    if spec == "vacuum" or spec.startswith("tabulated:"):
        return 0, VacuumState() if spec == "vacuum" else _load_table(spec.split(":", 1)[1])
    if not spec.startswith("gkp-approx:"):
        raise ConfigError(f"unknown state spec {spec!r}")
    with _refused(f"state {spec!r} must be gkp-approx:DELTA:ELL"):
        _, delta, ell = spec.split(":")
        delta, ell = float(delta), int(ell)
    with _refused(f"state {spec!r}"):
        return ell, approx_codeword(code, ell, delta)


def _require_gauge_halves(command, code, grid):
    """The logical maps split a grid state into its ``Nu/2 x Nv`` gauge halves: a
    ConfigError unless the library's gauge-grid rule admits them."""
    with _refused(f"{command} needs a grid whose halves Nu/2 x Nv are grids; {grid.nu}x{grid.nv} is not"):
        code.gauge_grid(grid.nu // 2, grid.nv)


def _manifest_text(command, cfg):
    lines = [f"command={command}"]
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, float):
            value = gridio.format_float(value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def _save_grid(psi, path, fmt):
    if fmt == "bin":
        gridio.save_grid_binary(psi, path)
    else:
        gridio.save_grid_csv(psi, path)


def _derived(psi, ufunc, *inputs):
    """The state whose samples' real parts one ``ufunc(*inputs, out=...)`` call fills."""
    samples = np.zeros_like(psi.samples)
    ufunc(*inputs, out=samples.real)
    return ModularWavefunction(psi.grid, _frozen(samples))


def cmd_zakplot(cfg, code, grid, ell, state):
    out = cfg["out"]
    if isinstance(state, IdealZakState):
        gridio.save_point_list_csv(state, out)
    else:
        psi = zak_transform(state, grid, cfg["mmax"])
        _save_grid(psi, out, cfg["format"])
        # each derived grid is saved and freed before the next; arctan2(imag, real) is np.angle
        z, (stem, ext) = psi.samples, os.path.splitext(out)
        for suffix, ufunc, inputs in (("_abs", np.abs, (z,)), ("_arg", np.arctan2, (z.imag, z.real))):
            _save_grid(_derived(psi, ufunc, *inputs), f"{stem}{suffix}{ext}", cfg["format"])
    return out + ".manifest"


def cmd_shift_array(cfg, code, grid, ell, state):
    # the manifest echoes the steps used
    dx = cfg["dx"] = cfg["dx"] if cfg["dx"] is not None else code.alpha / 3
    dy = cfg["dy"] = cfg["dy"] if cfg["dy"] is not None else math.pi / (2 * code.alpha)
    ideal = isinstance(state, IdealZakState)
    with _refused(f"panel steps dx={dx!r}, dy={dy!r}"):  # before the transform and the output directory
        if ideal:  # the patch counts the largest panel's shifts, and its phase does not overflow
            operators.apply_X(operators.apply_Z(state, cfg["kmax"] * dy), cfg["jmax"] * dx)
        else:  # each step and largest shift is a grid multiple whose count a float holds
            grid.u_steps(dx), grid.u_steps(cfg["jmax"] * dx)
            grid.v_steps(dy), grid.v_steps(cfg["kmax"] * dy)
    if not ideal:
        state = zak_transform(state, grid, cfg["mmax"])
    out_dir = cfg["out"]
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    ext = ".csv" if ideal or cfg["format"] == "csv" else ".bin"
    try:
        # one Z panel at a time, X-shifted for every j
        for k in range(cfg["kmax"] + 1):
            kicked = operators.apply_Z(state, k * dy)
            for j in range(cfg["jmax"] + 1):
                panel = operators.apply_X(kicked, j * dx)
                path = os.path.join(out_dir, f"panel_j{j}_k{k}{ext}")
                if ideal:
                    gridio.save_point_list_csv(panel, path)
                else:
                    _save_grid(panel, path, cfg["format"])
    except BaseException:
        if created:  # everything in it is this run's
            shutil.rmtree(out_dir, ignore_errors=True)
        raise
    return os.path.join(out_dir, "manifest")


def _require_unit_mass(qubit, what):
    """ZakError unless the sampled mass ``raw_trace`` of a state of norm 1 is 1 to within NORM_DEFECT_TOL."""
    if not abs(qubit.raw_trace - 1) <= NORM_DEFECT_TOL:
        raise ZakError(f"{what}: the grid does not resolve the state: its sampled mass (raw_trace) is "
                       f"{qubit.raw_trace!r} for a state of norm 1, off by more than {NORM_DEFECT_TOL}")


def cmd_logical(cfg, code, grid, ell, state):
    if not isinstance(state, IdealZakState):
        _require_gauge_halves("logical", code, grid)
        state = comb_matrix(state, grid, cfg["mmax"])
    # overlap is an alias of trace: ssd.gauge_trace equals logical_from_overlap by construction
    logical = ec_channel_logical if cfg["method"] == "ec-trace" else logical_from_overlap
    qubit = logical(state, code)
    if not cfg["state"].startswith("tabulated:"):  # a table's counting norm depends on its spacing
        _require_unit_mass(qubit, f"state {cfg['state']!r}")
    gridio.atomic_write_text(cfg["out"], gridio.logical_report_csv(qubit))
    return cfg["out"] + ".manifest"


def cmd_sweep(cfg, code, grid, ell, state):
    with _refused(f"bad --deltas list {cfg['deltas']!r}"):
        deltas = [float(d) for d in cfg["deltas"].split(",") if d.strip()]
        states = [approx_codeword(code, ell, delta) for delta in deltas]
    if not deltas:
        raise ConfigError(f"--deltas must list at least one value, got {cfg['deltas']!r}")
    _require_gauge_halves("sweep", code, grid)
    lines = ["delta,fidelity,purity,raw_trace,residual_pv,residual_pu"]
    for delta, state in zip(deltas, states):
        comb = comb_matrix(state, grid, cfg["mmax"])
        qubit = logical_from_overlap(comb, code)
        _require_unit_mass(qubit, f"delta {delta!r}")
        r1, r2 = stabilizer_residual(comb, code)
        fields = [delta, qubit.fidelity(ell), qubit.purity, qubit.raw_trace, r1, r2]
        lines.append(",".join(gridio.format_float(x) for x in fields))
    gridio.atomic_write_text(cfg["out"], "\n".join(lines) + "\n")
    return cfg["out"] + ".manifest"


# each command takes (cfg, code, grid, ell, state), writes its outputs and returns the path of
# the manifest, which main writes after them
_COMMANDS = {
    "zakplot": (cmd_zakplot, "write magnitude and phase grids of a state"),
    "shift-array": (cmd_shift_array, "write a panel array of displaced states"),
    "logical": (cmd_logical, "write a logical-qubit report"),
    "sweep": (cmd_sweep, "write an approximation-quality table over delta values"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="zakgkp",
        description="Zak-domain numerics for the GKP code",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, spec in _KEYS.items():
            if spec.commands is None or name in spec.commands:
                p.add_argument(f"--{key}", type=spec.parse, choices=spec.choices, help=spec.help)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, code, grid = _resolve_config(args)
        ell, state = _parse_state(cfg["state"], code)
        manifest = _COMMANDS[args.command][0](cfg, code, grid, ell, state)
        gridio.atomic_write_text(manifest, _manifest_text(args.command, cfg))
        return 0
    except ConfigError as exc:
        print(f"zakgkp: config error: {exc}", file=sys.stderr)
        return 2
    except ZakError as exc:
        print(f"zakgkp: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, MemoryError) as exc:
        what = "allocate" if isinstance(exc, MemoryError) else "write output"
        print(f"zakgkp: cannot {what}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
