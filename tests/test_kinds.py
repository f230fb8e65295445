"""The kind rule, swept over the whole API.

Every class and function in the ``__all__`` of the six library modules is called
with valid arguments, then with each positional parameter in turn replaced by
each of 24 kinds of argument: numbers the library refuses or converts, the
containers a caller might pass instead, and each library object.  README's
library contract states the rule this holds the calls to: a wrong kind raises
``ValueError``, ``TypeError`` or a ``ZakError``, a refusal that names a kind
reads whole as its row of :data:`KIND_REFUSALS` words it, naming the kind
given (or a mixture's component, or an SSD state's mode), and a refused call
leaves no file behind.  The parameters README names outside the rule may end
in the error it names for them.
"""

import inspect
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from zakgkp import core, gkp, gridio, modular, operators, ssd
from zakgkp.errors import ZakError

MODULES = (core, gkp, gridio, modular, operators, ssd)
README = Path(__file__).resolve().parent.parent / "README.md"

CODE = gkp.GKPCode()
GRID = CODE.grid(16, 16)
PSI = core.zak_transform(core.VacuumState(), GRID, 8)
IDEAL = gkp.codeword(CODE, 0)
COMB = core.comb_matrix(core.VacuumState(), GRID, 4)
SSD = ssd.to_ssd(PSI, CODE)
MODES = ssd.pp_bridge(SSD)
SYNDROME = gkp.syndrome_reduce(CODE, 0.0, 0.0)
QUBIT = [[1.0, 0.0], [0.0, 0.0]]

KINDS = {
    "None": None, "str": "zak", "nan": math.nan, "inf": math.inf, "-1": -1, "0": 0, "huge-int": 10**400,
    "tuple": (0.0, 0.0), "list": [0.0, 0.0], "array": np.zeros(2), "1j": 1j, "True": True,
    "grid-state": PSI, "comb": COMB, "ideal-state": IDEAL, "SSDState": SSD, "ideal-SSDState": ssd.to_ssd(IDEAL, CODE),
    "PPGaugeModes": MODES,
    "MixtureState": gkp.MixtureState([(1.0, IDEAL)]), "Syndrome": SYNDROME, "GKPCode": CODE,
    "ZakGrid": GRID, "ZakPatch": GRID.patch, "descriptor": core.VacuumState(),
}

#: valid values of each callable's parameters without a default; the loaders read the
#: files written before the sweep, and the writers write others
VALID = {
    core.ZakPatch: (2 * gkp.DEFAULT_ALPHA,),
    core.ZakGrid: (GRID.patch, 16, 16),
    core.ModularWavefunction: (GRID, np.zeros((16, 16))),
    core.IdealZakState: (GRID.patch, {(0.0, 0.0): 1.0}),
    core.VacuumState: (),
    core.GaussianComb: (CODE.period, 0.09, 1 / 0.09),
    core.TabulatedState: ([0.0, 1.0], [1.0, 0.5]),
    core.CombMatrix: (GRID, COMB.values, COMB.m, COMB.tail_bound),
    core.comb_matrix: (core.VacuumState(), GRID, 4),
    core.zak_transform: (core.VacuumState(), GRID, 4),
    core.inverse_zak_transform: (PSI, 0, 0.0),
    core.stretch_rescale: (PSI, 1.0),
    core.convention_phase: (0.5, 0.5, "opposite"),
    gkp.GKPCode: (),
    gkp.Syndrome: tuple(SYNDROME),
    gkp.LogicalQubit: (QUBIT, 1.0),
    gkp.MixtureState: ([(1.0, IDEAL)],),
    gkp.codeword: (CODE, 0),
    gkp.approx_codeword: (CODE, 0, 0.3),
    gkp.stabilizer_residual: (PSI, CODE),
    gkp.syndrome_reduce: (CODE, 0.0, 0.0),
    gkp.ec_kraus_amplitudes: (PSI, CODE, SYNDROME),
    gkp.logical_from_overlap: (PSI, CODE),
    gkp.ec_channel_logical: (PSI, CODE),
    gridio.format_float: (1.0,),
    gridio.atomic_write_text: ("out.txt", "text"),
    gridio.save_grid_csv: (PSI, "out.csv"),
    gridio.load_grid_csv: ("grid.csv",),
    gridio.save_grid_binary: (PSI, "out.bin"),
    gridio.load_grid_binary: ("grid.bin",),
    gridio.save_point_list_csv: (IDEAL, "points.csv"),
    gridio.logical_report_csv: (gkp.LogicalQubit(QUBIT, 1.0),),
    modular.split: (1.0, 1.0, 0.5),
    **{getattr(operators, name): (PSI, 0.0) for name in operators.__all__},
    ssd.SSDState: (CODE, *SSD.gamma),
    ssd.to_ssd: (PSI, CODE),
    ssd.from_ssd: (SSD,),
    ssd.gauge_trace: (SSD,),
    ssd.ec_gauge_trace: (SSD,),
    ssd.apply_Z_ssd: (SSD, 0.0),
    ssd.apply_X_ssd: (SSD, 0.0),
    ssd.PPGaugeModes: (CODE, MODES.coeffs),
    ssd.pp_bridge: (SSD,),
    ssd.pp_bridge_inverse: (MODES,),
}

#: the writers, which refuse a wrong state before they open a file: the sweep gives them no folder to open it in
WRITERS = (gridio.save_grid_csv, gridio.save_grid_binary, gridio.save_point_list_csv)

_GRID_OR_IDEAL = "this function takes a grid or ideal state"
_MAPS = ("this function takes a grid, ideal or comb state", "pass an SSDState's mode")
_PURE = ("this function takes a pure state", "pass each component")
_FULL_MODE = {"MixtureState": _PURE, "comb": (_GRID_OR_IDEAL, "pass its zak_transform"),
              None: (_GRID_OR_IDEAL, "pass an SSDState's mode")}
_SSD = ("this function takes an SSDState", "pass to_ssd(state, code)")
_WRITERS = ("the grid writers take a grid state", "")
_OPERATORS = ("the operators take a grid or ideal state",
              "pass an SSDState's mode, a CombMatrix's zak_transform, or each component of a MixtureState")

#: each refusal of a kind, ``(what, hint)`` as ``errors._kind(value, kinds, what, hint)`` words it, by
#: callable and parameter; where the wording depends on the kind given, ``{kind: (what, hint)}``,
#: with ``None`` for every other kind
KIND_REFUSALS = {
    (core.inverse_zak_transform, "psi"): ("inverse_zak_transform takes a grid state", ""),
    (core.stretch_rescale, "psi"): ("stretch_rescale takes a grid state", ""),
    (core.CombMatrix, "values"): ("CombMatrix takes values as an array", ""),
    (core.CombMatrix, "m"): ("CombMatrix takes m as an array", ""),
    (gkp.stabilizer_residual, "state"): {"MixtureState": _PURE, None: _MAPS},
    (gkp.ec_kraus_amplitudes, "state"): _FULL_MODE,
    (gkp.ec_kraus_amplitudes, "syn"): ("ec_kraus_amplitudes takes a Syndrome", "pass syndrome_reduce(code, s, t)"),
    (gkp.logical_from_overlap, "rho"): _MAPS,
    (gkp.ec_channel_logical, "rho"): _MAPS,
    (gridio.save_grid_csv, "psi"): _WRITERS,
    (gridio.save_grid_binary, "psi"): _WRITERS,
    (gridio.save_point_list_csv, "state"): ("save_point_list_csv takes an ideal state", ""),
    (gridio.logical_report_csv, "qubit"): ("logical_report_csv takes a LogicalQubit", ""),
    **{(getattr(operators, name), "state"): _OPERATORS for name in operators.__all__},
    (ssd.SSDState, "gamma0"): ("SSDState takes grid or ideal gauge components", ""),
    (ssd.SSDState, "gamma1"): ("SSDState takes grid or ideal gauge components", ""),
    (ssd.to_ssd, "state"): _FULL_MODE,
    (ssd.from_ssd, "state"): _SSD,
    (ssd.gauge_trace, "rho"): _SSD,
    (ssd.ec_gauge_trace, "rho"): _SSD,
    (ssd.apply_Z_ssd, "state"): _SSD,
    (ssd.apply_X_ssd, "state"): _SSD,
    (ssd.pp_bridge, "state"): {"ideal-SSDState": ("this function takes an SSDState whose mode is a grid state", ""),
                               None: _SSD},
    (ssd.pp_bridge_inverse, "modes"): ("pp_bridge_inverse takes the PPGaugeModes that pp_bridge returns", ""),
}
#: the maps that take a MixtureState of the states they take
MIXTURE_MAPS = (gkp.logical_from_overlap, gkp.ec_channel_logical, ssd.gauge_trace, ssd.ec_gauge_trace)
#: a message of ``errors._kind``
KIND_MESSAGE = re.compile(r".+, not a \w+(?:; .+)?")

#: the error each class of parameter README names outside the kind rule may end in
OUTSIDE = {"code": AttributeError, "grid": AttributeError, "patch": AttributeError,
           "descriptor": AttributeError, "path": OSError}


def _outside(fn, name):
    """The class of parameter ``name`` of ``fn`` that README names outside the rule, or None."""
    if name == "state" and fn in (core.comb_matrix, core.zak_transform):
        return "descriptor"
    if name == "path" and fn in (gridio.load_grid_csv, gridio.load_grid_binary):
        return "path"
    return name if name in ("code", "grid", "patch") else None


def _named(fn, value):
    """The type a kind refusal of ``value`` by ``fn`` names: a mixture's component, for a map that takes
    a mixture (each mixture here has one); an SSD state's mode, for ``pp_bridge``; otherwise its own."""
    if isinstance(value, gkp.MixtureState) and fn in MIXTURE_MAPS:
        ((_, value),) = value
    elif isinstance(value, ssd.SSDState) and fn is ssd.pp_bridge:
        value = value.mode
    return type(value).__name__


def _refusal(fn, name, kind, value):
    """``(key, message)``: the key of the row of :data:`KIND_REFUSALS` that words a refusal of
    ``kind``, ``value``, given as parameter ``name`` of ``fn``, and the whole message of that
    refusal; ``(None, None)`` where no row is."""
    row = KIND_REFUSALS.get((fn, name))
    if row is None:
        return None, None
    key = kind if isinstance(row, dict) and kind in row else None
    what, hint = row[key] if isinstance(row, dict) else row
    return (fn, name, key), f"{what}, not a {_named(fn, value)}" + (f"; {hint}" if hint else "")


def _calls():
    """``(fn, parameter name, kind, value, args)`` for each positional parameter of each callable and each kind."""
    for fn, valid in VALID.items():
        params = [p for p in inspect.signature(fn).parameters.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        for i, param in enumerate(params):
            for kind, value in KINDS.items():
                args = [*valid, *(p.default for p in params[len(valid):i + 1])]
                args[i] = value
                if fn in WRITERS and i == 0 and value is not valid[0]:
                    args[1] = os.path.join("no-such-folder", args[1])
                yield fn, param.name, kind, value, args


def test_valid_covers_every_public_callable():
    public = {getattr(m, name) for m in MODULES for name in m.__all__ if callable(getattr(m, name))}
    assert public == set(VALID)


@pytest.mark.contract("kind-rule")
def test_readme_names_each_class_outside_the_kind_rule():
    contract = README.read_text(encoding="utf-8").split("### Library contract")[1].split("\n### ")[0]
    (rule,) = re.findall(r"^- \[`kind-rule`\] \*\*The kind rule\.\*\*.*?(?=^- |\Z)", contract, re.S | re.M)
    for name, error in OUTSIDE.items():
        assert name in rule, name
        assert f"`{error.__name__}`" in rule, error


@pytest.mark.contract("kind-rule")
def test_every_kind_of_argument_is_refused_by_the_rule(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gridio.save_grid_csv(PSI, "grid.csv")
    gridio.save_grid_binary(PSI, "grid.bin")
    files = set(os.listdir())

    def clear():
        for extra in set(os.listdir()) - files:
            os.remove(extra)

    for fn, valid in VALID.items():  # every valid call runs
        fn(*valid)
    clear()
    escapes, misworded, left, given = [], [], [], set()
    start = time.perf_counter()
    for fn, name, kind, value, args in _calls():
        try:
            fn(*args)
        except (ValueError, TypeError, ZakError) as exc:
            if KIND_MESSAGE.fullmatch(str(exc)):  # a refusal of a kind: whole, as its row words it
                key, message = _refusal(fn, name, kind, value)
                if type(exc) is not ValueError or str(exc) != message:
                    misworded.append((fn.__name__, name, kind, f"{type(exc).__name__}: {exc}"))
                given.add(key)
            if set(os.listdir()) - files:
                left.append((fn.__name__, name, kind))
        except Exception as exc:  # an escape, unless README names it for this parameter
            if not isinstance(exc, OUTSIDE.get(_outside(fn, name), ())):
                escapes.append((fn.__name__, name, kind, f"{type(exc).__name__}: {exc}"[:120]))
        clear()
    elapsed = time.perf_counter() - start
    assert not escapes, escapes
    assert not misworded, misworded
    rows = {(fn, name, key) for (fn, name), row in KIND_REFUSALS.items()
            for key in (row if isinstance(row, dict) else [None])}
    assert rows <= given, f"rows no refusal gave: {[(fn.__name__, name, key) for fn, name, key in rows - given]}"
    assert not left, left
    assert elapsed < 1.0, elapsed
