"""README's library contract, rule by rule.

Each rule of README's "Library contract" carries a key in brackets, and each test that pins a
rule names its key with ``@pytest.mark.contract(key)``, on the test itself or on one row of its
table.  The first test here fails when a rule has no test naming its key, or a test names a key
that no rule carries.  The rest pin the contract itself: the table of inputs the library once
passed on, each row keyed, and hypothesis tests of its operators, constructors and loaders.
"""

import importlib
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numbers
from zakgkp import (
    GaussianComb, GKPCode, IdealZakState, LogicalQubit, MixtureState, ModularWavefunction, NonFiniteError,
    NormalizationError, OffGridError, TabulatedState, VacuumState, ZakError, ZakGrid, ZakPatch, apply_phase_u,
    apply_phase_v, apply_translate_u, apply_translate_v, apply_X, apply_Z, approx_codeword, codeword,
    convention_phase, inverse_zak_transform, logical_from_overlap, pp_bridge, stabilizer_residual,
    syndrome_reduce, to_ssd, zak_transform,
)
from zakgkp.core import comb_matrix
from zakgkp.gridio import load_grid_binary, load_grid_csv, save_grid_binary, save_grid_csv
from zakgkp.modular import split

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def readme_rules(text):
    """``(key or None, first line)`` of each rule of the library contract in README text ``text``:
    each paragraph after the first, which says how rules are keyed, and each bullet."""
    contract = text.split("### Library contract\n")[1].split("\n### ")[0]
    starts = [line.removeprefix("- ") for paragraph in contract.strip().split("\n\n")[1:]
              for i, line in enumerate(paragraph.splitlines()) if i == 0 or line.startswith("- ")]
    keys = [re.match(r"\[`([a-z-]+)`\] ", line) for line in starts]
    return [(key and key.group(1), line) for key, line in zip(keys, starts)]


def pinned_keys():
    """``{key: [test or table row, ...]}`` over the test modules beside this one."""
    pins = {}
    for path in sorted(TESTS.glob("test_*.py")):
        module = importlib.import_module(path.stem)
        for name, test in vars(module).items():
            if not name.startswith("test_") or not callable(test):
                continue
            for mark in getattr(test, "pytestmark", []):
                if mark.name == "contract":  # on the test
                    rows = [(name, mark)]
                elif mark.name == "parametrize":  # on rows of its table
                    rows = [(f"{name}[{row.id}]", row_mark) for row in mark.args[1]
                            for row_mark in getattr(row, "marks", ()) if row_mark.name == "contract"]
                else:
                    continue
                for where, pin in rows:
                    for key in pin.args:
                        pins.setdefault(key, []).append(f"{path.stem}::{where}")
    return pins


def test_each_contract_rule_is_pinned_and_each_pin_names_a_rule():
    rules = readme_rules(README.read_text(encoding="utf-8"))
    keys = [key for key, _ in rules]
    assert None not in keys, f"README rules with no key: {[line for key, line in rules if key is None]}"
    assert len(keys) == len(set(keys)), keys
    pins = pinned_keys()
    missing, unknown = sorted(set(keys) - set(pins)), sorted(set(pins) - set(keys))
    assert not missing, f"README rules no test pins: {missing}"
    assert not unknown, f"keys no README rule carries, and their pins: { {key: pins[key] for key in unknown} }"


# ---------------------------------------------------------------------------
# the library's own contract: a call raises a ValueError or a ZakError, or returns
# finite numbers.  The one documented exception is a grid phase whose argument t*x
# overflows: its samples are NaN, and the writers and the logical maps refuse them.

_CODE = GKPCode()
_GRID = _CODE.grid(16, 16)
HUGE = 10**400
LONG = 10**5000
_GRID_STATES = {"vacuum": zak_transform(VacuumState(), _GRID, 16),
                "gkp-approx": zak_transform(approx_codeword(_CODE, 1, 0.4), _GRID, 16)}
# the coordinate a phase multiplies, by operator: Z(t) = P_U(t) T_V(t)
_PHASED = {apply_Z: "u", apply_phase_u: "u", apply_phase_v: "v"}
_OPERATORS = [apply_X, apply_Z, apply_phase_u, apply_phase_v, apply_translate_u, apply_translate_v]
# a number, or n 2^e grid steps: a shift the grid can count up to e = 1023
_ts = st.one_of(numbers, st.builds(lambda n, e, step: n * 2.0**e * step, st.integers(-3, 3),
                                    st.integers(0, 1023), st.sampled_from([_GRID.du, _GRID.dv])))


def _weight(re, im):
    """``complex(re, im)``, or a drawn int itself: Python has no complex past the float range."""
    ints = [part for part in (re, im) if isinstance(part, int)]
    return ints[0] if ints else complex(re, im)


_points = st.lists(st.tuples(st.tuples(numbers, numbers), st.builds(_weight, numbers, numbers)), max_size=3)


def _refused_or(fn, *args):
    """``fn(*args)``, or None when it raises a ValueError or a ZakError.  Any other
    exception, and any numpy warning (an error under pytest), fails the test."""
    try:
        return fn(*args)
    except (ValueError, ZakError):
        return None


def _finite(*values):
    return all(np.isfinite(np.asarray(v)).all() for v in values)


def _check_maps(state):
    """The logical map and the stabilizer residuals refuse or give finite numbers."""
    qubit = _refused_or(logical_from_overlap, state, _CODE)
    assert qubit is None or _finite(qubit.matrix, qubit.raw_trace)
    residuals = _refused_or(stabilizer_residual, state, _CODE)
    assert residuals is None or _finite(residuals)


@pytest.mark.contract("finite-or-refused", "operators")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(sorted(_GRID_STATES)), _points),
       st.lists(st.tuples(st.sampled_from(_OPERATORS), _ts), max_size=4))
def test_library_contract_holds_for_any_operator_word(start, word):
    # a grid state, or the ideal state of drawn points; then each operator of the word in turn
    if isinstance(start, str):
        state = _GRID_STATES[start]
    else:
        state = _refused_or(IdealZakState, _CODE.full_patch(), start)
    overflowed = False
    for op, t in word:
        if state is None:
            return
        if op in _PHASED and isinstance(state, ModularWavefunction):
            x = _GRID.u_values() if _PHASED[op] == "u" else _GRID.v_values()
            # an int past the float range is refused as an infinite phase
            overflowed |= isinstance(t, float) and math.isfinite(t) and not math.isfinite(t * float(np.abs(x).max()))
        state = _refused_or(op, state, t)
    if state is None:
        return
    if isinstance(state, IdealZakState):
        assert _finite(list(state.points), list(state.points.values()))
    elif not _finite(state.samples):
        assert overflowed, word
        with tempfile.TemporaryDirectory() as tmp, pytest.raises(NonFiniteError):
            save_grid_binary(state, os.path.join(tmp, "nan.bin"))
        assert _refused_or(logical_from_overlap, state, _CODE) is None
        return
    _check_maps(state)


_BUILDERS = {
    "ZakPatch": lambda x, ell, rows: ZakGrid(ZakPatch(*x), 8, 8),
    "GKPCode.grid": lambda x, ell, rows: GKPCode(alpha=x[0]).grid(16, 8),
    "VacuumState": lambda x, ell, rows: VacuumState(x[0]),
    "GaussianComb": lambda x, ell, rows: GaussianComb(*x),
    "approx_codeword": lambda x, ell, rows: approx_codeword(_CODE, ell, x[0]),
    "TabulatedState": lambda x, ell, rows: TabulatedState([r[0] for r in rows], [_weight(*r[1:]) for r in rows]),
    "IdealZakState": lambda x, ell, rows: IdealZakState(_CODE.full_patch(), {(x[0], x[1]): _weight(*x[2:])}),
    "MixtureState": lambda x, ell, rows: MixtureState([(x[0], codeword(_CODE, ell)), (x[1], codeword(_CODE, 1))]),
    "syndrome_reduce": lambda x, ell, rows: syndrome_reduce(_CODE, x[0], x[1]),
}


@pytest.mark.contract("finite-or-refused")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_BUILDERS)), st.lists(numbers, min_size=4, max_size=4), st.sampled_from([0, 1]),
       st.lists(st.tuples(numbers, numbers, numbers), max_size=4), st.sampled_from([1, 4, 16]))
def test_library_contract_holds_for_any_constructor(name, x, ell, rows, m_max):
    # a refusal, or an object whose numbers are finite; a descriptor's transform and
    # comb-route maps then refuse or give finite numbers too
    built = _refused_or(_BUILDERS[name], x, ell, rows)
    if built is None:
        return
    if isinstance(built, ZakGrid):
        assert _finite(built.u_values(), built.v_values(), built.patch.height)
    elif name == "syndrome_reduce":
        assert _finite([built.u_tilde, built.v_tilde])
    elif hasattr(built, "evaluate"):
        psi = _refused_or(zak_transform, built, _GRID, m_max)
        assert psi is None or _finite(psi.samples)
        comb = _refused_or(comb_matrix, built, _GRID, m_max)
        if comb is not None:
            _check_maps(comb)
    else:
        _check_maps(built)


def _saved_bytes(fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"grid.{fmt}")
        (save_grid_binary if fmt == "bin" else save_grid_csv)(zak_transform(VacuumState(), _CODE.grid(8, 4), 8), path)
        with open(path, "rb") as fh:
            return fh.read()


_SAVED = {fmt: _saved_bytes(fmt) for fmt in ("csv", "bin")}
_edits = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 1 << 20),
                            st.one_of(st.integers(0, 255), st.sampled_from(list(b",\n.-+e0123456789nainf\x1c ")))),
                  min_size=1, max_size=3)


@pytest.mark.contract("finite-or-refused")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_SAVED)), _edits)
def test_loaders_refuse_or_read_back_any_edited_file(fmt, edits):
    # a few bytes set, inserted or deleted: the loader refuses the file or reads a state
    # with finite samples, which a binary file holds byte for byte
    raw = bytearray(_SAVED[fmt])
    for edit, at, byte in edits:
        at %= len(raw) + (edit == "insert")
        if edit == "set":
            raw[at] = byte
        elif edit == "insert":
            raw.insert(at, byte)
        elif len(raw) > 1:
            del raw[at]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"edited.{fmt}")
        with open(path, "wb") as fh:
            fh.write(raw)
        psi = _refused_or(load_grid_binary if fmt == "bin" else load_grid_csv, path)
        if psi is None:
            return
        assert _finite(psi.samples)
        if fmt == "bin":
            save_grid_binary(psi, path)
            with open(path, "rb") as fh:
                assert fh.read() == raw


@pytest.mark.parametrize(
    "build,error,message",
    [
        pytest.param(lambda psi, ideal: apply_X(psi, math.nan), OffGridError, "shift nan", id="grid-X-nan",
                     marks=pytest.mark.contract("operators")),
        *(pytest.param(lambda psi, ideal, op=op, t=t: op(psi, t), ValueError, f"phase must be finite, got {t}",
                       id=f"grid-{op.__name__}-{t}", marks=pytest.mark.contract("operators"))
          for op in (apply_Z, apply_phase_u, apply_phase_v) for t in (math.nan, math.inf)),
        *(pytest.param(lambda psi, ideal, op=op, t=t: op(ideal, t), ValueError, "weight at",
                       id=f"ideal-{op.__name__}-{t}", marks=pytest.mark.contract("operators"))
          for op in (apply_phase_u, apply_phase_v) for t in (math.nan, math.inf)),
        pytest.param(lambda psi, ideal: IdealZakState(ideal.patch, {(0.0, 0.0): math.nan}), ValueError,
                     r"weight at \(0.0, 0.0\), in the patch, is not finite: \(nan\+nanj\)", id="ideal-nan-weight",
                     marks=pytest.mark.contract("points-and-components")),
        pytest.param(lambda psi, ideal: MixtureState([(math.nan, ideal)]), ValueError,
                     "probability nan is not a nonnegative number", id="mixture-nan-probability",
                     marks=pytest.mark.contract("points-and-components")),
        *(pytest.param(build, ValueError, message, id=name, marks=pytest.mark.contract("table"))
          for name, build, message in (
            ("empty-table", lambda psi, ideal: TabulatedState([], []), "the table is empty"),
            ("all-zero-table", lambda psi, ideal: TabulatedState(np.zeros(2) + [0, 1], np.zeros(2)),
             "the table holds only zero values"),
            ("repeated-abscissa", lambda psi, ideal: TabulatedState(np.array([1.5, 0.0, 1.5]), np.ones(3)),
             r"abscissa 1.5 is listed more than once$"),
            ("nan-abscissa", lambda psi, ideal: TabulatedState(np.array([0.0, np.nan]), np.ones(2)),
             r"xs\[1\] is not finite: nan$"))),
        # found by the contract tests above: a patch whose far edge overflows, and residuals whose
        # sums overflow (a numpy warning and NaN from a comb matrix, inf from an ideal weight)
        pytest.param(lambda psi, ideal: ZakPatch(1e308, u_min=1e308), ValueError, "u_min \\+ a", id="patch-u-edge",
                     marks=pytest.mark.contract("sizes")),
        pytest.param(lambda psi, ideal: ZakPatch(1.0, b=1e-320, v_min=0.0), ValueError, "v_min \\+ 2pi/b",
                     id="patch-v-edge", marks=pytest.mark.contract("sizes")),
        # an extent too narrow for the floats at its edges: a far edge that rounds onto the near one
        # once reduced 3.0 to u = 1e20 or counted a period for a point on u_min, and the grids had 9
        # distinct u or v nodes of 1024, so u_index(u_values()[1]) read 0
        *(pytest.param(build, ValueError, message + " is too narrow for the edges", id=f"narrow-{name}",
                       marks=pytest.mark.contract("narrow-extent"))
          for name, build, message in (
              ("patch-u", lambda psi, ideal: ZakPatch(1.0, u_min=1e20), r"period a=1\.0"),
              ("patch-tiny-a", lambda psi, ideal: ZakPatch(1e-300, 1.0, u_min=1.0), r"period a=1e-300"),
              ("grid-u", lambda psi, ideal: ZakGrid(ZakPatch(1.0, u_min=1e15), 1024, 4), r"period a=1\.0"),
              ("grid-v", lambda psi, ideal: ZakGrid(ZakPatch(1.0, v_min=1e15), 4, 1024), r"height 2pi/b=6\.28\d*"),
              ("grid-du", lambda psi, ideal: ZakGrid(ZakPatch(1.0, u_min=1e6), 2**20, 4), r"du=9\.5367431640625e-07"),
              ("grid-dv", lambda psi, ideal: ZakGrid(ZakPatch(1.0, v_min=1e6), 4, 2**20), r"dv=5\.99\d*e-06"))),
        pytest.param(lambda psi, ideal: stabilizer_residual(comb_matrix(TabulatedState([0.0], [1e200j]), _GRID, 1), _CODE),
                     NonFiniteError, "residuals inf and nan are not both finite", id="comb-residual",
                     marks=pytest.mark.contract("residuals")),
        pytest.param(lambda psi, ideal: stabilizer_residual(IdealZakState(ideal.patch, {(0.0, 1.0): 1e154j}), _CODE),
                     NonFiniteError, "residuals inf and 0.0 are not both finite", id="ideal-residual",
                     marks=pytest.mark.contract("residuals")),
        # a half period once read psi_x at the wrong point with no error
        pytest.param(lambda psi, ideal: inverse_zak_transform(psi, 0.5, 0.0), ValueError,
                     r"n must be a whole number of periods, got 0\.5$", id="half-n-inverse_zak_transform",
                     marks=pytest.mark.contract("sizes")),
        # an ell that is not a number once raised float()'s own TypeError in place of the refusal
        *(pytest.param(build, ValueError, f"ell must be 0 or 1, got {shown}$", id=f"{label}-ell-{name}",
                       marks=pytest.mark.contract("alpha-and-ell", "finite-or-refused"))
          for label, shown, ell in (("None", "None", None), ("a", "'a'", "a"), ("str-2", "'2'", "2"))
          for name, build in (("codeword", lambda psi, ideal, ell=ell: codeword(_CODE, ell)),
                              ("approx_codeword", lambda psi, ideal, ell=ell: approx_codeword(_CODE, ell, 0.3)),
                              ("fidelity", lambda psi, ideal, ell=ell: logical_from_overlap(ideal, _CODE).fidelity(ell)))),
        # an int past the float range once raised OverflowError, and a phase b n v past it gave NaN
        # with a numpy warning: each is refused as the infinity of its sign
        *(pytest.param(build, error, message, id=f"huge-int-{name}",
                       marks=pytest.mark.contract("finite-or-refused"))
          for name, build, error, message in (
            ("ZakPatch", lambda psi, ideal: ZakPatch(HUGE), ValueError, "period a must be .*, got inf"),
            ("GKPCode", lambda psi, ideal: GKPCode(alpha=HUGE), ValueError, "alpha must be .*, got inf"),
            ("vacuum", lambda psi, ideal: VacuumState(-HUGE), ValueError, "offset must be finite, got -inf"),
            ("approx_codeword", lambda psi, ideal: approx_codeword(_CODE, 0, HUGE), ValueError,
             "delta must be positive and finite, got inf"),
            ("tabulated-xs", lambda psi, ideal: TabulatedState([0.0, HUGE], [1.0, 1.0]), ValueError,
             r"xs\[1\] is not finite: inf$"),
            ("tabulated-values", lambda psi, ideal: TabulatedState([0.0, 1.0], [1.0, -HUGE]), ValueError,
             r"values\[1\] is not finite: \(-inf\+0j\)$"),
            ("LogicalQubit", lambda psi, ideal: LogicalQubit([[HUGE, 0], [0, 1]], 1.0), ValueError,
             r"logical matrix \[\[\(inf\+0j\), 0j\], \[0j, \(1\+0j\)\]\] needs finite entries"),
            ("u_index", lambda psi, ideal: psi.grid.u_index(HUGE), OffGridError, r"u=inf \(from u_min\)"),
            ("apply_phase_u", lambda psi, ideal: apply_phase_u(psi, HUGE), ValueError, "phase must be finite, got inf"),
            ("apply_X-grid", lambda psi, ideal: apply_X(psi, -HUGE), OffGridError, "shift -inf is not"),
            ("apply_X-ideal", lambda psi, ideal: apply_X(ideal, HUGE), ValueError, "coordinate inf is not finite"),
            ("apply_Z", lambda psi, ideal: apply_Z(psi, HUGE), ValueError, "phase must be finite, got inf"),
            ("inverse_zak_transform", lambda psi, ideal: inverse_zak_transform(psi, 2**1023, 0.0), ValueError,
             r"the largest phase b n v for n=8.98846567431158e\+307 must be finite, got inf"))),
        # sizes past numpy's limit once raised its own ValueError, from inside np.arange
        pytest.param(lambda psi, ideal: ZakGrid(ideal.patch, 4 * 10**20, 8), ValueError,
                     "a 400000000000000000000x8 grid is past numpy's size limit", id="grid-size",
                     marks=pytest.mark.contract("sizes")),
        pytest.param(lambda psi, ideal: comb_matrix(VacuumState(), _GRID, 10**24), ValueError,
                     r"with a 16 x \(2 m_max \+ 1\) comb numpy can index, got 1000000000000000000000000$",
                     id="comb-size", marks=pytest.mark.contract("sizes")),
        # a half-integer m_max once gave half-integer teeth and a wrong transform with no error
        *(pytest.param(lambda psi, ideal, f=f: f(VacuumState(), _GRID, 8.5), ValueError,
                       r"m_max must be a positive whole number, .* comb numpy can index, got 8\.5$",
                       id=f"half-m_max-{f.__name__}", marks=pytest.mark.contract("sizes"))
          for f in (comb_matrix, zak_transform)),
        # an int of more than 4300 digits once made Python's own int-to-text limit the message
        *(pytest.param(build, ValueError, message, id=f"long-int-{name}",
                       marks=pytest.mark.contract("finite-or-refused"))
          for name, build, message in (
            ("syndrome_reduce", lambda psi, ideal: syndrome_reduce(_CODE, LONG, 0), "coordinate inf is not finite"),
            ("ideal-point", lambda psi, ideal: IdealZakState(ideal.patch, {(-LONG, 0.0): 1}),
             "coordinate -inf is not finite"),
            ("grid-nv", lambda psi, ideal: _CODE.grid(8, LONG), "a 8xinf grid is past numpy's size limit"),
            ("grid-nu", lambda psi, ideal: _CODE.grid(4 * LONG, 8), "a infx8 grid is past numpy's size limit"),
            ("comb", lambda psi, ideal: comb_matrix(VacuumState(), _GRID, LONG), "comb numpy can index, got inf$"),
            ("codeword", lambda psi, ideal: codeword(_CODE, -LONG), "ell must be 0 or 1, got -inf$"),
            ("split-period", lambda psi, ideal: split(1.0, LONG, 0.5), "period must be positive and finite, got inf$"))),
        # a convention that is no short string once put its whole repr, 5,000 characters or an int's
        # 5,000 digits in the message, or made Python's own int-to-text limit the message
        *(pytest.param(lambda psi, ideal, c=c: convention_phase(0.0, 0.0, c(psi)), ValueError, message,
                       id=f"convention-{name}", marks=pytest.mark.contract("convention"))
          for name, c, message in (
            ("PPGaugeModes", lambda psi: pp_bridge(to_ssd(psi, _CODE)), r"unknown convention PPGaugeModes\(\.\.\..{,24}$"),
            ("long-str", lambda psi: "x" * 5000, r"unknown convention 'x{12}\.\.\.x{13}'$"),
            ("long-int", lambda psi: LONG, "unknown convention inf$"))),
        # a phase u v past the float range once raised "math domain error" or returned NaN
        *(pytest.param(lambda psi, ideal, args=args: convention_phase(*args), ValueError, message,
                       id=f"convention-phase-{args[2]}", marks=pytest.mark.contract("convention"))
          for args, message in (
            ((1e200, 1e200, "opposite"), r"the phase u v for u=1e\+200, v=1e\+200 must be finite, got inf$"),
            ((1e308, 10, "symmetric"), r"the phase u v for u=1e\+308, v=10\.0 must be finite, got inf$"))),
        # an entry that is no pair once raised Python's own unpacking error, which names neither
        # the argument nor the pair it takes
        *(pytest.param(build, ValueError, message, id=f"unpaired-{name}",
                       marks=pytest.mark.contract("points-and-components"))
          for name, build, message in (
            ("points-array", lambda psi, ideal: IdealZakState(ideal.patch, np.zeros(2)),
             r"points takes \(\(x, y\), weight\) pairs, got 0\.0$"),
            ("points-point", lambda psi, ideal: IdealZakState(ideal.patch, [(1.0, 2.0)]),
             r"points takes \(\(x, y\), weight\) pairs, got \(1\.0, 2\.0\)$"),
            ("components-array", lambda psi, ideal: MixtureState(np.zeros(2)),
             r"components takes \(probability, state\) pairs, got 0\.0$"),
            ("components-probability", lambda psi, ideal: MixtureState([1.0]),
             r"components takes \(probability, state\) pairs, got 1\.0$"),
            # one that is not iterable at all once raised Python's own "not iterable" error
            ("points-None", lambda psi, ideal: IdealZakState(ideal.patch, None),
             r"points takes \(\(x, y\), weight\) pairs, got None$"),
            ("components-None", lambda psi, ideal: MixtureState(None),
             r"components takes \(probability, state\) pairs, got None$"),
            ("components-int", lambda psi, ideal: MixtureState(3),
             r"components takes \(probability, state\) pairs, got 3$"))),
        # the zero state once raised ZeroDivisionError, outside the contract
        pytest.param(lambda psi, ideal: psi.with_samples(np.zeros_like(psi.samples)).normalized(), NormalizationError,
                     "cannot normalize the zero wavefunction$", id="zero-normalized",
                     marks=pytest.mark.contract("zero-state")),
    ],
)
def test_library_refuses_each_input_it_once_passed_on(build, error, message):
    # a NaN grid shift once left the state unshifted, a NaN or infinite grid phase gave NaN
    # samples or a numpy warning, and the rest were accepted or failed later on
    psi = _GRID_STATES["vacuum"]
    with pytest.raises(error, match=message) as exc:
        build(psi, codeword(_CODE, 0))
    assert "np." not in str(exc.value)


def test_each_refusal_row_names_a_contract_rule():
    (table,) = (mark for mark in test_library_refuses_each_input_it_once_passed_on.pytestmark
                if mark.name == "parametrize")
    unkeyed = [row.id for row in table.args[1] if not any(mark.name == "contract" and mark.args for mark in row.marks)]
    assert not unkeyed, f"refusal rows with no @pytest.mark.contract key: {unkeyed}"


@pytest.mark.contract("operators")
def test_an_overflowing_grid_phase_gives_nan_samples_without_a_warning():
    # documented: the writers and the logical maps refuse them
    psi = apply_phase_u(_GRID_STATES["vacuum"], 1e308)
    assert np.isnan(psi.samples).any()
    assert _refused_or(logical_from_overlap, psi, _CODE) is None
