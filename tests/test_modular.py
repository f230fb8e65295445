import cmath
import math
import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zakgkp import ZakPatch
from zakgkp.modular import split

A = 2 * math.sqrt(math.pi)


def closest_int_multiple(x, period, centering):
    """The integer multiple of ``period`` that ``split`` removes from ``x``."""
    return split(x, period, centering)[1] * period


def canonicalize(x, y, a):
    """``ZakPatch.reduce`` on the standard patch of period ``a``, plus the
    ket's wrap phase ``exp(-i b n v)``."""
    patch = ZakPatch(a)
    u, v, n = patch.reduce(x, y)
    return u, v, cmath.exp(-1j * patch.b * n * v)

periods = st.floats(1e-3, 1e3)
# centerings comparable in scale to the period: boundary distinctions below
# float resolution of the period are not representable
centering_fractions = st.one_of(
    st.just(0.0), st.floats(1e-9, 1.5), st.floats(-1.0, -1e-9)
)
reals = st.floats(-1e6, 1e6)


def test_frac_part_examples():
    assert split(0.3, 1.0, 0.5)[0] == 0.3
    assert split(5.0, 2.0, 1.0)[0] == -1.0
    assert split(A, A, A / 4)[0] == 0.0


def test_closest_int_multiple_examples():
    assert closest_int_multiple(5.0, 2.0, 1.0) == 6.0
    assert closest_int_multiple(0.0, 2.0, 1.0) == 0.0
    assert closest_int_multiple(0.3 * 2.0, 2.0, 1.0) == 0.0


@pytest.mark.contract("split-window")
@pytest.mark.parametrize(
    "period,centering", [(1.0, 0.25), (2.0, 1.0), (A, A / 2), (0.125, 0.0625), (4.0, 1.0)]
)
def test_half_open_boundary_wraps_exactly(period, centering):
    # inputs chosen so that period - centering is exactly representable
    assert split(period - centering, period, centering)[0] == -centering


def test_non_positive_period_rejected():
    with pytest.raises(ValueError):
        split(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        split(1.0, -2.0, 0.5)


# a period or centering split cannot count with once returned a wrong count or named the coordinate
@pytest.mark.contract("split-window")
@pytest.mark.parametrize(
    "period,centering,message",
    [
        pytest.param(math.inf, 0.5, "period must be positive and finite, got inf$", id="period-inf"),
        pytest.param(math.nan, 0.5, "period must be positive and finite, got nan$", id="period-nan"),
        pytest.param(1.0, math.nan, "centering must be finite, got nan$", id="centering-nan"),
        pytest.param(1.0, math.inf, "centering must be finite, got inf$", id="centering-inf"),
    ],
)
def test_a_period_or_centering_split_cannot_count_with_is_refused(period, centering, message):
    with pytest.raises(ValueError, match=message):
        split(1.0, period, centering)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 1e308], ids=["inf", "-inf", "nan", "1e308"])
def test_non_finite_coordinate_is_a_value_error(x):
    with pytest.raises(ValueError, match=re.escape(f"coordinate {x!r} is not finite, or too large to count")):
        split(x, 1e-10, 0.5e-10)


@pytest.mark.contract("split-window")
@given(x=reals, period=periods, fraction=centering_fractions)
def test_range_invariant(x, period, fraction):
    centering = fraction * period
    f = split(x, period, centering)[0]
    assert -centering <= f < period - centering


@pytest.mark.contract("split-window")
@pytest.mark.parametrize(
    "x,period,centering,expected",
    [
        # no count puts the rounded difference inside: the left bound wins
        (-1341342.174566397, 1.772453850905516, 0.5013627785529992, (-0.5013627785529992, -756771)),
        (-492198.91344643093, 1.772453850905516, 0.886226925452758, (-0.886226925452758, -277693)),
    ],
)
def test_a_difference_past_the_window_takes_the_left_bound(x, period, centering, expected):
    assert split(x, period, centering) == expected


def test_range_at_exact_boundaries():
    assert split(0.0, 1.0, 0.0)[0] == 0.0
    assert split(1.0, 1.0, 0.0)[0] == 0.0
    assert split(-0.25, 1.0, 0.25)[0] == -0.25


@given(x=reals, period=periods, fraction=centering_fractions)
def test_idempotent(x, period, fraction):
    centering = fraction * period
    f = split(x, period, centering)[0]
    assert split(f, period, centering)[0] == f


@given(x=reals, period=periods, fraction=centering_fractions)
def test_decomposition_reconstructs(x, period, fraction):
    centering = fraction * period
    frac, n = split(x, period, centering)
    whole = n * period
    assert frac + whole == pytest.approx(x, abs=1e-9 * max(1.0, abs(x)))
    ratio = whole / period
    assert ratio == pytest.approx(round(ratio), abs=1e-9 * max(1.0, abs(ratio)))


@given(
    x=st.floats(-100.0, 100.0),
    period=st.floats(0.01, 100.0),
    centering=st.floats(-1.0, 1.0),
    c=st.floats(1e-3, 1e3),
)
def test_scale_identity(x, period, centering, c):
    f = split(x, period, centering)[0]
    # stay away from the wrap boundary, where a scaled quotient may
    # legitimately round onto the other side
    assume(min(f + centering, period - centering - f) > 1e-6 * period)
    scaled = split(c * x, c * period, c * centering)[0]
    # both routes are float-exact relative to the magnitudes they cancel
    tol = 1e-12 * max(1.0, c * period, abs(c * x))
    assert c * f == pytest.approx(scaled, abs=tol)


def test_canonicalize_examples():
    u, v, phase = canonicalize(0.0, 0.0, A)
    assert (u, v, phase) == (0.0, 0.0, 1 + 0j)

    u, v, phase = canonicalize(A, 0.0, A)
    assert (u, v) == (0.0, 0.0)
    assert phase == 1 + 0j

    v0 = 0.37
    u, v, phase = canonicalize(A, v0, A)
    assert u == 0.0
    assert v == pytest.approx(v0)
    assert phase == pytest.approx(cmath.exp(-1j * A * v0))


def test_canonicalize_phase_is_unit_modulus():
    for x, y in [(5.3, -2.1), (-17.0, 9.9), (0.123, 456.0)]:
        u, v, phase = canonicalize(x, y, A)
        assert abs(abs(phase) - 1) < 1e-12
        assert -A / 4 <= u < 3 * A / 4
        assert -math.pi / A <= v < math.pi / A


@given(x=st.floats(-50.0, 50.0), y=st.floats(-50.0, 50.0), a=st.floats(0.1, 10.0))
def test_canonicalize_composition(x, y, a):
    base_u, base_v, base_phase = canonicalize(x, y, a)
    # adding a period can re-round a point that sits on a wrap boundary
    assume(min(base_u + a / 4, 3 * a / 4 - base_u) > 1e-6 * a)
    u, v, phase = canonicalize(x + a, y, a)
    assert u == pytest.approx(base_u, abs=1e-9 * a)
    assert v == pytest.approx(base_v, abs=1e-9)
    expected = base_phase * cmath.exp(-1j * a * split(y, 2 * math.pi / a, math.pi / a)[0])
    assert phase == pytest.approx(expected, abs=1e-9)
