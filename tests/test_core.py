import cmath
import importlib
import inspect
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import zakgkp
from conftest import ALPHA, closed_form_state, closed_form_states, comb_table
from erf_reference import inverse_samples, zak_samples
from zakgkp import (
    GKPCode,
    GaussianComb,
    IdealZakState,
    LogicalQubit,
    ModularWavefunction,
    NonFiniteError,
    OffGridError,
    SSDState,
    TruncationError,
    VacuumState,
    ZakGrid,
    ZakPatch,
    apply_phase_u,
    apply_phase_v,
    apply_translate_u,
    apply_translate_v,
    apply_X,
    apply_X_ssd,
    apply_Z,
    apply_Z_ssd,
    approx_codeword,
    convention_phase,
    from_ssd,
    inverse_zak_transform,
    logical_from_overlap,
    pp_bridge,
    pp_bridge_inverse,
    stretch_rescale,
    to_ssd,
    zak_transform,
)
from zakgkp.core import MAX_TEETH, NODE_TOL, CombMatrix, TabulatedState, comb_matrix
from zakgkp.gkp import _gram
from zakgkp.gridio import load_grid_binary, load_grid_csv, save_grid_binary, save_grid_csv

A = 2 * ALPHA


def theta_sum(u, v, m_max=40):
    """Closed-form vacuum transform at one point, summed independently."""
    total = 0j
    for m in range(-m_max, m_max + 1):
        total += cmath.exp(-1j * A * m * v) * math.pi**-0.25 * math.exp(-((u + A * m) ** 2) / 2)
    return math.sqrt(A / (2 * math.pi)) * total


# frozen from the m-sum above: pi^(-1/2) * (1 + 2 e^(-2pi) + 2 e^(-8pi) + ...)
VAC_AT_ORIGIN = 0.5662967670356824


def test_vacuum_value_at_origin(vac64, grid64):
    j, k = grid64.u_index(0.0), grid64.v_index(0.0)
    assert theta_sum(0.0, 0.0) == pytest.approx(VAC_AT_ORIGIN, abs=1e-15)
    assert vac64.samples[j, k] == pytest.approx(VAC_AT_ORIGIN, abs=1e-12)


def test_vacuum_transform_matches_the_jacobi_theta_closed_form(vac64, grid64):
    # DLMF 20.2: sum_m q^(m^2) e^(2imz) is theta_3(z, q); with q = e^(-a^2/2) and
    # z = (i a u - b v)/2 it is the vacuum's comb sum over m, times e^(u^2/2)
    a, b = grid64.patch.a, grid64.patch.b
    q = mpmath.fp.exp(-a * a / 2)
    want = np.array([[complex(mpmath.fp.exp(-u * u / 2) * mpmath.fp.jtheta(3, (1j * a * u - b * v) / 2, q))
                      for v in grid64.v_values()] for u in grid64.u_values()])
    want *= math.sqrt(b / (2 * math.pi)) * math.pi**-0.25
    assert np.max(np.abs(vac64.samples - want)) <= 1e-13


@pytest.mark.parametrize("n", [64, 256])
@closed_form_states
def test_zak_transform_matches_the_closed_form_samples(code, n, delta, which):
    # every sample summed directly over the Gaussians, with nothing from the library: this pins
    # the comb's centres, window and amplitude (the relative errors are 1.7e-14 at most)
    psi, gaussians = closed_form_state(delta, which, n)
    want = zak_samples(code.alpha, *gaussians, psi.grid.u_values(), psi.grid.v_values())
    assert np.max(np.abs(psi.samples - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [64, 256])
@closed_form_states
def test_inverse_zak_transform_matches_the_closed_form(code, n, delta, which):
    # psi_x(u + a n) summed over the Gaussians: pins the Riemann sum's phase, step and prefactor
    psi, gaussians = closed_form_state(delta, which, n)
    rows, shifts = psi.grid.u_values()[::n // 16], range(-2, 3)
    want = np.array([inverse_samples(code.alpha, *gaussians, shift, rows) for shift in shifts])
    got = np.array([[inverse_zak_transform(psi, shift, u) for u in rows] for shift in shifts])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [64, 256])
@closed_form_states
def test_stretch_rescale_matches_the_closed_form(code, n, delta, which):
    # the comb summed over the Gaussians with the new b in its phase and prefactor: pins the
    # rescaled samples and the stretched patch's v nodes
    psi, gaussians = closed_form_state(delta, which, n)
    for b in (2 * psi.patch.a, psi.patch.a / 2, 3.1):
        stretched = stretch_rescale(psi, b)
        want = zak_samples(code.alpha, *gaussians, stretched.grid.u_values(), stretched.grid.v_values(), b=b)
        assert np.max(np.abs(stretched.samples - want)) <= 1e-13 * np.max(np.abs(want))


def relative_error_squared(psi, reference):
    """``||psi - reference||^2 / ||reference||^2`` over the grid samples."""
    return float(np.sum(np.abs(psi.samples - reference.samples) ** 2) / np.sum(np.abs(reference.samples) ** 2))


def test_tail_bound_is_the_error_of_a_table_with_one_point_past_the_window(code):
    # the bulk of the table lies inside the window [u_max - 3a, u_min + 3a] that every
    # row sees at m_max = 3; the one point at m = 4 is seen by no row, so the bound,
    # its share of the norm, is exactly the error that truncation makes
    grid, m_max = code.grid(64, 64), 3
    xs, values = comb_table(grid, 8, m_range=m_max - 1)
    far = grid.u_values()[5] + grid.patch.a * (m_max + 1)
    state = TabulatedState(np.append(xs, far), np.append(values, 1e-6j))
    truncated = zak_transform(state, grid, m_max)
    assert 1e-16 < truncated.tail_bound < 1e-12
    error2 = relative_error_squared(truncated, zak_transform(state, grid, m_max + 1))
    assert error2 == pytest.approx(truncated.tail_bound, rel=0.01)


def test_tail_bound_bounds_the_truncation_error_of_a_displaced_vacuum(code):
    grid = code.grid(64, 64)
    truncated = zak_transform(VacuumState(offset=4.5), grid, 3)
    assert truncated.tail_bound == pytest.approx(5.7e-14, rel=0.01)
    assert relative_error_squared(truncated, zak_transform(VacuumState(offset=4.5), grid, 16)) <= truncated.tail_bound


def test_comb_mass_peaks_at_origin(code):
    grid = code.grid(64, 64)
    psi = zak_transform(GaussianComb(A, 0.1**2, 0.1**-2), grid, 16)
    peak = np.unravel_index(np.argmax(np.abs(psi.samples)), psi.samples.shape)
    assert peak == (grid.u_index(0.0), grid.v_index(0.0))


def test_isometry_against_analytic_norm(code):
    grid = code.grid(256, 256)
    for state in [
        VacuumState(),
        VacuumState(offset=0.7),
        GaussianComb(A, 0.2**2, 0.2**-2),
        GaussianComb(A, 0.4**2, 0.4**-2, offset=ALPHA),
    ]:
        psi = zak_transform(state, grid, 16)
        assert abs(psi.norm_squared() - state.norm_squared()) < 1e-6 * state.norm_squared()


def test_isometry_tabulated_is_exact(code):
    grid = code.grid(64, 64)
    rng = np.random.default_rng(3)
    xs = np.concatenate([grid.u_values() + A * m for m in (-1, 0, 1)])
    values = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
    state = TabulatedState(xs, values)
    psi = zak_transform(state, grid, 4)
    assert psi.norm_squared() == pytest.approx(state.norm_squared(), rel=1e-12)


def test_truncation_bound_reported_and_enforced(code):
    grid = code.grid(64, 64)
    psi = zak_transform(VacuumState(), grid, 16)
    assert psi.tail_bound < 1e-12
    comb = GaussianComb(A, 0.4**2, 0.4**-2)
    with pytest.raises(TruncationError) as err:
        zak_transform(comb, grid, 4)
    # the refused bound is reported: past the tolerance, yet far below 1
    assert err.value.tolerance == 1e-12
    assert 1e-12 < err.value.tail < 1e-3


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_table_half_outside_the_window_is_refused_at_any_scale(code, scale):
    # the point at x = 100 lies past every comb tooth the sum sees; squares of 1e200
    # overflow and those of 1e-200 underflow, yet the share of the norm is exact
    state = TabulatedState([0.0, 100.0], [scale, scale])
    with pytest.raises(TruncationError) as err:
        comb_matrix(state, code.grid(64, 64), 16)
    assert err.value.tail == 0.5


@pytest.mark.parametrize("scale", [1e-200, 1e200, 2.0**1000])
def test_tail_bound_of_a_table_does_not_depend_on_its_scale(code, scale):
    grid = code.grid(64, 64)
    xs, values = comb_table(grid, 5)
    state, scaled = TabulatedState(xs, values), TabulatedState(xs, values * scale)
    assert comb_matrix(scaled, grid, 16).tail_bound == comb_matrix(state, grid, 16).tail_bound == 0.0
    # a window that leaves part of the table out: the same share of the norm
    lo, hi = -1.0, 2.0
    assert 0.0 < state.tail_mass(lo, hi) < 1.0
    assert scaled.tail_mass(lo, hi) == pytest.approx(state.tail_mass(lo, hi), rel=1e-15)
    assert scaled.norm_squared() == pytest.approx(state.norm_squared() * scale * scale, rel=1e-14)


def test_zak_transform_refuses_sums_past_the_float_range(code):
    # two teeth of 1e308 on one comb row sum past the largest float
    state = TabulatedState([0.0, A], [1e308, 1e308])
    with pytest.raises(NonFiniteError, match=r"Zak transform: sample \(\d+, \d+\) is not finite"):
        zak_transform(state, code.grid(64, 64), 16)


def test_inverse_zak_vacuum_values(vac64):
    assert inverse_zak_transform(vac64, 0, 0.0) == pytest.approx(math.pi**-0.25, abs=1e-9)
    expected = math.pi**-0.25 * math.exp(-(A**2) / 2)
    assert inverse_zak_transform(vac64, 1, 0.0) == pytest.approx(expected, abs=1e-9)
    # off the nodes, or past the float range
    for u in (0.1234567, math.inf, math.nan, 1e308):
        with pytest.raises(OffGridError):
            inverse_zak_transform(vac64, 0, u)
        with pytest.raises(OffGridError):
            vac64.value_at(u, 0.0)
        with pytest.raises(OffGridError):
            vac64.value_at(0.0, u)


def test_inverse_zak_transform_takes_a_whole_number_of_periods(vac64):
    # a half period once read the transform at u + a/2 wrongly, with no error
    u = vac64.grid.u_values()[20]
    for n in (1.0, True, "1"):
        assert inverse_zak_transform(vac64, n, u) == inverse_zak_transform(vac64, 1, u)
    for n in (-2.25, 1 + 1e-9):
        with pytest.raises(ValueError, match=f"n must be a whole number of periods, got {n!r}$"):
            inverse_zak_transform(vac64, n, u)


def test_samples_holding_an_int_past_the_float_range_hold_its_infinity(grid64):
    # such an int once raised OverflowError; a ModularWavefunction accepts any samples
    samples = [[0] * grid64.nv for _ in range(grid64.nu)]
    samples[3][5], samples[7][1] = 10**400, -10**400
    psi = ModularWavefunction(grid64, samples)
    assert (psi.samples[3, 5], psi.samples[7, 1]) == (math.inf, -math.inf)
    assert np.count_nonzero(psi.samples) == 2


@pytest.mark.parametrize("axis", ["u", "v"])
def test_a_node_one_period_on_lies_outside_the_patch(vac64, axis):
    # a whole number of cells from the edge, but the cell past the last one
    patch = vac64.patch
    u, v = patch.u_min + (patch.a if axis == "u" else 0.0), patch.v_min + (patch.height if axis == "v" else 0.0)
    with pytest.raises(OffGridError, match=rf"\(from {axis}_min\) lies outside the patch$"):
        vac64.value_at(u, v)


@pytest.mark.contract("narrow-extent")
@pytest.mark.parametrize("axis,found,lost", [("u", 7 * 2**20, 2**24), ("v", 3 * 2**23, 2**25)])
def test_a_default_grid_is_refused_only_once_its_nodes_are_lost(axis, found, lost):
    # every node of the first size is found again; 1,558,690 of the 2**24 u nodes and 2,089,817
    # of the 2**25 v nodes were not, and those grids were once accepted
    shape = (lambda n: (n, 2)) if axis == "u" else (lambda n: (4, n))
    grid = GKPCode().grid(*shape(found))
    start, step = getattr(grid.patch, f"{axis}_min"), getattr(grid, f"d{axis}")
    for k in (1, found // 3, found - 1):
        assert getattr(grid, f"{axis}_index")(start + step * k) == k
    with pytest.raises(ValueError, match=f"^d{axis}=.* is too narrow for the edges"):
        GKPCode().grid(*shape(lost))


@pytest.mark.contract("narrow-extent")
def test_a_default_grid_that_loses_u_nodes_is_refused():
    # 779,344 of its 8,388,608 u nodes were not found again by u_index, yet the grid was accepted
    with pytest.raises(ValueError, match=r"^du=.* is too narrow for the edges"):
        GKPCode().grid(2**23, 2)


def _largest_accepted(grid, multiple):
    """The largest count, a multiple of ``multiple``, for which ``grid(count)`` is accepted."""
    lo, hi = 1, 1 << 40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            grid(mid * multiple)
            lo = mid
        except ValueError:
            hi = mid
    return lo * multiple


@pytest.mark.contract("narrow-extent")
@pytest.mark.parametrize("alpha", [0.5, ALPHA, 1.3], ids=["0.5", "default", "1.3"])
@pytest.mark.parametrize("axis", ["u", "v"])
def test_every_node_of_the_largest_accepted_grids_is_found_again(alpha, axis):
    # the nodes as u_values makes them, s = lo + step*j, found again as _steps does: t = s - lo
    # and n = round(t / step) must give j, within NODE_TOL cells.  Replayed with numpy on the
    # nodes near each binade edge of step*j and of s, at both ends and at random, for the largest
    # counts the rule accepts; no grid is allocated
    code, rng, multiple = GKPCode(alpha), np.random.default_rng(7), 4 if axis == "u" else 2
    shape = (lambda n: (n, 2)) if axis == "u" else (lambda n: (4, n))
    largest = _largest_accepted(lambda n: code.grid(*shape(n)), multiple)
    for count in (largest, largest - multiple, largest // (3 * multiple) * 2 * multiple):
        grid = code.grid(*shape(count))
        lo, step = getattr(grid.patch, f"{axis}_min"), getattr(grid, f"d{axis}")
        edges = 2.0 ** np.arange(-60, 8)
        centres = np.concatenate([edges / step, (edges - lo) / step, (-edges - lo) / step])
        near = (np.rint(centres[:, None]) + np.arange(-32, 33)).ravel()
        j = np.unique(np.concatenate([near, np.arange(4096), count - 1 - np.arange(4096),
                                      rng.integers(0, count, 50_000)]).astype(np.int64))
        j = j[(j >= 0) & (j < count)]
        s = lo + step * j
        t = s - lo
        n = np.rint(t / step)
        lost = j[(n != j) | ~(np.abs(t - n * step) <= NODE_TOL * step)]
        assert lost.size == 0, (count, lost[:5])
        for k in j[::j.size // 20]:  # the replay is the library's own arithmetic
            assert getattr(grid, f"{axis}_index")(lo + step * int(k)) == k


@pytest.mark.parametrize("method,start", [("u_index", "u_min"), ("v_index", "v_min"), ("u_steps", None),
                                          ("v_steps", None)])
@pytest.mark.parametrize("offset,value", [
    pytest.param(0.0, None, id="node"),
    pytest.param(0.5e-9, None, id="half-tol"),
    pytest.param(2e-9, None, id="twice-tol"),
    *(pytest.param(None, x, id=repr(x)) for x in (math.nan, math.inf, -math.inf, 1e308)),
])
def test_one_cell_count_rule_for_nodes_and_shifts(code, method, start, offset, value):
    # within NODE_TOL of a whole number of cells, counted from the patch edge for a coordinate
    grid = code.grid(64, 32)
    step = grid.du if method[0] == "u" else grid.dv
    if value is None:
        value = (getattr(grid.patch, start) if start else 0.0) + (3 + offset) * step
    if offset is not None and offset <= NODE_TOL:
        assert getattr(grid, method)(value) == 3
    else:
        with pytest.raises(OffGridError):
            getattr(grid, method)(value)


def test_inverse_zak_roundtrip_tabulated(code):
    grid = code.grid(64, 64)
    rng = np.random.default_rng(11)
    xs = np.concatenate([grid.u_values() + A * m for m in (-2, -1, 0, 1, 2)])
    values = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
    state = TabulatedState(xs, values)
    psi = zak_transform(state, grid, 8)
    for idx in range(xs.size):
        m, j = divmod(idx, grid.nu)
        recovered = inverse_zak_transform(psi, m - 2, grid.u_values()[j])
        assert recovered == pytest.approx(values[idx], abs=1e-10)


def gauge_gram(code, psi, phi):
    """Gram matrix of the full mode whose gauge components are ``psi`` and ``phi``.

    Its cross entry ``[0, 1]`` is the inner product ``<phi|psi>``.
    """
    mode = SSDState(code, psi, phi).mode
    return _gram(mode, code, ec_phase=False)


def test_inner_product_overlap_of_displaced_vacua(code):
    grid = code.gauge_grid(256, 256)
    psi0 = zak_transform(VacuumState(), grid, 16)
    psi1 = zak_transform(VacuumState(offset=A), grid, 16)
    gram = gauge_gram(code, psi0, psi1)
    assert gram[0, 1] == pytest.approx(math.exp(-(A**2) / 4), abs=1e-9)
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert gram[1, 1] == pytest.approx(1.0, abs=1e-9)


def exact_inner_product(phi, psi):
    """``<phi|psi>`` from math.fsum of the real products, exact up to their rounding."""
    a, b = phi.samples.ravel(), psi.samples.ravel()
    re = math.fsum(np.concatenate([a.real * b.real, a.imag * b.imag]))
    im = math.fsum(np.concatenate([a.real * b.imag, -a.imag * b.real]))
    return complex(re, im) * psi.grid.cell_area


def test_inner_product_matches_exact_sum(code):
    # a sequential sum (BLAS zdotc) drifts by 5e-15 to 7e-15 here
    grid = code.gauge_grid(512, 512)
    psi = zak_transform(approx_codeword(code, 0, 0.1), grid, 32)
    for phi in (psi, apply_X(psi, 5 * grid.du)):
        exact = exact_inner_product(phi, psi)
        assert abs(gauge_gram(code, psi, phi)[0, 1] - exact) <= 1e-15 * abs(exact)


def test_vacuum_mirror_symmetry(vac64, grid64):
    mags = np.abs(vac64.samples)
    for k in range(1, grid64.nv):
        assert np.allclose(mags[:, k], mags[:, grid64.nv - k], atol=1e-12)


def test_stretch_rescale(code, vac64):
    same = stretch_rescale(vac64, A)
    assert np.allclose(same.samples, vac64.samples)
    b = 2 * A
    stretched = stretch_rescale(vac64, b)
    assert stretched.norm_squared() == pytest.approx(vac64.norm_squared(), rel=1e-12)
    assert stretched.grid.patch.b == b
    assert stretched.grid.patch.v_min == pytest.approx(-math.pi / b)


@pytest.mark.parametrize("b", [2 * A, A / 2, 3.1])
@pytest.mark.parametrize(
    "descriptor",
    [VacuumState(offset=0.7), approx_codeword(GKPCode(), 0, 0.3)],
    ids=["displaced-vacuum", "codeword-0.3"],
)
def test_stretch_rescale_matches_direct_transform(code, b, descriptor):
    grid = code.grid(64, 64)
    rescaled = stretch_rescale(zak_transform(descriptor, grid, 16), b)
    old = grid.patch
    patch = ZakPatch(old.a, b, old.u_min, old.v_min * old.b / b)
    direct = zak_transform(descriptor, ZakGrid(patch, grid.nu, grid.nv), 16)
    assert rescaled.grid.patch == patch
    scale = np.max(np.abs(direct.samples))
    assert np.max(np.abs(rescaled.samples - direct.samples)) <= 1e-14 * scale


def test_convention_phase():
    assert convention_phase(0.3, 0.0, "momentum_first") == 1
    assert convention_phase(0.3, 0.0, "opposite") == 1
    u, v = 0.3, -1.1
    assert convention_phase(u, v, "opposite") == pytest.approx(cmath.exp(-1j * u * v))
    assert convention_phase(u, v, "symmetric") == pytest.approx(cmath.exp(-1j * u * v / 2))
    with pytest.raises(ValueError):
        convention_phase(0.0, 0.0, "sideways")
    # an int past the float range once raised OverflowError
    for u, v in ((10**400, 0.0), (0.0, -10**400), (math.nan, 0.0)):
        with pytest.raises(ValueError, match="must be finite"):
            convention_phase(u, v, "opposite")


@pytest.mark.parametrize("u,v", [(0.3, -1.1), (-2.2, 0.7), (ALPHA, math.pi / ALPHA)])
def test_convention_phase_matches_displacement_orderings(u, v):
    # the three orderings of a position shift by u and a momentum kick by v,
    # acting on a wavefunction in position space
    f = VacuumState(offset=0.4).evaluate
    x = np.linspace(-6.0, 6.0, 241)
    translate_then_multiply = np.exp(1j * v * x) * f(x - u)
    multiply_then_translate = np.exp(1j * v * (x - u)) * f(x - u)
    weyl = np.exp(1j * v * (x - u / 2)) * f(x - u)
    for variant, convention in [(multiply_then_translate, "opposite"), (weyl, "symmetric")]:
        expected = convention_phase(u, v, convention) * translate_then_multiply
        assert np.max(np.abs(variant - expected)) <= 1e-15 * np.max(np.abs(variant))


def test_ideal_state_canonicalization_merges_and_phases():
    # dyadic patch so the wrapped coordinate reduces to exactly 0.25 and the
    # two contributions merge onto one key
    patch = ZakPatch(4.0)
    v0 = 0.375
    state = IdealZakState(patch, [((0.25, v0), 1.0), ((0.25 + 4.0, v0), 1.0)])
    assert len(state.points) == 1
    weight = next(iter(state.points.values()))
    assert weight == pytest.approx(1.0 + cmath.exp(-1j * 4.0 * v0), abs=1e-12)
    assert state.norm() == pytest.approx(abs(weight))


@pytest.mark.contract("patch-equality")
def test_patches_and_grids_match_within_1e_12_and_do_not_hash(code):
    patch = code.full_patch()
    assert patch == ZakPatch(patch.a * (1 + 5e-13), patch.b, patch.u_min, patch.v_min)
    assert patch != ZakPatch(patch.a * (1 + 5e-12), patch.b, patch.u_min, patch.v_min)
    assert patch != code.gauge_patch() and patch != patch.a
    assert code.grid(64, 64) == ZakGrid(patch, 64, 64) != code.grid(64, 32)
    assert ZakPatch.__hash__ is None and ZakGrid.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(patch)


def test_grid_validation(code):
    patch = code.full_patch()
    with pytest.raises(ValueError):
        ZakGrid(patch, 62, 64)
    with pytest.raises(ValueError):
        ZakGrid(patch, 64, 63)
    with pytest.raises(ValueError):
        ZakPatch(-1.0)
    with pytest.raises(ValueError):
        ZakPatch(1.0, b=0.0)
    with pytest.raises(ValueError):
        zak_transform(VacuumState(), code.grid(64, 64), 0)


def test_wavefunction_samples_are_frozen(vac64):
    with pytest.raises(ValueError):
        vac64.samples[0, 0] = 1.0


def test_zak_transform_on_stretched_patch(code):
    # prefactor sqrt(b/2pi) and phases exp(-i b m v) with independent b
    patch = code.gauge_patch()  # (a, b) = (alpha, 2 alpha)
    grid = ZakGrid(patch, 16, 16)
    psi = zak_transform(VacuumState(), grid, 24)
    state = VacuumState()
    for j, k in [(0, 0), (3, 11), (8, 8), (15, 1)]:
        u = grid.u_values()[j]
        v = grid.v_values()[k]
        direct = 0j
        for m in range(-24, 25):
            direct += cmath.exp(-1j * patch.b * m * v) * complex(
                state.evaluate(np.array(u + patch.a * m))
            )
        direct *= math.sqrt(patch.b / (2 * math.pi))
        assert psi.samples[j, k] == pytest.approx(direct, abs=1e-13)


def dense_comb_terms(comb, x):
    """Every tooth's term at every ``x`` (the sum GaussianComb used before windowing)."""
    d = x[..., None] - comb._centers
    return np.exp(-(d * d) / (2 * comb.tooth_variance))


def transform_points(grid, m_max):
    """The abscissae ``u_j + a m`` that :func:`zak_transform` evaluates."""
    m = np.arange(-m_max, m_max + 1)
    return grid.u_values()[:, None] + grid.patch.a * m[None, :]


@pytest.mark.parametrize("delta,window", [(0.1, 1), (0.4, 1), (0.5, 2), (1.0, 3), (2.0, 7)])
def test_comb_window_width(delta, window):
    assert GaussianComb(A, delta**2, delta**-2)._window == window


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("delta", [0.05, 0.1, 0.3, 0.5, 1.0, 2.0])
def test_windowed_comb_matches_dense_sum(code, delta, ell):
    comb = approx_codeword(code, ell, delta)
    grid, m_max = code.grid(64, 64), 40
    x = transform_points(grid, m_max)
    envelope = np.exp(-(x * x) / (2 * comb.envelope_variance))
    terms = dense_comb_terms(comb, x)
    dense = comb.amplitude * terms.sum(axis=-1) * envelope
    windowed = comb.evaluate(x)
    assert np.max(np.abs(windowed - dense)) <= 2e-15 * np.max(np.abs(dense))

    # the teeth the window leaves out, summed on their own (not as a rounded
    # difference of two sums), must carry no more mass than tail_bound admits
    n = comb._centers.size // 2
    nearest = np.clip(np.rint((x - comb.offset) / comb.spacing), -n, n)
    teeth = np.arange(-n, n + 1)
    outside = np.abs(teeth - nearest[..., None]) > comb._window
    omitted = comb.amplitude * (terms * outside).sum(axis=-1) * envelope
    omitted_mass = float(np.sum(omitted**2)) * grid.du
    psi = zak_transform(comb, grid, m_max)
    assert psi.tail_bound >= omitted_mass
    assert psi.tail_bound < 1e-12
    if delta == 1.0:  # wide teeth under a wide envelope: the check is not vacuous
        assert omitted_mass > 0


def test_comb_whose_window_root_overflows_holds_every_tooth(code):
    # delta = 2.5e153: the tooth ratio r is about 2e-306, so 4 * WINDOW_EXPONENT / r
    # overflows; the window then holds every tooth rather than raising OverflowError
    comb = approx_codeword(code, 0, 2.5e153)
    assert comb._window == comb._centers.size - 1 and comb._window_ratio == 0.0


@pytest.mark.parametrize(
    "alpha,delta",
    [(2.5e153, None), (ALPHA, 2.5e153), (2.5e153, 2.5e153)],
    ids=["vacuum-huge-alpha", "comb-huge-delta", "comb-huge-alpha-and-delta"],
)
def test_far_out_values_are_zero_without_an_overflow_warning(alpha, delta):
    # (u + a m)^2 of the vacuum at alpha = 2.5e153, x^2 / (2 delta^-2) of the comb at
    # delta = 2.5e153, and the comb's squared tooth distances in tail_mass at both,
    # overflow only where the exponential is 0
    code = GKPCode(alpha)
    descriptor = VacuumState() if delta is None else approx_codeword(code, 1, delta)
    comb = comb_matrix(descriptor, code.grid(8, 8), 16)
    assert np.isfinite(comb.values).all()


def test_windowed_comb_evaluates_scalars_and_far_points():
    comb = GaussianComb(A, 0.3**2, 0.3**-2)
    x = np.array([0.0, 0.4 * A, 1e3, -1e3])
    dense = comb.amplitude * dense_comb_terms(comb, x).sum(axis=-1) * np.exp(
        -(x * x) / (2 * comb.envelope_variance)
    )
    assert np.array_equal(comb.evaluate(x), dense)
    assert comb.evaluate(0.0) == dense[0]
    assert np.shape(comb.evaluate(0.0)) == ()


# a comb matrix built by hand once failed later, deep inside the maps or numpy
@pytest.mark.contract("kind-rule")
@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(lambda code, comb: logical_from_overlap(CombMatrix(comb.grid, comb.values.tolist(), comb.m, 0.0), code),
                     "CombMatrix takes values as an array, not a list$", id="values-list"),
        pytest.param(lambda code, comb: CombMatrix(comb.grid, comb.values[:, :-1], comb.m, 0.0),
                     r"values must be float64 or complex128 of shape \(16, 9\), got float64 of shape \(16, 8\)$",
                     id="values-narrow"),
        pytest.param(lambda code, comb: CombMatrix(comb.grid, comb.values.astype(int), comb.m, 0.0),
                     r"values must be float64 or complex128 of shape \(16, 9\), got int64 of shape \(16, 9\)$",
                     id="values-int"),
        pytest.param(lambda code, comb: CombMatrix(comb.grid, comb.values, "ab", 0.0),
                     "CombMatrix takes m as an array, not a str$", id="m-str"),
        pytest.param(lambda code, comb: CombMatrix(comb.grid, comb.values, comb.m[None], 0.0),
                     r"the comb's m must be 1-d and finite, got array\(\[\[-4", id="m-2d"),
    ],
)
def test_a_hand_built_comb_matrix_is_refused_at_the_entry(code, build, message):
    comb = comb_matrix(VacuumState(), code.grid(16, 16), 4)
    with pytest.raises(ValueError, match=message):
        build(code, comb)


def test_caller_array_is_copied(grid64):
    raw = np.ones((64, 64), dtype=np.complex128)
    psi = ModularWavefunction(grid64, raw)
    raw[0, 0] = 5.0
    assert psi.samples[0, 0] == 1.0
    assert not np.shares_memory(psi.samples, raw)
    # a read-only view does not protect memory the caller can still write
    view = raw.view()
    view.flags.writeable = False
    assert not np.shares_memory(ModularWavefunction(grid64, view).samples, raw)
    # nor does a read-only array over a mutable buffer
    buffer = bytearray(raw.nbytes)
    flat = np.frombuffer(buffer, dtype=np.complex128)
    flat.flags.writeable = False
    over = flat.reshape(64, 64)
    assert not np.shares_memory(ModularWavefunction(grid64, over).samples, over)


def test_library_results_are_read_only(code, tmp_path):
    grid = code.grid(64, 64)
    psi = zak_transform(approx_codeword(code, 0, 0.3), grid, 16)
    split = to_ssd(psi, code)
    shifted = apply_X_ssd(apply_Z_ssd(split, 2 * grid.dv), 3 * grid.du)
    save_grid_binary(psi, tmp_path / "psi.bin")
    save_grid_csv(psi, tmp_path / "psi.csv")
    results = {
        "zak_transform": psi,
        "apply_phase_u": apply_phase_u(psi, 0.3),
        "apply_phase_v": apply_phase_v(psi, 0.3),
        "apply_translate_u": apply_translate_u(psi, 3 * grid.du),
        "apply_translate_v": apply_translate_v(psi, -2 * grid.dv),
        "apply_X": apply_X(psi, 5 * grid.du),
        "apply_Z": apply_Z(psi, 5 * grid.dv),
        "normalized": psi.normalized(),
        "stretch_rescale": stretch_rescale(psi, 2 * psi.patch.b),
        "to_ssd": split.gamma[0],
        "apply_X_ssd": shifted.gamma[1],
        "from_ssd": from_ssd(shifted),
        "pp_bridge_inverse": pp_bridge_inverse(pp_bridge(shifted)).gamma[0],
        "load_grid_binary": load_grid_binary(tmp_path / "psi.bin"),
        "load_grid_csv": load_grid_csv(tmp_path / "psi.csv"),
    }
    for name, result in results.items():
        assert not result.samples.flags.writeable, name


def test_to_ssd_shares_memory_with_the_state(code):
    psi = zak_transform(approx_codeword(code, 1, 0.3), code.grid(64, 64), 16)
    split = to_ssd(psi, code)
    for gamma in split.gamma:
        assert np.shares_memory(gamma.samples, psi.samples)
    # and from_ssd adopts the array whose halves they are
    back = from_ssd(split)
    assert np.shares_memory(back.samples, psi.samples)
    assert not back.samples.flags.writeable
    assert np.array_equal(back.samples, psi.samples)


def test_from_ssd_copies_components_it_cannot_adopt(code):
    gauge = code.gauge_grid(32, 64)
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    # independent frozen arrays, one half of a split beside an independent
    # array, a split's halves in swapped order, and one half twice
    top, bottom = np.array(raw[:32]), np.array(raw[32:])
    top.flags.writeable = bottom.flags.writeable = False
    psi = ModularWavefunction(code.grid(64, 64), raw)
    split = [gamma.samples for gamma in to_ssd(psi, code).gamma]
    cases = [(top, bottom), (split[0], bottom), (top, split[1]), split[::-1], [split[1]] * 2]
    for first, second in cases:
        gamma = [ModularWavefunction(gauge, half) for half in (first, second)]
        back = from_ssd(SSDState(code, *gamma))
        assert np.array_equal(back.samples, np.vstack([first, second]))
        assert not any(np.shares_memory(back.samples, half) for half in (first, second))
    # the halves of a caller's writeable array, even behind a read-only view, are never adopted
    view = raw.view()
    view.flags.writeable = False
    for parent in (raw, view):
        gamma = [ModularWavefunction(gauge, half) for half in (parent[:32], parent[32:])]
        back = from_ssd(SSDState(code, *gamma))
        assert not np.shares_memory(back.samples, raw)
        assert np.array_equal(back.samples, raw)


def test_zak_transform_allocates_little_beyond_its_result(code):
    grid = code.grid(512, 512)
    comb = approx_codeword(code, 0, 0.1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        psi = zak_transform(comb, grid, 16)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert psi.samples.nbytes == 512 * 512 * 16
    assert peak <= 1.5 * psi.samples.nbytes


@pytest.mark.parametrize("nu,nv", [(64, 64), (68, 16), (260, 100)])
def test_blocked_contraction_matches_one_complex_product(code, nu, nv):
    # the reference: every m column, no flush, one complex product over all rows
    grid = code.grid(nu, nv)
    m = np.arange(-16, 17)
    phases = np.exp(-1j * grid.patch.b * np.outer(m, grid.v_values()))
    x = grid.u_values()[:, None] + grid.patch.a * m[None, :]
    table = TabulatedState(*comb_table(grid, nu))
    for descriptor in (VacuumState(), VacuumState(0.7), approx_codeword(code, 0, 0.3),
                       approx_codeword(code, 1, 0.5), table):
        reference = np.asarray(descriptor.evaluate(x), dtype=np.complex128) @ phases
        reference *= math.sqrt(grid.patch.b / (2 * math.pi))
        got = zak_transform(descriptor, grid, 16).samples
        # a few ulp of the largest sample: the BLAS may order the sums differently
        assert np.max(np.abs(got - reference)) <= 4 * np.finfo(float).eps * np.max(np.abs(reference))
    # the vacuum's outer teeth underflow: their columns are flushed and dropped
    comb = comb_matrix(VacuumState(), grid, 16)
    assert comb.values.dtype == np.float64 and comb.values.shape[1] < 33
    assert comb.phases.shape == (comb.values.shape[1], nv)
    assert comb_matrix(table, grid, 16).values.dtype == np.complex128


@pytest.mark.parametrize(
    "build,name",
    [
        pytest.param(lambda: GKPCode(alpha=math.inf), "alpha", id="code-inf-alpha"),
        pytest.param(lambda: approx_codeword(GKPCode(), 0, math.nan), "delta", id="nan-delta"),
        # finite deltas whose variance delta^2 or delta^-2 overflows
        pytest.param(lambda: approx_codeword(GKPCode(), 0, 1e300), "delta", id="huge-delta"),
        pytest.param(lambda: approx_codeword(GKPCode(), 1, 1e-300), "delta", id="tiny-delta"),
        # finite variances that leave no tooth ratio, an infinite reach or too many teeth
        pytest.param(lambda: approx_codeword(GKPCode(), 0, 1e154), "tooth_variance", id="wide-teeth"),
        pytest.param(lambda: approx_codeword(GKPCode(), 1, 1e-154), "envelope_variance",
                     id="unbounded-envelope"),
        pytest.param(lambda: approx_codeword(GKPCode(), 0, 0.009), "MAX_TEETH", id="below-cap-delta"),
        # the default v_min -pi/b overflows
        pytest.param(lambda: ZakPatch(1e-320), "v_min", id="patch-tiny-a"),
        pytest.param(lambda: GKPCode(alpha=1e-320).full_patch(), "v_min", id="code-tiny-alpha"),
        pytest.param(lambda: ZakPatch(math.nan), "period a", id="patch-nan-a"),
        pytest.param(lambda: ZakPatch(1.0, b=math.inf), "period parameter b", id="patch-inf-b"),
        pytest.param(lambda: ZakPatch(1.0, u_min=math.inf), "u_min", id="patch-inf-u-min"),
        pytest.param(lambda: ZakPatch(1.0, v_min=math.nan), "v_min", id="patch-nan-v-min"),
        pytest.param(lambda: VacuumState(math.nan), "offset", id="vacuum-nan-offset"),
        pytest.param(lambda: TabulatedState([0.0, math.nan], [1.0, 1.0]), "xs", id="table-nan-x"),
        pytest.param(lambda: TabulatedState([0.0, 1.0], [1.0, math.nan]), "values", id="table-nan-value"),
        # a period so long that spacing^2 / (2 tooth_variance) overflows, or the
        # norm's pairwise integrals overflow or (every tooth far out in the
        # envelope) underflow to 0
        pytest.param(lambda: approx_codeword(GKPCode(alpha=1e200), 0, 0.3), "spacing",
                     id="comb-spacing-squared-overflows"),
        pytest.param(lambda: approx_codeword(GKPCode(alpha=6e153), 0, 0.3), "spacing",
                     id="comb-tooth-ratio-overflows"),
        pytest.param(lambda: approx_codeword(GKPCode(alpha=2.5e153), 1, 0.3), "spacing",
                     id="comb-norm-overflows"),
        pytest.param(lambda: approx_codeword(GKPCode(alpha=100.0), 1, 0.3), "spacing",
                     id="comb-norm-underflows"),
        pytest.param(lambda: GaussianComb(math.nan, 0.04, 25.0), "spacing", id="comb-nan-spacing"),
        pytest.param(lambda: GaussianComb(A, 0.04, math.inf), "envelope_variance",
                     id="comb-inf-envelope"),
        pytest.param(lambda: GaussianComb(A, 0.04, 25.0, offset=math.inf), "offset",
                     id="comb-inf-offset"),
    ],
)
def test_constructors_reject_non_finite_input(build, name):
    with pytest.raises(ValueError, match=name):
        build()


def test_tooth_cap_admits_delta_0_01_and_refuses_before_allocating(code):
    for ell in (0, 1):
        assert approx_codeword(code, ell, 0.01)._centers.size <= MAX_TEETH
        assert approx_codeword(code, ell, 0.0091)._centers.size <= MAX_TEETH
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_TEETH"):
            approx_codeword(code, 1, 1e-6)  # about 1e7 teeth
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize(
    "owner,name",
    [
        ("zakgkp", "apply_phase_u_unrestricted"),
        ("zakgkp.operators", "apply_phase_u_unrestricted"),
        ("zakgkp.gridio", "atomic_write_bytes"),
        ("zakgkp.gkp", "_as_mixture"),
        ("ModularWavefunction", "scaled"),
        ("IdealZakState", "scaled"),
        ("ZakPatch", "contains"),
        ("ZakPatch", "is_standard"),
        ("zakgkp.core", "ExtendedValue"),
        ("GKPCode", "dim"),
        ("GKPCode", "spacing"),
        ("zakgkp.core", "inner_product"),
        ("zakgkp.core", "ideal_state_overlap"),
        ("zakgkp.core", "evaluate_extended"),
        ("zakgkp.operators", "modular_expectations"),
        ("SSDState", "gauge_grid"),
        ("SSDState", "points"),
        ("SSDState", "norm"),
        ("SSDState", "norm_squared"),
        ("ZakPatch", "area"),
        ("IdealZakState", "__len__"),
        ("MixtureState", "__len__"),
        ("ZakPatch", "approx_equal"),
        ("ZakGrid", "compatible"),
        ("zakgkp.ssd", "save_ssd"),
        ("zakgkp.ssd", "load_ssd"),
        ("zakgkp.ssd", "IdealSSDState"),
        ("zakgkp.core", "vacuum"),
        ("zakgkp.core", "gaussian_comb"),
        ("zakgkp.core", "tabulated"),
        ("ZakGrid", "origin_index"),
    ],
)
def test_removed_names_are_gone(owner, name):
    target = getattr(zakgkp, owner) if owner[0].isupper() else importlib.import_module(owner)
    assert not hasattr(target, name)
    assert not hasattr(zakgkp, name)
    assert name not in getattr(target, "__all__", ())


@pytest.mark.parametrize(
    "function,option",
    [
        (IdealZakState, "canonicalize"),
        (IdealZakState.value_at, "atol"),
        (ZakPatch.__eq__, "rtol"),
        (LogicalQubit.from_unnormalized, "herm_tol"),
        (LogicalQubit.from_unnormalized, "psd_tol"),
        (apply_translate_u, "interpolate"),
        (apply_translate_v, "interpolate"),
        (apply_X, "interpolate"),
        (apply_Z, "interpolate"),
        (GKPCode, "dim"),
        (zak_transform, "tail_tol"),
        (TabulatedState, "step"),
    ],
)
def test_removed_options_are_gone(function, option):
    assert option not in inspect.signature(function).parameters
