import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import ALPHA, closed_form_state, closed_form_states, random_state, traced
from erf_reference import pp_coefficients
from zakgkp import (
    GridMismatchError,
    SSDState,
    IdealZakState,
    MixtureState,
    ModularWavefunction,
    PPGaugeModes,
    apply_phase_u,
    apply_X,
    apply_X_ssd,
    apply_Z,
    apply_Z_ssd,
    GKPCode,
    VacuumState,
    approx_codeword,
    codeword,
    ec_channel_logical,
    ec_gauge_trace,
    from_ssd,
    gauge_trace,
    logical_from_overlap,
    pp_bridge,
    pp_bridge_inverse,
    to_ssd,
    zak_transform,
)
from zakgkp.core import comb_matrix
from zakgkp.gridio import load_grid_binary, save_grid_binary

A = 2 * ALPHA


def gauge_state(code, seed, nu=32, nv=64):
    return to_ssd(random_state(code.grid(nu, nv), seed), code)


def ideal_gauge(code, points):
    return IdealZakState(code.gauge_patch(), points)


# --- change of basis ---------------------------------------------------------


def test_to_from_ssd_is_bitwise_identity(code, grid64):
    psi = random_state(grid64, 21)
    back = from_ssd(to_ssd(psi, code))
    assert np.array_equal(back.samples, psi.samples)
    assert back.grid == psi.grid


def test_to_ssd_norm_split(code, grid64):
    psi = random_state(grid64, 22)
    s = to_ssd(psi, code)
    assert s.mode.norm_squared() == pytest.approx(psi.norm_squared(), rel=1e-14)
    # state supported on the left half has an empty logical-1 component
    samples = np.array(psi.samples)
    samples[32:, :] = 0
    left = ModularWavefunction(grid64, samples)
    s_left = to_ssd(left, code)
    assert np.all(s_left.gamma[1].samples == 0)


def test_ideal_codeword_splits_as_product(code):
    for ell in (0, 1):
        s = to_ssd(codeword(code, ell), code)
        assert s.gamma[ell].points == {(0.0, 0.0): 1 + 0j}
        assert s.gamma[1 - ell].points == {}
        back = from_ssd(s)
        assert back.points == codeword(code, ell).points


def test_from_ssd_places_gauge_points(code):
    v0 = 0.3
    s = SSDState(code, ideal_gauge(code, {}), ideal_gauge(code, {(0.0, v0): 1.0}))
    full = from_ssd(s)
    assert full.value_at(ALPHA, v0) == 1

    s = SSDState(code, ideal_gauge(code, {(0.125, v0): 0.5j}), ideal_gauge(code, {}))
    assert from_ssd(s).value_at(0.125, v0) == 0.5j


def test_alternate_form_of_change_of_basis(code):
    # |u,v> = exp(2 i v [u]_alpha) |[u]/alpha>_L (x) |u,v>_G with the raw
    # (uncanonicalized) gauge coordinate reproduces the unphased split
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.uniform(-ALPHA / 2, 3 * ALPHA / 2)
        v = rng.uniform(-math.pi / (2 * ALPHA), math.pi / (2 * ALPHA))
        ell = 0 if u < ALPHA / 2 else 1
        phase = cmath.exp(2j * v * ALPHA * ell)
        sectors = [{}, {}]
        sectors[ell] = {(u, v): phase}
        via_alternate = from_ssd(SSDState(code, ideal_gauge(code, sectors[0]), ideal_gauge(code, sectors[1])))
        direct = IdealZakState(code.full_patch(), {(u, v): 1.0})
        assert via_alternate.value_at(u, v) == pytest.approx(
            direct.value_at(u, v), abs=1e-12
        )
        assert len(via_alternate.points) == 1


def test_ssd_state_is_its_full_mode_state(code, grid64):
    # to_ssd wraps the state itself, so from_ssd hands back that very state
    psi = random_state(grid64, 24)
    ideal = IdealZakState(code.full_patch(), {(ALPHA + 0.1, 0.2): 1.0, (-0.3, 0.1): 0.5j})
    for state in (psi, ideal, codeword(code, 1)):
        s = to_ssd(state, code)
        assert type(s) is SSDState and s.mode is state and from_ssd(s) is state
        assert s.mode.norm_squared() == state.norm_squared()


def test_from_ssd_of_an_ideal_split_keeps_its_points_bit_for_bit(code):
    # the split moves no point of the mode, and from_ssd returns the mode
    rng = np.random.default_rng(25)
    points = {(float(u), float(v)): complex(w)
              for u, v, w in zip(rng.uniform(-ALPHA / 2, 3 * ALPHA / 2, 40),
                                 rng.uniform(-math.pi / ALPHA, math.pi / ALPHA, 40),
                                 rng.normal(size=40))}
    state = IdealZakState(code.full_patch(), points)
    assert from_ssd(to_ssd(state, code)).points == state.points


def test_ssd_components_must_match_in_kind_and_patch(code):
    grid = code.gauge_grid(16, 32)
    wave = ModularWavefunction(grid, np.ones((16, 32)))
    ideal = IdealZakState(code.gauge_patch(), {(0.0, 0.0): 1.0})
    for pair in ((wave, ideal), (ideal, wave)):
        with pytest.raises(TypeError, match="both be grid states or both ideal states"):
            SSDState(code, *pair)
    # either component on a foreign patch is refused, grid or ideal
    foreign = IdealZakState(code.full_patch(), {(0.0, 0.0): 1.0})
    other = ModularWavefunction(GKPCode(alpha=1.0).gauge_grid(16, 32), np.ones((16, 32)))
    for pair in ((ideal, foreign), (foreign, ideal), (wave, other), (other, wave)):
        with pytest.raises(GridMismatchError):
            SSDState(code, *pair)
    with pytest.raises(GridMismatchError, match="different grids"):
        SSDState(code, wave, ModularWavefunction(code.gauge_grid(16, 16), np.ones((16, 16))))


def test_to_ssd_rejects_foreign_patch(code):
    psi = random_state(code.grid(64, 64), 1)
    from zakgkp import GKPCode

    with pytest.raises(GridMismatchError):
        to_ssd(psi, GKPCode(alpha=1.0))


def test_to_ssd_rejects_a_grid_whose_halves_are_not_grids(code):
    # refused by to_ssd itself, before anything reads the gauge components
    psi = ModularWavefunction(code.grid(12, 8), np.ones((12, 8)))
    with pytest.raises(ValueError, match="nu must be a positive multiple of 4, got 6"):
        to_ssd(psi, code)


# --- gauge traces ------------------------------------------------------------


def test_gauge_trace_of_codewords(code):
    q = gauge_trace(to_ssd(codeword(code, 0), code))
    assert np.array_equal(q.matrix, np.array([[1, 0], [0, 0]], dtype=complex))
    q = gauge_trace(to_ssd(codeword(code, 1), code))
    assert np.array_equal(q.matrix, np.array([[0, 0], [0, 1]], dtype=complex))


def test_product_state_traces_to_pure_qubit(code):
    # |psi>_L (x) rho_G with rho_G a mixture of two gauge states stays pure
    c0, c1 = 0.6, 0.8j
    components = []
    for v_g, prob in [(0.0, 0.3), (0.25, 0.7)]:
        pts0 = {(0.0, v_g): c0}
        pts1 = {(0.0, v_g): c1}
        components.append((prob, SSDState(code, ideal_gauge(code, pts0), ideal_gauge(code, pts1))))
    q = gauge_trace(MixtureState(components))
    expected = np.array([[c0 * c0.conjugate(), c0 * c1.conjugate()],
                         [c1 * c0.conjugate(), c1 * c1.conjugate()]], dtype=complex)
    assert np.allclose(q.matrix, expected, atol=1e-12)
    assert q.purity == pytest.approx(1.0, abs=1e-12)


def test_gauge_trace_matches_overlap_route(code, corpus_256):
    # one Gram kernel: each trace and its overlap map agree bit for bit
    pairs = [(psi, to_ssd(psi, code)) for psi in [*corpus_256.values(), codeword(code, 0), codeword(code, 1)]]
    mix = [(0.3, corpus_256["vacuum"]), (0.7, corpus_256["gkp-approx:0.3:1"])]
    pairs.append((MixtureState(mix), MixtureState([(p, to_ssd(psi, code)) for p, psi in mix])))
    for rho, split in pairs:
        for trace, overlap in ((gauge_trace, logical_from_overlap), (ec_gauge_trace, ec_channel_logical)):
            q_trace, q_overlap = trace(split), overlap(rho, code)
            assert np.array_equal(q_trace.matrix, q_overlap.matrix)
            assert q_trace.raw_trace == q_overlap.raw_trace


def test_ec_gauge_trace_equals_plain_on_diagonal_states(code):
    mix = MixtureState([(0.3, to_ssd(codeword(code, 0), code)),
                        (0.7, to_ssd(codeword(code, 1), code))])
    assert np.array_equal(gauge_trace(mix).matrix, ec_gauge_trace(mix).matrix)


def test_ec_gauge_trace_undoes_small_shifts(code, grid64):
    ut = grid64.u_values()[20]
    vt = grid64.v_values()[9]
    for ell in (0, 1):
        corrupted = apply_X(apply_Z(codeword(code, ell), vt), ut)
        q = ec_gauge_trace(to_ssd(corrupted, code))
        expected = np.zeros((2, 2), dtype=complex)
        expected[ell, ell] = 1
        assert np.allclose(q.matrix, expected, atol=1e-12)
        assert q.matrix[0, 1] == 0 and q.matrix[1, 0] == 0


def test_plain_trace_shows_rotated_off_diagonals(code):
    vt = 0.21
    ut = 0.3 * ALPHA
    plus = IdealZakState(
        code.full_patch(),
        {(0.0, 0.0): 1 / math.sqrt(2), (ALPHA, 0.0): 1 / math.sqrt(2)},
    )
    corrupted = apply_X(apply_Z(plus, vt), ut)
    q = gauge_trace(to_ssd(corrupted, code))
    # the logical-1 amplitude carries exp(i alpha v~), so rho_10 rotates by it
    assert q.matrix[1, 0] == pytest.approx(0.5 * cmath.exp(1j * ALPHA * vt), abs=1e-12)
    q_ec = ec_gauge_trace(to_ssd(corrupted, code))
    assert q_ec.matrix[1, 0] == pytest.approx(0.5, abs=1e-12)


def test_ec_gauge_trace_matches_channel(code, corpus_256):
    for psi in (corpus_256["gkp-approx:0.2:0"], codeword(code, 0), codeword(code, 1)):
        q1 = ec_gauge_trace(to_ssd(psi, code))
        q2 = ec_channel_logical(psi, code)
        assert np.array_equal(q1.matrix, q2.matrix)
        assert q1.raw_trace == q2.raw_trace


# --- shifts in the decomposed picture ---------------------------------------


def test_apply_z_ssd_on_codeword(code, grid64):
    t = grid64.v_values()[37]
    for ell in (0, 1):
        s = to_ssd(codeword(code, ell), code)
        out = apply_Z_ssd(s, t)
        expected = cmath.exp(1j * ALPHA * ell * t)
        assert out.gamma[ell].points[(0.0, t)] == pytest.approx(expected, abs=1e-12)
        assert out.gamma[1 - ell].points == {}


def test_apply_x_ssd_examples(code):
    s = to_ssd(codeword(code, 0), code)
    flipped = apply_X_ssd(s, ALPHA)
    assert flipped.gamma[1].points == {(0.0, 0.0): 1 + 0j}
    small = apply_X_ssd(s, ALPHA / 4)
    assert small.gamma[0].points[(ALPHA / 4, 0.0)] == 1
    assert small.gamma[1].points == {}

    # wrap: gauge point at 3 alpha / 8 pushed past the half-patch boundary
    start = SSDState(code, ideal_gauge(code, {(3 * ALPHA / 8, 0.0): 1.0}), ideal_gauge(code, {}))
    wrapped = apply_X_ssd(start, ALPHA / 4)
    assert wrapped.gamma[0].points == {}
    assert wrapped.gamma[1].points[(-3 * ALPHA / 8, 0.0)] == pytest.approx(1.0, abs=1e-12)


def test_ssd_shifts_match_full_mode_route(code):
    grid = code.grid(64, 64)
    for seed in range(5):
        psi = random_state(grid, 30 + seed)
        s = to_ssd(psi, code)
        for t in (0.0, grid.du, 9 * grid.du, ALPHA / 4, ALPHA, ALPHA + 5 * grid.du,
                  -ALPHA / 2, 2 * ALPHA, -3 * ALPHA + grid.du, 7 * ALPHA):
            via_ssd = from_ssd(apply_X_ssd(s, t))
            direct = apply_X(psi, t)
            assert np.max(np.abs(via_ssd.samples - direct.samples)) < 1e-10
        for t in (0.0, grid.dv, 11 * grid.dv, math.pi / ALPHA, -5 * grid.dv):
            via_ssd = from_ssd(apply_Z_ssd(s, t))
            direct = apply_Z(psi, t)
            assert np.max(np.abs(via_ssd.samples - direct.samples)) < 1e-10


def test_ssd_shifts_match_full_mode_route_ideal(code, grid64):
    u0, v0 = grid64.u_values()[50], grid64.v_values()[13]
    state = IdealZakState(code.full_patch(), {(u0, v0): 1.0, (0.0, 0.0): 0.5j})
    s = to_ssd(state, code)
    for t in (ALPHA / 4, ALPHA, -ALPHA / 2, 2 * ALPHA + ALPHA / 8):
        via_ssd = from_ssd(apply_X_ssd(s, t))
        direct = apply_X(state, t)
        for point, w in direct.items():
            assert via_ssd.value_at(*point) == pytest.approx(w, abs=1e-10)


def test_from_ssd_of_a_split_allocates_nothing(code):
    psi = random_state(code.grid(512, 512), 62)
    split = to_ssd(psi, code)
    back, peak, _ = traced(lambda: from_ssd(split))
    assert np.array_equal(back.samples, psi.samples)
    assert peak <= 0.01 * psi.samples.nbytes


def test_ssd_state_joins_its_components_in_one_array(code):
    # the components constructor stacks once: no allocation beyond the mode
    gauge = code.gauge_grid(256, 512)
    top, bottom = (random_state(gauge, seed) for seed in (66, 67))
    s, peak, _ = traced(lambda: SSDState(code, top, bottom))
    assert np.array_equal(s.mode.samples, np.vstack([top.samples, bottom.samples]))
    assert all(np.shares_memory(g.samples, s.mode.samples) for g in s.gamma)
    assert peak <= 1.1 * s.mode.samples.nbytes


def test_bridge_and_loaded_splits_are_views_of_one_mode(code, tmp_path):
    # neither the bridge's resynthesis nor the split of a loaded state is copied back
    psi = random_state(code.grid(64, 64), 68)
    save_grid_binary(psi, tmp_path / "psi.bin")
    loaded = load_grid_binary(tmp_path / "psi.bin")
    for x in (pp_bridge_inverse(pp_bridge(to_ssd(psi, code))), to_ssd(loaded, code)):
        full = from_ssd(x).samples
        assert all(np.shares_memory(full, gamma.samples) for gamma in x.gamma)
        assert not full.flags.writeable
    assert np.shares_memory(from_ssd(to_ssd(loaded, code)).samples, loaded.samples)


@pytest.mark.parametrize("steps", [3, -5, 300])
def test_apply_x_ssd_allocates_little_beyond_its_result(code, steps):
    # the full mode is the split's own array, so only the shifted result is new
    grid = code.grid(512, 512)
    s = to_ssd(random_state(grid, 61), code)
    shifted, peak, _ = traced(lambda: apply_X_ssd(s, steps * grid.du))
    nbytes = 512 * 512 * 16
    assert shifted.gamma[0].samples.nbytes + shifted.gamma[1].samples.nbytes == nbytes
    assert peak <= 1.1 * nbytes


@pytest.mark.parametrize("steps", [3, -5, 700])
def test_apply_z_ssd_allocates_little_beyond_its_result(code, steps):
    # only the kicked result, phased as it is written
    grid = code.grid(512, 512)
    s = to_ssd(random_state(grid, 64), code)
    kicked, peak, _ = traced(lambda: apply_Z_ssd(s, steps * grid.dv))
    nbytes = 512 * 512 * 16
    assert kicked.gamma[0].samples.nbytes + kicked.gamma[1].samples.nbytes == nbytes
    assert peak <= 1.2 * nbytes


def test_small_shift_law_is_exact(code, grid64):
    # X(u~) Z(v~) (|l> (x) |0,0>) = exp(i alpha l v~) |l> (x) |u~, v~>
    ut, vt = grid64.u_values()[25], grid64.v_values()[45]
    for ell in (0, 1):
        shifted = apply_X(apply_Z(codeword(code, ell), vt), ut)
        s = to_ssd(shifted, code)
        expected = cmath.exp(1j * ALPHA * ell * vt)
        assert s.gamma[ell].points[(ut, vt)] == pytest.approx(expected, abs=1e-12)
        assert s.gamma[1 - ell].points == {}


def test_which_patch_operator_is_logical_z(code, grid64):
    # exp(i pi l) flips the sign of the logical-1 gauge component, and the
    # full-mode P_U(pi/alpha) equals that flip together with the gauge phase
    psi = random_state(grid64, 44)
    s = to_ssd(psi, code)
    flipped = from_ssd(
        SSDState(code, s.gamma[0], s.gamma[1].with_samples(-s.gamma[1].samples))
    )
    direct = apply_phase_u(psi, math.pi / ALPHA)
    gauge_phase = apply_phase_u(
        ModularWavefunction(psi.grid, flipped.samples), math.pi / ALPHA
    )
    # remove the gauge part: P_U(pi/alpha) = e^{i pi l} (x) P_U_G(pi/alpha);
    # the gauge factor acts identically on both halves of the samples
    u_gauge = np.concatenate([s.gamma[0].grid.u_values(), s.gamma[0].grid.u_values()])
    manual = flipped.samples * np.exp(1j * (math.pi / ALPHA) * u_gauge)[:, None]
    assert np.max(np.abs(manual - direct.samples)) < 1e-12


# --- partitioned-position bridge ---------------------------------------------


def test_pp_bridge_single_modes(code):
    s = gauge_state(code, 51)
    grid = s.gamma[0].grid
    f = np.exp(-np.linspace(-1, 1, grid.nu) ** 2)

    constant = ModularWavefunction(grid, np.repeat(f[:, None], grid.nv, axis=1))
    modes = pp_bridge(SSDState(code, constant, constant))
    m0 = np.flatnonzero(np.max(np.abs(modes.coeffs[0]), axis=1) > 1e-12)
    assert list(modes.m_values[m0]) == [0]

    v = grid.v_values()
    single = ModularWavefunction(grid, f[:, None] * np.exp(2j * ALPHA * v)[None, :])
    modes = pp_bridge(SSDState(code, single, single))
    m1 = np.flatnonzero(np.max(np.abs(modes.coeffs[0]), axis=1) > 1e-12)
    assert list(modes.m_values[m1]) == [1]


def test_pp_bridge_roundtrip(code):
    for seed in (52, 53, 54):
        s = gauge_state(code, seed)
        back = pp_bridge_inverse(pp_bridge(s))
        assert np.max(np.abs(back.gamma[0].samples - s.gamma[0].samples)) < 1e-10
        assert np.max(np.abs(back.gamma[1].samples - s.gamma[1].samples)) < 1e-10


def dense_analysis(state, m):
    """Reference pp_bridge: the Fourier series as an explicit sum over v."""
    grid = state.gamma[0].grid
    phases = np.exp(-2j * ALPHA * np.outer(m, grid.v_values()))
    scale = math.sqrt(ALPHA / math.pi) * grid.dv
    return [scale * (phases @ g.samples.T) for g in state.gamma]


def dense_synthesis(modes):
    """Reference pp_bridge_inverse: the series summed term by term in m."""
    grid = modes.gauge_grid
    phases = np.exp(2j * ALPHA * np.outer(modes.m_values, grid.v_values()))
    return [math.sqrt(ALPHA / math.pi) * (c.T @ phases) for c in modes.coeffs]


def assert_close_relative(got, want, tol=1e-12):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("nu,nv", [(64, 64), (96, 90)])
def test_pp_bridge_matches_dense_sums(code, nu, nv):
    s = gauge_state(code, 55, nu, nv)
    modes = pp_bridge(s)
    assert list(modes.m_values) == list(range(-nv // 2, nv // 2))
    for coeff, want in zip(modes.coeffs, dense_analysis(s, modes.m_values)):
        assert coeff.shape == (nv, nu // 2) and coeff.flags.c_contiguous
        assert_close_relative(coeff, want)
    back = pp_bridge_inverse(modes)
    for gamma, want in zip(back.gamma, dense_synthesis(modes)):
        assert gamma.samples.shape == (nu // 2, nv) and gamma.samples.flags.c_contiguous
        assert_close_relative(gamma.samples, want)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("kind", ["vacuum", "gkp-approx:0.3:1"])
def test_comb_matrix_is_the_partitioned_position_representation(code, kind, n):
    # gauge half l's coefficient at frequency -m[k] is column k of the comb's row block l,
    # and every frequency the comb did not keep is empty: nv > 2 m_max, so nothing aliases
    state = VacuumState(0.3) if kind == "vacuum" else approx_codeword(code, 1, 0.3)
    grid = code.grid(n, n)
    comb = comb_matrix(state, grid, 16)
    modes = pp_bridge(to_ssd(zak_transform(state, grid, 16), code))
    kept = -comb.m - modes.m_values[0]
    half = n // 2
    for ell, coeff in enumerate(modes.coeffs):
        assert np.max(np.abs(coeff[kept] - comb.values[ell * half:(ell + 1) * half].T)) <= 1e-15
        assert np.max(np.abs(np.delete(coeff, kept, axis=0))) <= 1e-15


@pytest.mark.parametrize("n", [64, 256])
@closed_form_states
def test_pp_bridge_matches_the_closed_form(code, n, delta, which):
    # psi(u - a m) summed over the Gaussians at each gauge half's rows: pins the bridge's
    # scale, its v_min phase and the order of its frequencies
    psi, gaussians = closed_form_state(delta, which, n)
    modes = pp_bridge(to_ssd(psi, code))
    halves = psi.grid.u_values().reshape(2, n // 2)
    want = np.array([pp_coefficients(code.alpha, *gaussians, u, modes.m_values) for u in halves])
    assert np.max(np.abs(np.array(modes.coeffs) - want)) <= 1e-13 * np.max(np.abs(want))


def test_pp_gauge_modes_store_only_code_and_coeffs(code):
    # gauge_grid and m_values follow from code and the (nv, nu) coefficient shape
    s = gauge_state(code, 57, 32, 64)
    modes = pp_bridge(s)
    assert [f.name for f in dataclasses.fields(modes)] == ["code", "coeffs"]
    assert modes.gauge_grid == s.gamma[0].grid == code.gauge_grid(16, 64)
    assert modes.m_values.dtype == np.arange(1).dtype
    assert list(modes.m_values) == list(range(-32, 32))


@pytest.mark.parametrize("count", [0, 1, 3])
def test_pp_bridge_inverse_needs_two_coefficient_arrays(code, count):
    modes = pp_bridge(gauge_state(code, 69))
    coeffs = (modes.coeffs * 2)[:count]
    with pytest.raises(ValueError, match=rf"coeffs must hold two arrays, got {count}$"):
        pp_bridge_inverse(dataclasses.replace(modes, coeffs=coeffs))


SHAPE = r"coeffs must share one \(nv, nu\) shape"
NOT_ARRAYS = "pp_bridge_inverse takes coeffs of two arrays, not a "


def zeros(*shapes):
    return tuple(np.zeros(shape, dtype=np.complex128) for shape in shapes)


@pytest.mark.parametrize(
    "coeffs,message",
    [
        pytest.param(zeros((64, 16), (64, 20)), SHAPE, id="two-nu"),
        pytest.param(zeros((64, 16), (32, 16)), SHAPE, id="two-nv"),
        pytest.param(zeros((1024,), (1024,)), SHAPE, id="one-dimensional"),
        pytest.param(zeros((2, 64, 16), (2, 64, 16)), SHAPE, id="three-dimensional"),
        pytest.param(zeros((64, 18), (64, 18)), "nu must be a positive multiple of 4", id="nu-18"),
        pytest.param(zeros((63, 16), (63, 16)), "nv must be a positive even integer", id="odd-nv"),
        pytest.param(zeros((0, 16), (0, 16)), "nv must be a positive even integer", id="empty"),
        # each once ended in Python's own error, an AttributeError or a TypeError
        pytest.param(([1, 2], [3, 4]), NOT_ARRAYS + "list$", id="lists"),
        pytest.param(None, NOT_ARRAYS + "NoneType$", id="None"),
        # once numpy's own error from inside the synthesis
        pytest.param((np.zeros((64, 16), "<U2"),) * 2, "coeffs must hold numbers, got <U2$", id="text"),
    ],
)
def test_pp_bridge_inverse_needs_two_arrays_of_one_gauge_grid_shape(code, coeffs, message):
    # two arrays, and their shape, which is all that fixes gauge_grid and m_values, are what is checked
    with pytest.raises(ValueError, match=message):
        pp_bridge_inverse(PPGaugeModes(code=code, coeffs=coeffs))


def gather_analysis(state):
    """Reference pp_bridge: the FFT transposed, gathered into m order, then weighted."""
    grid = state.gamma[0].grid
    m = np.arange(-grid.nv // 2, grid.nv // 2)
    weights = (
        math.sqrt(ALPHA / math.pi) * grid.dv * np.exp(-1j * grid.patch.b * grid.patch.v_min * m)
    )
    coeffs = []
    for gamma in state.gamma:
        coeff = np.fft.fft(gamma.samples, axis=1).T.take(m % grid.nv, axis=0)
        coeff *= weights[:, None]
        coeffs.append(coeff)
    return coeffs


def scattered_synthesis(modes):
    """Reference pp_bridge_inverse: weighted rows scattered into bin order, then the ifft.

    The bins are transposed into a contiguous copy before the ifft along v.
    """
    grid, m = modes.gauge_grid, modes.m_values
    weights = math.sqrt(ALPHA / math.pi) * np.exp(1j * grid.patch.b * grid.patch.v_min * m)
    samples = []
    for coeff in modes.coeffs:
        bins = np.empty((grid.nv, grid.nu), dtype=np.complex128)
        bins[m % grid.nv] = coeff * weights[:, None]
        samples.append(np.fft.ifft(np.ascontiguousarray(bins.T), axis=1, norm="forward"))
    return samples


@pytest.mark.parametrize("nu,nv", [(64, 64), (96, 90), (512, 512)])
def test_pp_bridge_is_bitwise_the_reference_formulas(code, nu, nv):
    s = gauge_state(code, 58, nu, nv)
    modes = pp_bridge(s)
    for got, want in zip(modes.coeffs, gather_analysis(s)):
        assert np.array_equal(got, want)
    back = pp_bridge_inverse(modes)
    for gamma, want in zip(back.gamma, scattered_synthesis(modes)):
        assert np.array_equal(gamma.samples, want)


def test_pp_bridge_allocates_little_beyond_its_result(code):
    # each direction: its result plus one component's scratch spectrum
    s = to_ssd(random_state(code.grid(512, 512), 63), code)
    nbytes = 512 * 512 * 16
    modes, peak, _ = traced(lambda: pp_bridge(s))
    assert sum(coeff.nbytes for coeff in modes.coeffs) == nbytes
    assert peak <= 1.6 * nbytes
    back, peak, _ = traced(lambda: pp_bridge_inverse(modes))
    assert back.gamma[0].samples.nbytes + back.gamma[1].samples.nbytes == nbytes
    assert peak <= 1.6 * nbytes


# --- stored as grid files -----------------------------------------------------


def _bits(samples):
    return samples.view(np.uint64)


@pytest.mark.parametrize("alpha", [ALPHA, 1.3])
def test_ssd_state_rebuilds_bit_for_bit_from_grid_files(alpha, tmp_path):
    # the mode's file holds a = 2 alpha, and a gauge component's file a = alpha, both exactly
    code = GKPCode(alpha=alpha)
    s = to_ssd(random_state(code.grid(32, 48), 60), code)
    save_grid_binary(s.mode, tmp_path / "mode.bin")
    m = load_grid_binary(tmp_path / "mode.bin")
    via_mode = to_ssd(m, GKPCode(m.patch.a / 2))
    for ell in (0, 1):
        save_grid_binary(s.gamma[ell], tmp_path / f"g{ell}.bin")
    g0, g1 = (load_grid_binary(tmp_path / f"g{ell}.bin") for ell in (0, 1))
    via_gauge = SSDState(GKPCode(g0.patch.a), g0, g1)
    for loaded in (via_mode, via_gauge):
        assert loaded.code.alpha == code.alpha
        assert np.array_equal(_bits(loaded.mode.samples), _bits(s.mode.samples))
        for got, want in zip(loaded.gamma, s.gamma):
            assert np.array_equal(_bits(got.samples), _bits(want.samples))
        assert gauge_trace(loaded).matrix.tobytes() == gauge_trace(s).matrix.tobytes()


@pytest.mark.parametrize("alpha,nu,nv", [(0.8, 64, 128), (2.5, 128, 64)])
def test_consistency_off_default_parameters(alpha, nu, nv):
    from zakgkp import GKPCode, apply_X, apply_Z, logical_from_overlap

    code = GKPCode(alpha=alpha)
    grid = code.grid(nu, nv)
    psi = random_state(grid, 99)
    s = to_ssd(psi, code)
    for t in (grid.du, alpha, alpha / 4 if nu % 8 == 0 else 3 * grid.du,
              -alpha / 2, 2 * alpha + 4 * grid.du):
        diff = from_ssd(apply_X_ssd(s, t)).samples - apply_X(psi, t).samples
        assert np.max(np.abs(diff)) < 1e-10
    for t in (grid.dv, 7 * grid.dv, math.pi / alpha):
        diff = from_ssd(apply_Z_ssd(s, t)).samples - apply_Z(psi, t).samples
        assert np.max(np.abs(diff)) < 1e-10
    q1 = logical_from_overlap(psi, code)
    q2 = gauge_trace(s)
    assert np.max(np.abs(q1.matrix - q2.matrix)) < 1e-10
