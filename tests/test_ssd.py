import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import ALPHA, random_state
from zakgkp import (
    GridMismatchError,
    SSDState,
    IdealSSDState,
    IdealZakState,
    MixtureState,
    ModularWavefunction,
    PPGaugeModes,
    apply_phase_u,
    apply_X,
    apply_X_ssd,
    apply_Z,
    apply_Z_ssd,
    codeword,
    ec_channel_logical,
    ec_gauge_trace,
    from_ssd,
    gauge_trace,
    load_ssd,
    logical_from_overlap,
    pp_bridge,
    pp_bridge_inverse,
    save_ssd,
    to_ssd,
)

A = 2 * ALPHA


def gauge_state(code, seed, nu=32, nv=64):
    return to_ssd(random_state(code.grid(nu, nv), seed), code)


# --- change of basis ---------------------------------------------------------


def test_to_from_ssd_is_bitwise_identity(code, grid64):
    psi = random_state(grid64, 21)
    back = from_ssd(to_ssd(psi, code))
    assert np.array_equal(back.samples, psi.samples)
    assert back.grid.compatible(psi.grid)


def test_to_ssd_norm_split(code, grid64):
    psi = random_state(grid64, 22)
    s = to_ssd(psi, code)
    assert s.norm_squared() == pytest.approx(psi.norm_squared(), rel=1e-14)
    # state supported on the left half has an empty logical-1 component
    samples = np.array(psi.samples)
    samples[32:, :] = 0
    left = ModularWavefunction(grid64, samples)
    s_left = to_ssd(left, code)
    assert np.all(s_left.gamma[1].samples == 0)


def test_ideal_codeword_splits_as_product(code):
    for ell in (0, 1):
        s = to_ssd(codeword(code, ell), code)
        assert s.points[ell] == {(0.0, 0.0): 1 + 0j}
        assert s.points[1 - ell] == {}
        back = from_ssd(s)
        assert back.points == codeword(code, ell).points


def test_from_ssd_places_gauge_points(code):
    v0 = 0.3
    s = IdealSSDState(code, {}, {(0.0, v0): 1.0})
    full = from_ssd(s)
    assert full.value_at(ALPHA, v0) == 1

    s = IdealSSDState(code, {(0.125, v0): 0.5j}, {})
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
        via_alternate = from_ssd(IdealSSDState(code, sectors[0], sectors[1]))
        direct = IdealZakState(code.full_patch(), {(u, v): 1.0})
        assert via_alternate.value_at(u, v) == pytest.approx(
            direct.value_at(u, v), abs=1e-12
        )
        assert len(via_alternate) == 1


def test_to_ssd_rejects_foreign_patch(code):
    psi = random_state(code.grid(64, 64), 1)
    from zakgkp import GKPCode

    with pytest.raises(GridMismatchError):
        to_ssd(psi, GKPCode(alpha=1.0))


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
        components.append((prob, IdealSSDState(code, pts0, pts1)))
    q = gauge_trace(MixtureState(components))
    expected = np.array([[c0 * c0.conjugate(), c0 * c1.conjugate()],
                         [c1 * c0.conjugate(), c1 * c1.conjugate()]], dtype=complex)
    assert np.allclose(q.matrix, expected, atol=1e-12)
    assert q.purity == pytest.approx(1.0, abs=1e-12)


def test_gauge_trace_matches_overlap_route(code, corpus_256):
    # one split and one Gram kernel: the two routes agree bit for bit
    for psi in [*corpus_256.values(), codeword(code, 0), codeword(code, 1)]:
        q_trace = gauge_trace(to_ssd(psi, code))
        q_overlap = logical_from_overlap(psi, code)
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
        assert out.points[ell][(0.0, t)] == pytest.approx(expected, abs=1e-12)
        assert out.points[1 - ell] == {}


def test_apply_x_ssd_examples(code):
    s = to_ssd(codeword(code, 0), code)
    flipped = apply_X_ssd(s, ALPHA)
    assert flipped.points[1] == {(0.0, 0.0): 1 + 0j}
    small = apply_X_ssd(s, ALPHA / 4)
    assert small.points[0][(ALPHA / 4, 0.0)] == 1
    assert small.points[1] == {}

    # wrap: gauge point at 3 alpha / 8 pushed past the half-patch boundary
    start = IdealSSDState(code, {(3 * ALPHA / 8, 0.0): 1.0}, {})
    wrapped = apply_X_ssd(start, ALPHA / 4)
    assert wrapped.points[0] == {}
    assert wrapped.points[1][(-3 * ALPHA / 8, 0.0)] == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("steps", [3, -5, 300])
def test_apply_x_ssd_allocates_little_beyond_its_result(code, steps):
    # a shift within one period costs the full-mode copy and the shifted result
    grid = code.grid(512, 512)
    s = to_ssd(random_state(grid, 61), code)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        shifted = apply_X_ssd(s, steps * grid.du)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    nbytes = 512 * 512 * 16
    assert shifted.gamma[0].samples.nbytes + shifted.gamma[1].samples.nbytes == nbytes
    assert peak <= 2.2 * nbytes


def test_small_shift_law_is_exact(code, grid64):
    # X(u~) Z(v~) (|l> (x) |0,0>) = exp(i alpha l v~) |l> (x) |u~, v~>
    ut, vt = grid64.u_values()[25], grid64.v_values()[45]
    for ell in (0, 1):
        shifted = apply_X(apply_Z(codeword(code, ell), vt), ut)
        s = to_ssd(shifted, code)
        expected = cmath.exp(1j * ALPHA * ell * vt)
        assert s.points[ell][(ut, vt)] == pytest.approx(expected, abs=1e-12)
        assert s.points[1 - ell] == {}


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
    u_gauge = np.concatenate([s.gauge_grid.u_values(), s.gauge_grid.u_values()])
    manual = flipped.samples * np.exp(1j * (math.pi / ALPHA) * u_gauge)[:, None]
    assert np.max(np.abs(manual - direct.samples)) < 1e-12


# --- partitioned-position bridge ---------------------------------------------


def test_pp_bridge_single_modes(code):
    s = gauge_state(code, 51)
    grid = s.gauge_grid
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
    grid = state.gauge_grid
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


def test_pp_bridge_inverse_folds_aliased_frequencies(code):
    # frequencies shifted by +-nv and a repeated one must synthesize as the
    # direct sum does: on the grid they alias onto bin m mod nv
    grid = code.gauge_grid(48, 90)
    nv = grid.nv
    m = np.array([-nv // 2 - nv, -3, 0, 1, 1, 7 + nv, nv // 2 - 1, 2 * nv, -nv])
    rng = np.random.default_rng(57)
    coeffs = tuple(
        rng.normal(size=(m.size, grid.nu)) + 1j * rng.normal(size=(m.size, grid.nu))
        for _ in (0, 1)
    )
    modes = PPGaugeModes(code=code, gauge_grid=grid, m_values=m, coeffs=coeffs)
    back = pp_bridge_inverse(modes)
    for gamma, want in zip(back.gamma, dense_synthesis(modes)):
        assert gamma.samples.flags.c_contiguous
        assert_close_relative(gamma.samples, want)
    with pytest.raises(ValueError, match="integer"):
        pp_bridge_inverse(dataclasses.replace(modes, m_values=m + 0.5))


# --- export -------------------------------------------------------------------


def test_ssd_save_load_roundtrip(code, tmp_path):
    s = gauge_state(code, 60)
    base = tmp_path / "state"
    save_ssd(s, base)
    loaded = load_ssd(base)
    assert loaded.code.alpha == code.alpha
    assert np.array_equal(loaded.gamma[0].samples, s.gamma[0].samples)
    assert np.array_equal(loaded.gamma[1].samples, s.gamma[1].samples)
    manifest = (tmp_path / "state.manifest").read_text()
    assert manifest.count("\n") == 1 and "gamma0=state.g0.bin " in manifest


def test_ssd_load_from_any_directory(code, tmp_path, monkeypatch):
    # the manifest names the grids by basename, relative to the manifest itself
    s = gauge_state(code, 62)
    (tmp_path / "out").mkdir()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    save_ssd(s, "out/state")
    for cwd, base in [("out", "state"), ("elsewhere", "../out/state"), (".", tmp_path / "out/state")]:
        monkeypatch.chdir(tmp_path / cwd)
        loaded = load_ssd(base)
        assert np.array_equal(loaded.gamma[0].samples, s.gamma[0].samples)
        assert np.array_equal(loaded.gamma[1].samples, s.gamma[1].samples)


@pytest.mark.parametrize(
    "text,problem",
    [
        ("alpha=1.5 gamma0=state.g0.bin gamma1 state.g1.bin\n", "key=value"),
        ("gamma0=state.g0.bin gamma1=state.g1.bin\n", "missing alpha"),
        ("alpha=1.5 gamma0=state.g0.bin\n", "missing gamma1"),
        ("", "missing alpha, gamma0, gamma1"),
    ],
    ids=["no-equals", "no-alpha", "no-gamma1", "empty"],
)
def test_ssd_load_rejects_malformed_manifest(tmp_path, text, problem):
    manifest = tmp_path / "state.manifest"
    manifest.write_text(text)
    with pytest.raises(ValueError, match=problem) as info:
        load_ssd(tmp_path / "state")
    assert str(manifest) in str(info.value)


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
