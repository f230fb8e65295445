import ast
import cmath
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import ALPHA, closed_form_state, closed_form_states, comb_table, random_state, traced
from erf_reference import codeword_gaussians, erf_ec_gram, erf_gram, erf_residuals, vacuum_gaussians, zak_samples
from zakgkp import (
    DegenerateLogicalError,
    GKPCode,
    GridMismatchError,
    IdealZakState,
    LogicalQubit,
    MixtureState,
    ModularWavefunction,
    NormalizationError,
    TabulatedState,
    VacuumState,
    ZakError,
    ZakPatch,
    apply_translate_u,
    apply_X,
    apply_Z,
    approx_codeword,
    codeword,
    ec_channel_logical,
    ec_kraus_amplitudes,
    logical_from_overlap,
    stabilizer_residual,
    syndrome_reduce,
    zak_transform,
)
from zakgkp import gkp, ssd
from zakgkp.core import comb_matrix
from zakgkp.modular import split

A = 2 * ALPHA

# brute-force quadrature oracle at 512x512 (theta series + direct Riemann
# sums, computed outside the library), frozen
VACUUM_RHO00 = 0.7900749243509657
VACUUM_RHO11 = 0.20992507564903426
VACUUM_RHO01 = 0.22878260990217197
VACUUM_PURITY = 0.7729698886617357


def test_codewords(code):
    zero = codeword(code, 0)
    one = codeword(code, 1)
    assert zero.points == {(0.0, 0.0): 1 + 0j}
    assert one.points == {(ALPHA, 0.0): 1 + 0j}
    with pytest.raises(ValueError):
        codeword(code, 2)


def test_code_geometry(code):
    patch = code.full_patch()
    assert patch.a == A
    assert patch.u_min == pytest.approx(-ALPHA / 2)
    assert patch.height == pytest.approx(math.pi / ALPHA)
    gauge = code.gauge_patch()
    assert gauge.a == ALPHA
    assert gauge.b == 2 * ALPHA
    # correctable patch has area pi, half the fundamental area 2 pi
    assert gauge.a * gauge.height == pytest.approx(math.pi)
    assert patch.a * patch.height == pytest.approx(2 * math.pi)


@pytest.mark.contract("alpha-and-ell")
def test_code_stores_alpha_as_the_float_it_checks():
    # a string alpha was once kept as given: GKPCode("1").period was "11"
    assert GKPCode("1.5") == GKPCode(1.5)
    assert GKPCode("1.5").period == 3.0
    assert GKPCode("1").full_patch().a == 2.0
    assert type(GKPCode(1).alpha) is float


@pytest.mark.contract("alpha-and-ell")
def test_approx_codeword_takes_delta_as_the_float_it_checks():
    # numeric text passed the delta check, and then delta**2 raised TypeError
    text, number = approx_codeword(GKPCode(), 0, "0.3"), approx_codeword(GKPCode(), 0, 0.3)
    for name in ("tooth_variance", "envelope_variance", "offset", "amplitude"):
        assert getattr(text, name) == getattr(number, name), name


def test_approx_codeword_normalization_and_peaks(code):
    grid = code.grid(128, 128)
    for ell in (0, 1):
        psi = zak_transform(approx_codeword(code, ell, 0.25), grid, 16)
        assert abs(psi.norm() - 1) < 1e-9
        row = np.abs(psi.samples[:, grid.nv // 2])
        assert grid.u_values()[np.argmax(row)] == pytest.approx(ALPHA * ell, abs=1e-12)


def test_approx_codeword_mass_concentration(code):
    grid = code.grid(128, 128)
    psi = zak_transform(approx_codeword(code, 0, 0.1), grid, 24)
    half_u = grid.nu // 2
    quarter_v = slice(grid.nv // 4, 3 * grid.nv // 4)
    mass = np.sum(np.abs(psi.samples[:half_u, quarter_v]) ** 2) * grid.cell_area
    assert mass / psi.norm_squared() > 0.99


def test_stabilizer_residuals(code):
    for ell in (0, 1):
        r1, r2 = stabilizer_residual(codeword(code, ell), code)
        assert r1 < 1e-12 and r2 < 1e-12

    midpoint = IdealZakState(code.full_patch(), {(ALPHA / 2, 0.0): 1.0})
    _, r2 = stabilizer_residual(midpoint, code)
    assert r2 == pytest.approx(2.0, abs=1e-12)

    grid = code.grid(128, 128)
    residuals = [
        stabilizer_residual(zak_transform(approx_codeword(code, 0, d), grid, 16), code)
        for d in (0.4, 0.3, 0.2)
    ]
    for (a1, a2), (b1, b2) in zip(residuals, residuals[1:]):
        assert b1 < a1 and b2 < a2


def test_syndrome_reduce(code):
    syn = syndrome_reduce(code, 0.0, 0.0)
    assert (syn.u_tilde, syn.v_tilde) == (0.0, 0.0)
    assert syndrome_reduce(code, ALPHA, 0.0).u_tilde == pytest.approx(0.0, abs=1e-15)
    syn = syndrome_reduce(code, 0.6 * ALPHA, 0.0)
    assert syn.u_tilde == pytest.approx(-0.4 * ALPHA, abs=1e-12)
    # reductions land in the correctable patch
    for s, t in [(5.3, -2.7), (-123.4, 56.7)]:
        syn = syndrome_reduce(code, s, t)
        assert -ALPHA / 2 <= syn.u_tilde < ALPHA / 2
        assert -math.pi / (2 * ALPHA) <= syn.v_tilde < math.pi / (2 * ALPHA)


@pytest.mark.contract("syndrome")
@pytest.mark.parametrize("alpha", [ALPHA, 1e-3, 0.1, 0.7, 1.3, 2.5, 123.456, 1e-150, 1e150, 3e-300])
def test_syndrome_reduce_is_the_gauge_patch_reduction(alpha):
    # bit for bit, sign of zero included, with the gauge patch and with the rectangle
    # [-alpha/2, alpha/2) x [-pi/2alpha, pi/2alpha) written out, at whole-period boundaries +-1 ulp
    code, rng = GKPCode(alpha), np.random.default_rng(29)
    coords = []
    for period, centering in ((alpha, alpha / 2), (math.pi / alpha, math.pi / (2 * alpha))):
        edges = [k * period + sign * centering for k in range(-3, 4) for sign in (-1, 1)] + [0.0, -0.0]
        near = [math.nextafter(x, d) for x in edges for d in (-math.inf, math.inf)]
        coords.append(edges + near + list(period * rng.uniform(-10, 10, 20)))
    for shift in range(4):
        for s, t in zip(coords[0], np.roll(coords[1], 11 * shift).tolist()):
            syn = syndrome_reduce(code, s, t)
            u, v, _ = code.gauge_patch().reduce(s, t)
            rect = split(s, alpha, alpha / 2)[0], split(t, math.pi / alpha, math.pi / (2 * alpha))[0]
            got = (syn.u_tilde.hex(), syn.v_tilde.hex())
            assert got == (u.hex(), v.hex()) == (rect[0].hex(), rect[1].hex()), (s, t)
            assert syn == (s, t, syn.u_tilde, syn.v_tilde, alpha)


def test_an_ideal_point_far_out_reduces_into_its_half_patch(code):
    # the rounded difference once left u past the patch end, so the point read as logical 1
    state = IdealZakState(code.full_patch(), {(32819715.2871268, 0.5): 1})
    ((u, _),) = state.points
    assert code.full_patch().u_min <= u < 3 * ALPHA / 2
    assert logical_from_overlap(state, code).fidelity(0) == 1.0


def test_a_point_on_a_patch_equal_to_the_code_s_splits_by_the_code_s_patch(code):
    # the last float of a patch that is == to the code's lies past the code's end: the split
    # places it in the code's patch first, where it wraps to logical 0
    patch = ZakPatch(code.period * (1 + 1e-13))
    assert patch == code.full_patch()
    state = IdealZakState(patch, {(math.nextafter(patch.u_min + patch.a, 0.0), 0.1): 1})
    gamma0, gamma1 = gkp._sectors(state, code)
    assert (len(gamma0.points), len(gamma1.points)) == (1, 0)
    assert logical_from_overlap(state, code).fidelity(0) == 1.0


def test_kraus_reads_a_far_syndrome_inside_the_grid(code):
    # the reduced u_tilde once sat one ulp short of the patch, off the grid
    psi = zak_transform(VacuumState(), code.grid(16, 16), 8)
    syn = syndrome_reduce(code, 2304116.449342358, 0.0)
    assert syn.u_tilde == -ALPHA / 2
    c0, c1 = ec_kraus_amplitudes(psi, code, syn)
    assert c0 == c1 != 0


@pytest.mark.contract("syndrome")
def test_kraus_refuses_a_syndrome_of_another_code():
    code = GKPCode(1.3)
    with pytest.raises(GridMismatchError, match=r"syndrome was reduced for alpha=1\.77.*, not the code's 1\.3"):
        ec_kraus_amplitudes(codeword(code, 1), code, syndrome_reduce(GKPCode(), 1.3, 0.0))
    assert ec_kraus_amplitudes(codeword(code, 1), code, syndrome_reduce(code, 1.3, 0.0)) == (0j, 1 + 0j)


def test_kraus_on_codeword(code):
    syn = syndrome_reduce(code, 0.0, 0.0)
    assert ec_kraus_amplitudes(codeword(code, 0), code, syn) == (1 + 0j, 0j)
    assert ec_kraus_amplitudes(codeword(code, 1), code, syn) == (0j, 1 + 0j)


def test_kraus_counter_phase_on_corrupted_codeword(code, grid64):
    # X(u~) Z(v~) |l> has amplitude exp(i alpha l v~) on |l>; the Kraus
    # phase exp(-i alpha l v~) cancels it exactly
    ut, vt = grid64.u_values()[7] , grid64.v_values()[9]
    syn = syndrome_reduce(code, ut, vt)
    for ell in (0, 1):
        corrupted = apply_X(apply_Z(codeword(code, ell), vt), ut)
        c = ec_kraus_amplitudes(corrupted, code, syn)
        assert c[ell] == pytest.approx(1.0, abs=1e-12)
        assert c[1 - ell] == 0


def test_kraus_depends_only_on_fractional_parts(code):
    grid = code.grid(128, 128)
    psi = zak_transform(approx_codeword(code, 0, 0.3), grid, 16)
    base = syndrome_reduce(code, 0.25 * ALPHA, 0.125 * math.pi / ALPHA)
    shifted = syndrome_reduce(
        code, 0.25 * ALPHA + 7 * ALPHA, 0.125 * math.pi / ALPHA - 3 * math.pi / ALPHA
    )
    c_base = ec_kraus_amplitudes(psi, code, base)
    c_shifted = ec_kraus_amplitudes(psi, code, shifted)
    assert c_base[0] == pytest.approx(c_shifted[0], abs=1e-12)
    assert c_base[1] == pytest.approx(c_shifted[1], abs=1e-12)


def test_povm_completeness(code):
    grid = code.grid(128, 128)
    psi = zak_transform(approx_codeword(code, 1, 0.3), grid, 16)
    state = ssd.to_ssd(psi, code)
    gauge = state.gamma[0].grid
    total = 0.0
    for j in range(0, gauge.nu, 8):
        for k in range(0, gauge.nv, 8):
            syn = syndrome_reduce(code, gauge.u_values()[j], gauge.v_values()[k])
            c0, c1 = ec_kraus_amplitudes(psi, code, syn)
            total += (abs(c0) ** 2 + abs(c1) ** 2) * gauge.cell_area * 64
    # coarse 8x8 subsampling of the syndrome integral still tracks the norm
    assert total == pytest.approx(psi.norm_squared(), rel=1e-2)


def test_logical_from_overlap_ideal(code):
    q = logical_from_overlap(codeword(code, 0), code)
    assert np.array_equal(q.matrix, np.array([[1, 0], [0, 0]], dtype=complex))
    assert q.raw_trace == 1.0
    mix = MixtureState([(0.5, codeword(code, 0)), (0.5, codeword(code, 1))])
    q = logical_from_overlap(mix, code)
    assert np.array_equal(q.matrix, np.diag([0.5, 0.5]).astype(complex))


def test_logical_from_overlap_vacuum_golden(code):
    grid = code.grid(512, 512)
    q = logical_from_overlap(zak_transform(VacuumState(), grid, 16), code)
    assert q.matrix[0, 0].real == pytest.approx(VACUUM_RHO00, abs=1e-9)
    assert q.matrix[1, 1].real == pytest.approx(VACUUM_RHO11, abs=1e-9)
    assert q.matrix[0, 1] == pytest.approx(VACUUM_RHO01, abs=1e-9)
    assert q.purity == pytest.approx(VACUUM_PURITY, abs=1e-9)
    assert q.raw_trace == pytest.approx(1.0, abs=1e-9)
    assert q.matrix[0, 1].imag == pytest.approx(0.0, abs=1e-12)
    assert q.matrix[0, 0].real > q.matrix[1, 1].real > 0
    # coarser grids converge to the same values
    q256 = logical_from_overlap(
        zak_transform(VacuumState(), code.grid(256, 256), 16), code
    )
    assert q256.matrix[0, 0].real == pytest.approx(VACUUM_RHO00, abs=1e-3)
    assert q256.matrix[0, 1].real == pytest.approx(VACUUM_RHO01, abs=2e-3)


def _oracle_rho(descriptor, code):
    """Continuum ``rho`` from the position wavefunction alone, independent of the pairing kernels.

    By Parseval in ``v`` each Gram entry is a 1-D integral over the half
    window, ``G[l, l'] = int sum_m f(u + alpha l + a m) conj f(u + alpha l' + a m) du``,
    taken here by 200-node Gauss-Legendre quadrature with ``|m| <= 40``.
    """
    x, w = np.polynomial.legendre.leggauss(200)
    u, w = code.alpha / 2 * x, code.alpha / 2 * w
    m = np.arange(-40, 41)
    f = [np.asarray(descriptor.evaluate(u[:, None] + code.alpha * ell + code.period * m)) for ell in (0, 1)]
    gram = np.array([[np.sum(w[:, None] * f[i] * np.conj(f[j])) for j in (0, 1)] for i in (0, 1)])
    return gram / gram.trace().real


def _parseval_kernel(n):
    """``c_n = (b/2pi) int exp(i alpha v) exp(-i b n v) dv`` over a v period, with ``b = 2 alpha``."""
    return 2 * (-1.0) ** (n + 1) / (math.pi * (2 * n - 1))


def _oracle_ec_rho(descriptor, code):
    """Continuum error-correction ``rho`` from the position wavefunction alone.

    The diagonal is :func:`_oracle_rho`'s.  By Parseval in ``v`` the cross
    entry's weight ``exp(i alpha v)`` couples the comb terms through
    :func:`_parseval_kernel`:
    ``G[0, 1] = int sum_{m,m'} c_{m-m'} f(u + a m) conj f(u + alpha + a m') du``,
    taken by 300-node Gauss-Legendre quadrature with ``|m| <= 40``.
    """
    x, w = np.polynomial.legendre.leggauss(300)
    u, w = code.alpha / 2 * x, code.alpha / 2 * w
    m = np.arange(-40, 41)
    f0, f1 = (np.asarray(descriptor.evaluate(u[:, None] + code.alpha * ell + code.period * m)) for ell in (0, 1))
    kernel = _parseval_kernel(m[:, None] - m[None, :])
    g00, g11 = (np.sum(w[:, None] * np.abs(f) ** 2) for f in (f0, f1))
    g01 = np.sum(w * np.einsum("jm,mn,jn->j", f0, kernel, np.conj(f1)))
    gram = np.array([[g00, g01], [np.conj(g01), g11]])
    return gram / gram.trace().real


def test_parseval_kernel_against_its_defining_integral(code):
    mpmath = pytest.importorskip("mpmath")
    alpha = mpmath.mpf(code.alpha)
    b = 2 * alpha
    for n in range(-5, 6):
        exact = b / (2 * mpmath.pi) * mpmath.quad(
            lambda v: mpmath.exp(1j * alpha * v) * mpmath.exp(-1j * b * n * v), [-mpmath.pi / b, mpmath.pi / b])
        assert abs(complex(exact) - _parseval_kernel(n)) <= 1e-15, n


@pytest.mark.parametrize(
    "offset, errors",
    [(0.0, {16: 9.3e-4, 64: 5.8e-5, 256: 3.7e-6}), (0.7, {16: 1.6e-2, 64: 3.9e-3, 256: 9.8e-4})],
    ids=["vacuum", "vacuum-0.7"],
)
def test_ec_riemann_error_against_gauss_legendre_oracle(code, offset, errors):
    # the EC cross weight exp(i alpha v) is anti-periodic over the v period, so the v sum is
    # only algebraically accurate: at nu = 4096 the u error is small and the error is dv's
    exact = _oracle_ec_rho(VacuumState(offset), code)
    for nv, error in errors.items():
        got = ec_channel_logical(comb_matrix(VacuumState(offset), code.grid(4096, nv), 16), code).matrix
        assert np.max(np.abs(got - exact)) == pytest.approx(error, rel=0.1), nv


@pytest.mark.parametrize("c", [0.0, 0.7])
def test_gauss_legendre_oracle_against_vacuum_erf_sums(code, c):
    # for f(x) = pi^-1/4 exp(-(x - c)^2 / 2) each Gram entry is a sum of erf differences:
    # f(x) f(x + alpha) = pi^-1/2 exp(-alpha^2/4) exp(-(x - c + alpha/2)^2)
    alpha = code.alpha
    xs = [code.period * m - c for m in range(-40, 41)]
    g00, g11 = (sum(math.erf(x + alpha * (ell + 0.5)) - math.erf(x + alpha * (ell - 0.5)) for x in xs) / 2
                for ell in (0, 1))
    g01 = math.exp(-alpha**2 / 4) * sum(math.erf(x + alpha) - math.erf(x) for x in xs) / 2
    gram = np.array([[g00, g01], [g01, g11]])
    assert np.max(np.abs(_oracle_rho(VacuumState(c), code) - gram / gram.trace())) <= 1e-13
    assert np.max(np.abs(erf_gram(alpha, *vacuum_gaussians(c)) - gram)) <= 1e-15
    assert np.max(np.abs(erf_ec_gram(alpha, *vacuum_gaussians(c)) - _oracle_ec_rho(VacuumState(c), code))) <= 1e-14


@pytest.mark.parametrize(
    "delta, ell, errors",
    [
        (0.5, 0, {64: (1.79e-4, 1.68e-4), 256: (4.48e-5, 1.05e-5)}),
        (0.5, 1, {64: (2.06e-4, 1.86e-4), 256: (5.16e-5, 1.16e-5)}),
        (0.3, 0, {64: (3.02e-6, 3.02e-6), 256: (1.92e-7, 1.92e-7)}),
        (0.3, 1, {64: (3.02e-6, 3.02e-6), 256: (1.92e-7, 1.92e-7)}),
        (0.2, 0, {64: (1.74e-10, 1.74e-10), 256: (1.18e-11, 1.18e-11)}),
        (0.2, 1, {64: (1.74e-10, 1.74e-10), 256: (1.18e-11, 1.18e-11)}),
    ],
)
def test_comb_route_error_against_erf_reference(code, delta, ell, errors):
    # the closed forms share no code with the library's comb, so they also check the oracles,
    # whose integrand is the library's own GaussianComb; the pins are today's left-Riemann u
    # errors of the plain and the EC map, on the comb route and on the grid route (its
    # transform), and an error below 1e-13 (rounding, not the rule) would not be pinned.  The
    # maps are normalized by their trace, so the raw trace (the reference's is 1) pins the
    # comb's amplitude
    descriptor, gaussians = approx_codeword(code, ell, delta), codeword_gaussians(code.alpha, ell, delta)
    for route, (reference, oracle, logical) in enumerate(((erf_gram, _oracle_rho, logical_from_overlap),
                                                          (erf_ec_gram, _oracle_ec_rho, ec_channel_logical))):
        exact = reference(code.alpha, *gaussians)
        assert abs(exact.trace() - 1) <= 1e-15
        assert np.max(np.abs(exact - oracle(descriptor, code))) <= 1e-14
        for n, error in errors.items():
            for make in (comb_matrix, zak_transform):
                got = logical(make(descriptor, code.grid(n, n), 16), code)
                label = (logical.__name__, make.__name__, n)
                assert np.max(np.abs(got.matrix - exact)) == pytest.approx(error[route], rel=0.1), label
                assert abs(got.raw_trace - 1) <= 1e-13, label


def test_erf_reference_imports_nothing_from_the_library():
    # a reference that imported zakgkp, directly or through conftest, could move along with
    # the code under test, so it may import only the standard library and numpy
    tree = ast.parse(Path(__file__).with_name("erf_reference.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert {name.split(".")[0] for name in imported} <= set(sys.stdlib_module_names) | {"numpy"}, imported


@pytest.mark.parametrize(
    "delta, which",
    [(None, 0.0), (None, 0.7), *((delta, ell) for delta in (0.5, 0.3, 0.2) for ell in (0, 1))],
    ids=["vacuum", "vacuum-0.7", *(f"delta-{delta}-ell-{ell}" for delta in (0.5, 0.3, 0.2) for ell in (0, 1))],
)
def test_stabilizer_residuals_against_erf_reference(code, delta, which):
    # both residuals have closed forms in the Gaussians' pair sums, and on both routes the
    # library meets them up to rounding (8.8e-15 at most), so the pin is rounding's
    if delta is None:
        descriptor, gaussians = VacuumState(which), vacuum_gaussians(which)
    else:
        descriptor, gaussians = approx_codeword(code, which, delta), codeword_gaussians(code.alpha, which, delta)
    exact = erf_residuals(code.alpha, *gaussians)
    for n in (64, 256):
        for make in (comb_matrix, zak_transform):
            got = stabilizer_residual(make(descriptor, code.grid(n, n), 16), code)
            assert max(abs(r - ref) for r, ref in zip(got, exact)) <= 1e-13, (make.__name__, n)


@pytest.mark.parametrize("n", [64, 256])
@closed_form_states
def test_ec_kraus_amplitudes_match_the_closed_form(code, n, delta, which):
    # Z(u~ + alpha l, v~) exp(-i alpha l v~), summed over the Gaussians at the reduced syndrome of
    # 64 grid nodes: pins the counter-phase and the gauge half each amplitude reads (the relative
    # errors are 1.7e-14 at most)
    psi, gaussians = closed_form_state(delta, which, n)
    got, want = [], []
    for s in psi.grid.u_values()[::n // 8]:
        for t in psi.grid.v_values()[::n // 8]:
            syn = syndrome_reduce(code, s, t)
            got.append(ec_kraus_amplitudes(psi, code, syn))
            want.append([zak_samples(code.alpha, *gaussians, [syn.u_tilde + code.alpha * ell], [syn.v_tilde])[0, 0]
                         * cmath.exp(-1j * code.alpha * ell * syn.v_tilde) for ell in (0, 1)])
    assert np.max(np.abs(np.array(got) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "make, entry, errors",
    [
        (lambda code: VacuumState(), (0, 1), {64: 6.5e-3, 256: 1.6e-3}),
        (lambda code: VacuumState(0.7), (0, 0), {64: 1.4e-2, 256: 3.4e-3}),
        (lambda code: approx_codeword(code, 0, 0.3), (0, 0), {64: 3.0e-6, 256: 1.9e-7}),
    ],
    ids=["vacuum-rho01", "vacuum-0.7-rho00", "delta-0.3-rho00"],
)
def test_riemann_error_against_gauss_legendre_oracle(code, make, entry, errors):
    # the half-window left-Riemann rule is first order in du: README's error table
    descriptor = make(code)
    exact = _oracle_rho(descriptor, code)[entry]
    for n, error in errors.items():
        got = logical_from_overlap(comb_matrix(descriptor, code.grid(n, n), 16), code).matrix[entry]
        assert abs(got - exact) == pytest.approx(error, rel=0.1), n


def test_logical_hermitian_psd_across_corpus(code, corpus_256):
    for psi in corpus_256.values():
        q = logical_from_overlap(psi, code)
        assert np.max(np.abs(q.matrix - q.matrix.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(q.matrix).min() > -1e-10


def test_logical_pauli_covariance_ideal(code):
    # on the codeword subspace (gauge support at v = 0) conjugation by
    # T_U(alpha) is an exact logical flip
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    c0, c1 = 0.8, 0.6j
    plus_like = IdealZakState(
        code.full_patch(), {(0.0, 0.0): c0, (ALPHA, 0.0): c1}
    )
    q = logical_from_overlap(plus_like, code)
    q_flipped = logical_from_overlap(apply_translate_u(plus_like, ALPHA), code)
    assert np.max(np.abs(q_flipped.matrix - sx @ q.matrix @ sx)) < 1e-12


def test_logical_pauli_covariance_grid(code, corpus_256):
    # T_U(alpha) permutes the two correctable-patch translates; because
    # T_U(2 alpha) = P_V(-2 alpha), the wrapped sector re-enters with the
    # phase exp(-i 2 alpha v), which shows up in the off-diagonals
    for key in ("vacuum", "gkp-approx:0.3:0"):
        psi = corpus_256[key]
        state = ssd.to_ssd(psi, code)
        q = logical_from_overlap(psi, code)
        q_flipped = logical_from_overlap(apply_translate_u(psi, ALPHA), code)
        assert q_flipped.matrix[0, 0] == pytest.approx(q.matrix[1, 1], abs=1e-10)
        assert q_flipped.matrix[1, 1] == pytest.approx(q.matrix[0, 0], abs=1e-10)
        gauge = state.gamma[0].grid
        phase = np.exp(-2j * ALPHA * gauge.v_values())[None, :]
        expected_01 = (
            np.sum(phase * state.gamma[1].samples * state.gamma[0].samples.conj())
            * gauge.cell_area
            / q_flipped.raw_trace
        )
        assert q_flipped.matrix[0, 1] == pytest.approx(expected_01, abs=1e-12)


def test_ec_channel_ideal_matches_overlap(code):
    for ell in (0, 1):
        q1 = ec_channel_logical(codeword(code, ell), code)
        q2 = logical_from_overlap(codeword(code, ell), code)
        assert np.array_equal(q1.matrix, q2.matrix)


def test_ec_channel_cancels_momentum_kick(code, grid64):
    vt = grid64.v_values()[39]
    for ell in (0, 1):
        kicked = apply_Z(codeword(code, ell), vt)
        q = ec_channel_logical(kicked, code)
        expected = np.zeros((2, 2), dtype=complex)
        expected[ell, ell] = 1
        assert np.allclose(q.matrix, expected, atol=1e-12)


def test_ec_channel_grid_diag_matches_overlap(code, corpus_256):
    psi = corpus_256["gkp-approx:0.2:0"]
    q_ec = ec_channel_logical(psi, code)
    q_plain = logical_from_overlap(psi, code)
    # the counter-rotation cancels on the diagonal: the same reduction
    assert q_ec.matrix[0, 0] == q_plain.matrix[0, 0]
    assert q_ec.matrix[1, 1] == q_plain.matrix[1, 1]


def test_monotone_fidelity_and_purity(code):
    grid = code.grid(128, 128)
    fidelities, purities = [], []
    for delta in (0.5, 0.4, 0.3, 0.2, 0.1):
        psi = zak_transform(approx_codeword(code, 0, delta), grid, 24)
        q = logical_from_overlap(psi, code)
        fidelities.append(q.fidelity(0))
        purities.append(q.purity)
    assert all(b >= a for a, b in zip(fidelities, fidelities[1:]))
    assert all(b >= a for a, b in zip(purities, purities[1:]))
    assert fidelities[-1] > 0.9999


@pytest.mark.contract("logical-qubit")
def test_logical_qubit_validation():
    with pytest.raises(Exception):
        LogicalQubit.from_unnormalized(np.array([[1, 1j], [2j, 1]]))
    with pytest.raises(DegenerateLogicalError):
        LogicalQubit.from_unnormalized(np.zeros((2, 2)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ZakError, match="non-finite"):
            LogicalQubit.from_unnormalized(np.array([[1, 0], [0, bad]], dtype=complex))
    # finite entries whose normalization or symmetrization overflows: refused, with no numpy warning
    with pytest.raises(ZakError, match="does not normalize to finite entries"):
        LogicalQubit.from_unnormalized([[1e-13, 1e300], [1e300, 1e-13]])
    with pytest.raises(ZakError, match="fails positivity by nan"):
        LogicalQubit.from_unnormalized([[5e-9, 1.5e300], [1.5e300, 5e-9]])
    for matrix, raw_trace in (([[np.nan, 0], [0, 1]], 1.0), (np.eye(2) / 2, math.inf), (np.eye(2) / 2, -1.0),
                              (np.eye(2) / 2, 0.0), (np.eye(2) / 2, math.nan), (np.eye(2) / 2, 10**400)):
        with pytest.raises(ValueError, match="needs finite entries and a positive finite raw_trace"):
            LogicalQubit(matrix, raw_trace)
    q = LogicalQubit.from_unnormalized(np.array([[3, 1], [1, 1]], dtype=complex))
    assert q.raw_trace == 4.0
    x, y, z = q.bloch
    assert (x, y, z) == pytest.approx((0.5, 0.0, 0.5))
    assert q.purity == pytest.approx(np.trace(q.matrix @ q.matrix).real)


@pytest.mark.contract("alpha-and-ell")
def test_fidelity_takes_the_codeword_index_codeword_takes():
    # fidelity(-1) once read rho11, and fidelity(2) raised IndexError
    q = LogicalQubit(np.diag([0.9, 0.1]).astype(complex), 1.0)
    assert (q.fidelity(0), q.fidelity(1), q.fidelity(1.0), q.fidelity(True)) == (0.9, 0.1, 0.1, 0.1)
    for ell in (-1, 2, 0.5):
        with pytest.raises(ValueError, match=f"ell must be 0 or 1, got {ell}$"):
            q.fidelity(ell)


def test_logical_qubit_repr_names_its_matrix_and_raw_trace():
    q = LogicalQubit(np.diag([0.9, 0.1]).astype(complex), 2.5)
    assert repr(q) == f"LogicalQubit(matrix={q.matrix!r}, raw_trace=2.5)"


@pytest.mark.parametrize(
    "defect,problem",
    [(lambda e: [[1, e], [0, 1]], "Hermiticity"), (lambda e: [[1, 0], [0, -e]], "positivity")],
    ids=["hermiticity", "positivity"],
)
def test_logical_qubit_tolerances_are_1e_10(defect, problem):
    LogicalQubit.from_unnormalized(np.array(defect(0.5e-10), dtype=complex))
    with pytest.raises(ZakError, match=problem):
        LogicalQubit.from_unnormalized(np.array(defect(2e-10), dtype=complex))


@pytest.mark.contract("logical-qubit")
def test_degenerate_logical_error(code, grid64):
    # all support on the second v half, none anywhere: zero everywhere
    psi = ModularWavefunction(grid64, np.zeros((64, 64)))
    with pytest.raises(DegenerateLogicalError):
        logical_from_overlap(psi, code)


@pytest.mark.parametrize("representation", ["ideal", "grid", "comb"])
@pytest.mark.parametrize(
    "extract",
    [
        lambda state, code: ec_kraus_amplitudes(state, code, syndrome_reduce(code, 0.0, 0.0)),
        logical_from_overlap,
        ec_channel_logical,
        stabilizer_residual,
    ],
    ids=["ec_kraus_amplitudes", "logical_from_overlap", "ec_channel_logical", "stabilizer_residual"],
)
def test_foreign_patch_rejected(code, extract, representation):
    foreign = GKPCode(alpha=2.0)
    if representation == "ideal":
        state = codeword(foreign, 1)
    else:
        to_grid = zak_transform if representation == "grid" else comb_matrix
        state = to_grid(approx_codeword(foreign, 1, 0.4), foreign.grid(32, 32), 16)
    with pytest.raises(GridMismatchError):
        extract(state, code)


@pytest.mark.parametrize(
    "make",
    [
        lambda code: syndrome_reduce(code, math.inf, 0.0),
        lambda code: syndrome_reduce(code, 0.0, math.nan),
        lambda code: apply_X(codeword(code, 0), math.inf),
        lambda code: apply_Z(codeword(code, 1), math.nan),
    ],
    ids=["syndrome-inf", "syndrome-nan", "ideal-X-inf", "ideal-Z-nan"],
)
def test_non_finite_coordinate_is_a_value_error(code, make):
    with pytest.raises(ValueError, match=r"coordinate (inf|nan) is not finite"):
        make(code)


def test_mixture_validation(code):
    with pytest.raises(NormalizationError):
        MixtureState([(0.5, codeword(code, 0))])
    with pytest.raises(ValueError):
        MixtureState([(-0.5, codeword(code, 0)), (1.5, codeword(code, 1))])
    mixed_repr = MixtureState(
        [(0.25, codeword(code, 0)), (0.75, codeword(code, 1))]
    )
    q = logical_from_overlap(mixed_repr, code)
    assert q.matrix[0, 0].real == pytest.approx(0.25)


def test_stabilizers_commute_and_fix_codewords(code, grid64):
    # the shift pair X(2 alpha), Z(2 pi / alpha) satisfies s*t = 2 pi K
    from conftest import random_state
    from zakgkp import apply_X as X, apply_Z as Z

    sx, sz = 2 * ALPHA, 2 * math.pi / ALPHA
    psi = random_state(grid64, 77)
    ab = Z(X(psi, sx), sz)
    ba = X(Z(psi, sz), sx)
    assert np.max(np.abs(ab.samples - ba.samples)) < 1e-10
    for ell in (0, 1):
        word = codeword(code, ell)
        assert X(word, sx).value_at(ALPHA * ell, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert Z(word, sz).value_at(ALPHA * ell, 0.0) == pytest.approx(1.0, abs=1e-12)


# --- quadratic statistics against their direct formulas -----------------------


def _reference_gram(psi, code, ec_phase):
    """Per-entry ``sum f conj(g) du dv`` of the (counter-rotated) half columns."""
    half, v = psi.grid.nu // 2, psi.grid.v_values()
    gamma = [psi.samples[:half], psi.samples[half:]]
    if ec_phase:
        gamma = [g * np.exp(-1j * ALPHA * ell * v)[None, :] for ell, g in enumerate(gamma)]
    return np.array(
        [[np.sum(f * g.conj()) * psi.grid.cell_area for g in gamma] for f in gamma]
    )


def _statistics_corpus(code):
    for n in (64, 256):
        grid = code.grid(n, n)
        for name, descriptor in [
            ("vacuum", VacuumState()),
            ("displaced vacuum", VacuumState(offset=0.7)),
            ("gkp-approx:0.3:1", approx_codeword(code, 1, 0.3)),
        ]:
            yield f"{name} {n}x{n}", zak_transform(descriptor, grid, 16)


@pytest.mark.parametrize("ec_phase", [False, True], ids=["plain", "ec"])
def test_gram_matches_per_entry_products(code, ec_phase):
    for label, psi in _statistics_corpus(code):
        gram = gkp._gram(psi, code, ec_phase)
        reference = _reference_gram(psi, code, ec_phase)
        err = np.max(np.abs(gram - reference))
        assert err <= 1e-15 * np.max(np.abs(reference)), label
        # the counter-rotation cancels on the diagonal, which is real
        assert np.array_equal(np.diag(gram).imag, [0.0, 0.0]), label


def test_ec_gram_diagonal_equals_plain_diagonal(code):
    plus = IdealZakState(code.full_patch(), {(0.0, 0.0): 1 / math.sqrt(2), (ALPHA, 0.0): 1 / math.sqrt(2)})
    shifted = ("shifted ideal |+>", apply_X(apply_Z(plus, 0.21), 0.3 * ALPHA))
    for label, psi in [*_statistics_corpus(code), shifted]:
        plain = gkp._gram(psi, code, ec_phase=False)
        ec = gkp._gram(psi, code, ec_phase=True)
        assert np.array_equal(np.diag(plain), np.diag(ec)), label
        assert ec[1, 0] == ec[0, 1].conjugate() and plain[1, 0] == plain[0, 1].conjugate()


def test_residuals_match_phased_differences(code):
    grid = code.grid(48, 80)  # non-square, so a swapped marginal cannot line up
    states = list(_statistics_corpus(code)) + [("random 48x80", random_state(grid, 5))]
    for label, psi in states:
        area = psi.grid.cell_area
        phases = (
            np.exp(-1j * A * psi.grid.v_values())[None, :],
            np.exp(2j * math.pi * 2 / A * psi.grid.u_values())[:, None],
        )
        for got, phase in zip(stabilizer_residual(psi, code), phases):
            expected = math.sqrt(np.sum(np.abs(phase * psi.samples - psi.samples) ** 2) * area)
            assert abs(got - expected) <= 1e-15 * expected, label


def test_ideal_residuals_match_phased_differences(code):
    state = IdealZakState(code.full_patch(), {(0.3, -0.4): 0.6, (-0.2, 0.9): 0.8j, (1.1, 0.1): 0.5})
    for got, (axis, t) in zip(stabilizer_residual(state, code), ((1, -A), (0, 2 * math.pi * 2 / A))):
        expected = math.sqrt(sum(abs(w * cmath.exp(1j * t * p[axis]) - w) ** 2 for p, w in state.items()))
        assert got == pytest.approx(expected, rel=1e-14)


def _comb_corpus(code):
    """(label, descriptor, grid): the states the CLI transforms, a complex table, and an
    aliased grid (nv = 16 <= 2 m_max) on which the v sums do not separate the m terms."""
    grid = code.grid(128, 128)
    descriptors = [("vacuum", VacuumState()), ("vacuum displaced 0.7", VacuumState(0.7))]
    descriptors += [(f"gkp-approx:{d}:{ell}", approx_codeword(code, ell, d))
                    for d in (0.5, 0.3, 0.1) for ell in (0, 1)]
    for label, descriptor in descriptors + [("complex table", TabulatedState(*comb_table(grid, 3)))]:
        yield f"{label} 128x128", descriptor, grid
    aliased = code.grid(64, 16)
    for label, descriptor in [("vacuum", VacuumState()), ("gkp-approx:0.3:1", approx_codeword(code, 1, 0.3)),
                              ("complex table", TabulatedState(*comb_table(aliased, 4)))]:
        yield f"{label} 64x16", descriptor, aliased


@pytest.mark.parametrize("ec_phase", [False, True], ids=["plain", "ec"])
def test_comb_route_matches_the_materialized_grid(code, ec_phase):
    logical = ec_channel_logical if ec_phase else logical_from_overlap
    for label, descriptor, grid in _comb_corpus(code):
        comb = comb_matrix(descriptor, grid, 16)
        psi = zak_transform(descriptor, grid, 16)
        gram = gkp._gram(comb, code, ec_phase)
        assert np.max(np.abs(gram - gkp._gram(psi, code, ec_phase))) <= 1e-14, label
        assert np.array_equal(np.diag(gram).imag, [0.0, 0.0]), label
        assert np.max(np.abs(logical(comb, code).matrix - logical(psi, code).matrix)) <= 1e-14, label
        for got, want in zip(stabilizer_residual(comb, code), stabilizer_residual(psi, code)):
            assert abs(got - want) <= 1e-14, label


def test_comb_route_refuses_a_grid_without_gauge_halves(code):
    grid = code.grid(68, 16)  # Nu/2 = 34 is not a multiple of 4
    for state in (comb_matrix(VacuumState(), grid, 16), zak_transform(VacuumState(), grid, 16)):
        with pytest.raises(ValueError, match="nu must be a positive multiple of 4, got 34"):
            logical_from_overlap(state, code)


def test_overflowing_comb_gram_is_refused_without_a_warning(code):
    # finite table values whose comb sums overflow: the Gram entries are inf and NaN
    table = TabulatedState([0.0, 3.5449077018110318], [1e308, 1e308])
    comb = comb_matrix(table, code.grid(64, 64), 16)
    for logical in (logical_from_overlap, ec_channel_logical):
        with pytest.raises(ZakError, match="logical matrix has non-finite entries"):
            logical(comb, code)


def _chain(psi, code):
    s = ssd.to_ssd(psi, code)
    return (ssd.gauge_trace(s), logical_from_overlap(psi, code), ssd.ec_gauge_trace(s),
            ec_channel_logical(psi, code), stabilizer_residual(psi, code))


@pytest.mark.parametrize(
    "name",
    ["gauge_trace", "logical_from_overlap", "ec_gauge_trace", "ec_channel_logical", "stabilizer_residual", "chain"],
)
def test_quadratic_statistics_form_no_grid_temporary(code, name):
    # the Gram entries and the residuals are reductions: no full-grid copy, and
    # the memo they leave on the state is O(nu + nv) floats and the two cross-row vectors
    grid = code.grid(512, 512)
    psi = random_state(grid, 63)
    s = ssd.to_ssd(psi, code)
    calls = {
        "gauge_trace": lambda: ssd.gauge_trace(s),
        "logical_from_overlap": lambda: logical_from_overlap(psi, code),
        "ec_gauge_trace": lambda: ssd.ec_gauge_trace(s),
        "ec_channel_logical": lambda: ec_channel_logical(psi, code),
        "stabilizer_residual": lambda: stabilizer_residual(psi, code),
        "chain": lambda: _chain(psi, code),
    }
    _, peak, retained = traced(calls[name])
    assert peak / psi.samples.nbytes <= 0.05
    assert retained <= 16 * (grid.nu + grid.nv) + 4096


# --- the memo of quadratic statistics -----------------------------------------


def _unfused_gram(psi, code, ec_phase):
    """The Gram matrix entry by entry, each half's own ``|psi|^2`` row sums and one block
    loop per cross entry: the reference that the fused pass matches bit for bit."""
    f, g = gkp._sectors(psi, code)
    mat = np.empty((2, 2), dtype=np.complex128)
    for ell, gamma in enumerate((f, g)):
        parts = np.ascontiguousarray(gamma.samples).view(np.float64)
        mat[ell, ell] = float(np.einsum("ij,ij->i", parts, parts).sum()) * gamma.grid.cell_area
    grid, area = f.grid, f.grid.cell_area
    weight = np.exp(1j * code.alpha * grid.v_values()) if ec_phase else None
    f, g = f.samples, g.samples
    step = max(1, 8192 // f.shape[1])
    rows = np.empty(len(f), dtype=np.complex128)
    for i in range(0, len(f), step):
        block = np.conjugate(g[i:i + step]) * f[i:i + step]
        rows[i:i + step] = block.sum(axis=1) if weight is None else block @ weight
    mat[0, 1] = rows.sum() * area
    mat[1, 0] = mat[0, 1].conjugate()
    return mat


def _fresh(psi):
    """A new state on ``psi``'s (frozen) samples, with an empty memo."""
    return ModularWavefunction(psi.grid, psi.samples)


def _memo_corpus(code):
    yield "random 512x512", random_state(code.grid(512, 512), 11)
    grid = code.grid(96, 90)
    yield "gkp-approx:0.3:1 96x90", apply_X(zak_transform(approx_codeword(code, 1, 0.3), grid, 16), 3 * grid.du)
    yield "vacuum 96x90", zak_transform(VacuumState(), grid, 16)


def _four_maps(psi, code, ec_first):
    s = ssd.to_ssd(psi, code)
    maps = [("trace", lambda: ssd.gauge_trace(s)), ("overlap", lambda: logical_from_overlap(psi, code)),
            ("ec-trace", lambda: ssd.ec_gauge_trace(s)), ("ec-channel", lambda: ec_channel_logical(psi, code))]
    return {name: fn() for name, fn in (maps[2:] + maps[:2] if ec_first else maps)}


def test_memoized_maps_are_bitwise_equal_in_either_order(code):
    for label, psi in _memo_corpus(code):
        plain_first, ec_first = _four_maps(_fresh(psi), code, False), _four_maps(_fresh(psi), code, True)
        for ec_phase, names in ((False, ("trace", "overlap")), (True, ("ec-trace", "ec-channel"))):
            reference = LogicalQubit.from_unnormalized(_unfused_gram(psi, code, ec_phase))
            for q in [results[name] for results in (plain_first, ec_first) for name in names]:
                assert np.array_equal(q.matrix, reference.matrix), label
                assert q.raw_trace == reference.raw_trace, label
        parts = np.ascontiguousarray(psi.samples).view(np.float64)
        unfused = float(np.einsum("ij,ij->i", parts, parts).sum()) * psi.grid.cell_area
        assert _fresh(psi).norm_squared() == psi.norm_squared() == unfused, label


def test_refused_grid_is_refused_in_either_order_and_memoizes_no_gram(code):
    psi = zak_transform(VacuumState(), code.grid(68, 16), 16)  # Nu/2 = 34 is not a multiple of 4
    for ec_first in (False, True, False):
        with pytest.raises(ValueError, match="nu must be a positive multiple of 4, got 34"):
            _four_maps(psi, code, ec_first)
    assert not any(key[0] == "gram" for key in psi._memo)


def test_one_cross_sum_pass_per_state_and_alpha(code, monkeypatch):
    passes = []
    cross_rows = gkp._cross_rows
    monkeypatch.setattr(gkp, "_cross_rows", lambda f, g, c: passes.append(c.alpha) or cross_rows(f, g, c))
    psi = _fresh(random_state(code.grid(64, 64), 3))
    near = GKPCode(code.alpha * (1 + 5e-13))  # a patch that == accepts
    assert near.full_patch() == code.full_patch() and near.alpha != code.alpha
    for _ in range(2):
        _chain(psi, code)
    assert passes == [code.alpha]
    ec_near = ec_channel_logical(psi, near)
    assert passes == [code.alpha, near.alpha]
    _chain(psi, near)
    assert passes == [code.alpha, near.alpha]
    # each alpha has its own EC Gram, the one a fresh state computes
    assert not np.array_equal(gkp._gram(psi, code, True), gkp._gram(psi, near, True))
    assert np.array_equal(ec_near.matrix, ec_channel_logical(_fresh(psi), near).matrix)
    assert np.array_equal(ec_channel_logical(psi, code).matrix, ec_channel_logical(_fresh(psi), code).matrix)


def test_memoized_statistics_are_read_only(code):
    psi = _fresh(random_state(code.grid(64, 64), 4))
    logical_from_overlap(psi, code)
    arrays = [*psi.marginals(), *psi._memo[("gram", code.alpha)]]  # the memo holds the two cross rows only
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    ec_channel_logical(psi, code)
    assert psi.marginals()[0] is arrays[0] and psi._memo[("gram", code.alpha)][1] is arrays[3]


def test_each_statistic_memoizes_only_the_passes_it_reads(code):
    # a lone norm or Gram reads the row marginal only; the column pass is the residual's
    base = random_state(code.grid(64, 64), 5)
    psi = _fresh(base)
    psi.norm_squared()
    assert set(psi._memo) == {("marginal", 1)}
    psi = _fresh(base)
    logical_from_overlap(psi, code)
    assert set(psi._memo) == {("marginal", 1), ("gram", code.alpha)}
    stabilizer_residual(psi, code)
    assert set(psi._memo) == {("marginal", 1), ("marginal", 0), ("gram", code.alpha)}


@pytest.mark.parametrize("alpha", [ALPHA, 1e-3, 0.1, 0.7, 1.3, 2.5, 123.456])
def test_full_and_gauge_grids_share_the_v_stage_bit_for_bit(alpha):
    # a comb's Gram diagonal is its whole rows on the full grid, halved: the gauge grid's measure
    code = GKPCode(alpha)
    for nu in (8, 64, 128, 1024, 4096):
        for nv in (2, 16, 64, 90, 256, 1024):
            full, gauge = code.grid(nu, nv), code.gauge_grid(nu // 2, nv)
            for name in ("dv", "du", "cell_area"):
                assert getattr(full, name) == getattr(gauge, name), (nu, nv, name)
            assert full.patch.b == gauge.patch.b, (nu, nv)
            assert full.v_values().tobytes() == gauge.v_values().tobytes(), (nu, nv)


def test_racing_threads_fill_the_memo_with_the_same_bits(code):
    # states are shared across threads: a racing fill computes the same value
    def results(psi):
        return [*((q.matrix.tobytes(), q.raw_trace) for q in _four_maps(psi, code, False).values()),
                stabilizer_residual(psi, code), psi.norm_squared()]

    base = random_state(code.grid(256, 256), 8)
    expected = results(_fresh(base))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            psi, start = _fresh(base), threading.Barrier(4)
            got = [None] * 4

            def work(k):
                start.wait(timeout=10)
                got[k] = results(psi)

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [expected] * 4
    finally:
        sys.setswitchinterval(interval)
