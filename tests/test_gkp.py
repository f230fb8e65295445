import math

import numpy as np
import pytest

from conftest import ALPHA
from zakgkp import (
    DegenerateLogicalError,
    GKPCode,
    GridMismatchError,
    IdealZakState,
    LogicalQubit,
    MixtureState,
    ModularWavefunction,
    NormalizationError,
    ZakError,
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
from zakgkp import ssd

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
    qutrit = GKPCode(alpha=ALPHA, dim=3)
    two = codeword(qutrit, 2)
    assert two.value_at(2 * qutrit.period / 3, 0.0) == 1
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
    assert gauge.area == pytest.approx(math.pi)
    assert patch.area == pytest.approx(2 * math.pi)


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
    gauge = state.gauge_grid
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
    from zakgkp import vacuum

    grid = code.grid(512, 512)
    q = logical_from_overlap(zak_transform(vacuum(), grid, 16), code)
    assert q.matrix[0, 0].real == pytest.approx(VACUUM_RHO00, abs=1e-9)
    assert q.matrix[1, 1].real == pytest.approx(VACUUM_RHO11, abs=1e-9)
    assert q.matrix[0, 1] == pytest.approx(VACUUM_RHO01, abs=1e-9)
    assert q.purity == pytest.approx(VACUUM_PURITY, abs=1e-9)
    assert q.raw_trace == pytest.approx(1.0, abs=1e-9)
    assert q.matrix[0, 1].imag == pytest.approx(0.0, abs=1e-12)
    assert q.matrix[0, 0].real > q.matrix[1, 1].real > 0
    # coarser grids converge to the same values
    q256 = logical_from_overlap(
        zak_transform(vacuum(), code.grid(256, 256), 16), code
    )
    assert q256.matrix[0, 0].real == pytest.approx(VACUUM_RHO00, abs=1e-3)
    assert q256.matrix[0, 1].real == pytest.approx(VACUUM_RHO01, abs=2e-3)


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
        gauge = state.gauge_grid
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
    assert q_ec.matrix[0, 0] == pytest.approx(q_plain.matrix[0, 0], abs=1e-10)
    assert q_ec.matrix[1, 1] == pytest.approx(q_plain.matrix[1, 1], abs=1e-10)


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


def test_logical_qubit_validation():
    with pytest.raises(Exception):
        LogicalQubit.from_unnormalized(np.array([[1, 1j], [2j, 1]]))
    with pytest.raises(DegenerateLogicalError):
        LogicalQubit.from_unnormalized(np.zeros((2, 2)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ZakError, match="non-finite"):
            LogicalQubit.from_unnormalized(np.array([[1, 0], [0, bad]], dtype=complex))
    q = LogicalQubit.from_unnormalized(np.array([[3, 1], [1, 1]], dtype=complex))
    assert q.raw_trace == 4.0
    x, y, z = q.bloch
    assert (x, y, z) == pytest.approx((0.5, 0.0, 0.5))
    assert q.purity == pytest.approx(np.trace(q.matrix @ q.matrix).real)


def test_degenerate_logical_error(code, grid64):
    # all support on the second v half, none anywhere: zero everywhere
    psi = ModularWavefunction(grid64, np.zeros((64, 64)))
    with pytest.raises(DegenerateLogicalError):
        logical_from_overlap(psi, code)


@pytest.mark.parametrize("representation", ["ideal", "grid"])
@pytest.mark.parametrize(
    "extract",
    [
        lambda state, code: ec_kraus_amplitudes(state, code, syndrome_reduce(code, 0.0, 0.0)),
        logical_from_overlap,
        ec_channel_logical,
    ],
    ids=["ec_kraus_amplitudes", "logical_from_overlap", "ec_channel_logical"],
)
def test_foreign_patch_rejected(code, extract, representation):
    foreign = GKPCode(alpha=2.0)
    if representation == "ideal":
        state = codeword(foreign, 1)
    else:
        state = zak_transform(approx_codeword(foreign, 1, 0.4), foreign.grid(32, 32), 16)
    with pytest.raises(GridMismatchError):
        extract(state, code)


@pytest.mark.parametrize("representation", ["ideal", "grid"])
@pytest.mark.parametrize(
    "extract",
    [ssd.to_ssd, logical_from_overlap, ec_channel_logical],
    ids=["to_ssd", "logical_from_overlap", "ec_channel_logical"],
)
def test_non_qubit_code_rejected(extract, representation):
    # the split into two logical sectors exists only for qubit codes
    qutrit = GKPCode(dim=3)
    if representation == "ideal":
        state = codeword(qutrit, 1)
    else:
        state = zak_transform(approx_codeword(qutrit, 1, 0.4), qutrit.grid(32, 32), 16)
    with pytest.raises(ValueError, match="dim=2"):
        extract(state, qutrit)


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


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_qudit_codeword_residuals(dim):
    qudit = GKPCode(alpha=1.3, dim=dim)
    for ell in range(dim):
        r1, r2 = stabilizer_residual(codeword(qudit, ell), qudit)
        assert r1 < 1e-12 and r2 < 1e-12


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
