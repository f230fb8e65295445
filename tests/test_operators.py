import cmath
import math

import numpy as np
import pytest

from conftest import ALPHA, closed_form_state, closed_form_states, random_state, traced
from erf_reference import zak_samples
from zakgkp import (
    GaussianComb,
    IdealZakState,
    MixtureState,
    ModularWavefunction,
    OffGridError,
    VacuumState,
    apply_phase_u,
    apply_phase_v,
    apply_translate_u,
    apply_translate_v,
    apply_X,
    apply_Z,
    codeword,
    stretch_rescale,
    zak_transform,
)
from zakgkp.core import comb_matrix

A = 2 * ALPHA


def max_diff(s1, s2):
    return float(np.max(np.abs(s1.samples - s2.samples)))


# closed-form oracle for the vacuum modular-position mean on the default
# patch [-a/4, 3a/4): sum of branch integrals of {x} |psi|^2 against
# |psi(x)|^2 = exp(-x^2)/sqrt(pi)
def vacuum_mean_u_oracle():
    def int_x_gauss(c, d):
        return (math.exp(-c * c) - math.exp(-d * d)) / (2 * math.sqrt(math.pi))

    def int_gauss(c, d):
        return 0.5 * (math.erf(d) - math.erf(c))

    total = 0.0
    for n in range(-8, 9):
        lo, hi = -A / 4 + n * A, 3 * A / 4 + n * A
        total += int_x_gauss(lo, hi) - n * A * int_gauss(lo, hi)
    return total


VACUUM_MEAN_U = 0.3720760883563489


def modular_means(psi):
    """Left-Riemann means of ``u |psi|^2`` and ``v |psi|^2`` over the patch, from the marginals."""
    grid = psi.grid
    rows, cols = psi.marginals()
    area = grid.cell_area
    return float(grid.u_values() @ rows) * area, float(grid.v_values() @ cols) * area


# --- phase operators -------------------------------------------------------


def test_phase_u_identity_and_logical_z(code):
    one = codeword(code, 1)
    assert apply_phase_u(one, 0.0).points == one.points
    z_on_one = apply_phase_u(one, math.pi / ALPHA)
    assert z_on_one.value_at(ALPHA, 0.0) == pytest.approx(-1.0, abs=1e-12)
    z_on_zero = apply_phase_u(codeword(code, 0), math.pi / ALPHA)
    assert z_on_zero.value_at(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_phase_v_stabilizer_eigenvalue(code):
    zero = codeword(code, 0)
    fixed = apply_phase_v(zero, -2 * ALPHA)
    assert fixed.value_at(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_phase_ops_pointwise_on_grid(grid64, vac64):
    t = 0.731
    u = grid64.u_values()
    v = grid64.v_values()
    pu = apply_phase_u(vac64, t)
    assert np.allclose(pu.samples, np.exp(1j * u * t)[:, None] * vac64.samples, atol=1e-15)
    pv = apply_phase_v(vac64, t)
    assert np.allclose(pv.samples, np.exp(1j * v * t)[None, :] * vac64.samples, atol=1e-15)


def test_modular_phases_commute(grid64):
    psi = random_state(grid64, 0)
    s, t = 1.3, -0.7
    ab = apply_phase_u(apply_phase_v(psi, t), s)
    ba = apply_phase_v(apply_phase_u(psi, s), t)
    assert max_diff(ab, ba) < 1e-15


# --- translations ----------------------------------------------------------


def test_translate_u_ideal_examples(code):
    zero = codeword(code, 0)
    full = apply_translate_u(zero, A)
    assert full.value_at(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    logical_x = apply_translate_u(zero, ALPHA)
    assert logical_x.value_at(ALPHA, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert logical_x.value_at(0.0, 0.0) == 0


def test_translate_u_grid_single_column(grid64):
    psi = random_state(grid64, 1)
    out = apply_translate_u(psi, grid64.du)
    v = grid64.v_values()
    expected = np.roll(psi.samples, 1, axis=0)
    expected[0, :] = expected[0, :] * np.exp(-1j * A * v)
    assert np.allclose(out.samples, expected, atol=1e-15)


def test_translate_u_periodicity_equals_phase(grid64):
    for seed in range(3):
        psi = random_state(grid64, seed)
        assert max_diff(apply_translate_u(psi, A), apply_phase_v(psi, -A)) == 0.0


def test_translate_v_periodicity_and_row_shift(grid64):
    psi = random_state(grid64, 2)
    assert max_diff(apply_translate_v(psi, 2 * math.pi / A), psi) == 0.0
    out = apply_translate_v(psi, grid64.dv)
    assert np.allclose(out.samples, np.roll(psi.samples, 1, axis=1), atol=0)


def test_translate_v_ideal_moves_point(code, grid64):
    zero = codeword(code, 0)
    v0 = grid64.v_values()[40]
    out = apply_translate_v(zero, v0)
    assert out.value_at(0.0, v0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "off_grid",
    [
        pytest.param(lambda psi, g: apply_translate_u(psi, 0.37 * g.du), id="apply_translate_u"),
        pytest.param(lambda psi, g: apply_translate_v(psi, 0.5 * g.dv), id="apply_translate_v"),
        pytest.param(lambda psi, g: apply_X(psi, 2.5 * g.du), id="apply_X"),
        pytest.param(lambda psi, g: apply_Z(psi, -0.25 * g.dv), id="apply_Z"),
    ],
)
def test_off_grid_translation_raises(grid64, off_grid):
    with pytest.raises(OffGridError):
        off_grid(random_state(grid64, 3), grid64)


@pytest.mark.parametrize(
    "op", [apply_phase_u, apply_phase_v, apply_translate_u, apply_translate_v, apply_X, apply_Z]
)
@pytest.mark.parametrize("kind", ["comb", "mixture"])
def test_operators_refuse_comb_and_mixture(grid64, vac64, op, kind):
    # neither has samples to shift: a ValueError naming the state to pass, not an AttributeError
    state = comb_matrix(VacuumState(), grid64, 4) if kind == "comb" else MixtureState([(1.0, vac64)])
    with pytest.raises(ValueError, match="zak_transform, or each component"):
        op(state, grid64.du)


def test_whole_period_components_are_analytic_phases(grid64):
    psi = random_state(grid64, 4)
    t = 7 * A + 3 * grid64.du
    direct = apply_translate_u(psi, t)
    composed = apply_phase_v(apply_translate_u(psi, 3 * grid64.du), -7 * A)
    assert max_diff(direct, composed) < 1e-13


# --- commutation and Weyl relations ---------------------------------------


def test_weyl_relation(grid64):
    for seed in range(10):
        psi = random_state(grid64, seed)
        s = (seed + 3) * grid64.dv
        t = (2 * seed + 5) * grid64.du
        zx = apply_Z(apply_X(psi, t), s)
        xz = apply_X(apply_Z(psi, s), t)
        assert max_diff(zx, xz.with_samples(cmath.exp(1j * s * t) * xz.samples)) < 1e-10


def test_commutation_same_variable_on_reciprocal_lattice(grid64):
    # the e^{ist} law for P_U/T_U holds exactly for s on the reciprocal
    # lattice (2 pi / a) Z, where wrap canonicalization is invisible
    for seed in range(10):
        psi = random_state(grid64, 100 + seed)
        s = (seed % 4 + 1) * 2 * math.pi / A
        t = (seed % 7 + 1) * grid64.du
        pt = apply_phase_u(apply_translate_u(psi, t), s)
        tp = apply_translate_u(apply_phase_u(psi, s), t)
        assert max_diff(pt, tp.with_samples(cmath.exp(1j * s * t) * tp.samples)) < 1e-10

        sv = (seed % 4 + 1) * A
        tv = (seed % 5 + 1) * grid64.dv
        pt = apply_phase_v(apply_translate_v(psi, tv), sv)
        tp = apply_translate_v(apply_phase_v(psi, sv), tv)
        assert max_diff(pt, tp.with_samples(cmath.exp(1j * sv * tv) * tp.samples)) < 1e-10


def test_cross_pairs_commute_exactly(grid64):
    psi = random_state(grid64, 11)
    s, t = 0.917, 5 * grid64.dv
    ab = apply_phase_u(apply_translate_v(psi, t), s)
    ba = apply_translate_v(apply_phase_u(psi, s), t)
    assert max_diff(ab, ba) == 0.0
    t = 5 * grid64.du
    ab = apply_phase_v(apply_translate_u(psi, t), s)
    ba = apply_translate_u(apply_phase_v(psi, s), t)
    assert max_diff(ab, ba) < 1e-15


def test_z_matches_its_decomposition(grid64):
    psi = random_state(grid64, 12)
    t = 9 * grid64.dv
    assert max_diff(apply_Z(psi, t), apply_phase_u(apply_translate_v(psi, t), t)) == 0.0


@pytest.mark.parametrize("op", [apply_phase_u, apply_phase_v, apply_translate_u, apply_translate_v, apply_X, apply_Z])
def test_an_ideal_state_is_mapped_in_one_construction(code, op, monkeypatch):
    # no operator phases the argument it shifts, so each maps every point once
    state = IdealZakState(code.full_patch(), {(0.3, 0.2): 1.0, (2.5, -0.7): 0.5j})
    built, init = [], IdealZakState.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(IdealZakState, "__init__", counted)
    op(state, 1.3)
    assert len(built) == 1


# --- stretched operators ----------------------------------------------------


def test_stretched_translation_wrap_phase(code, grid64):
    b = 2 * A
    psi = stretch_rescale(random_state(grid64, 13), b)
    v = psi.grid.v_values()
    out = apply_translate_u(psi, A)
    assert np.allclose(out.samples, np.exp(-1j * b * v)[None, :] * psi.samples, atol=1e-15)
    # ideal variant: point at (0, v0) picks up exp(-i b v0)
    point = IdealZakState(psi.grid.patch, {(0.0, v[7]): 1.0})
    moved = apply_translate_u(point, A)
    assert moved.value_at(0.0, v[7]) == pytest.approx(cmath.exp(-1j * b * v[7]), abs=1e-12)
    assert max_diff(apply_translate_v(psi, 2 * math.pi / b), psi) == 0.0
    assert max_diff(apply_translate_u(psi, 0.0), psi) == 0.0


def test_stretched_expectation_is_squeezed(code):
    grid = code.grid(128, 128)
    psi = zak_transform(GaussianComb(A, 0.2**2, 0.2**-2), grid, 16)
    psi = apply_translate_v(psi, 5 * grid.dv)  # give <v> a nonzero value
    _, ev = modular_means(psi)
    for b in (2 * A, A / 2):
        _, ev_s = modular_means(stretch_rescale(psi, b))
        assert ev_s == pytest.approx((A / b) * ev, rel=1e-12)


# --- modular expectations ---------------------------------------------------


def test_vacuum_expectations_against_oracle(code):
    assert vacuum_mean_u_oracle() == pytest.approx(VACUUM_MEAN_U, abs=1e-14)
    grid = code.grid(256, 256)
    psi = zak_transform(VacuumState(), grid, 16)
    eu, ev = modular_means(psi)
    # left-rule quadrature of the wrapped integrand converges first order
    assert eu == pytest.approx(VACUUM_MEAN_U, abs=0.01)
    assert abs(ev) < grid.dv
    grid2 = code.grid(512, 512)
    eu2, ev2 = modular_means(zak_transform(VacuumState(), grid2, 16))
    richardson = 2 * eu2 - eu
    assert richardson == pytest.approx(VACUUM_MEAN_U, abs=2e-4)
    assert abs(ev2) < abs(ev)


def test_translate_shifts_mean(code):
    grid = code.grid(128, 128)
    psi = zak_transform(GaussianComb(A, 0.2**2, 0.2**-2), grid, 16)
    eu, _ = modular_means(psi)
    eu_shifted, _ = modular_means(apply_translate_u(psi, grid.du))
    assert eu_shifted - eu == pytest.approx(grid.du, abs=1e-6)


def test_uniform_state_mean(code, grid64):
    samples = np.full((64, 64), 1 / math.sqrt(2 * math.pi), dtype=complex)
    psi = ModularWavefunction(grid64, samples)
    eu, _ = modular_means(psi)
    # left-node sampling puts the discrete mean half a cell below a/4
    assert eu == pytest.approx(A / 4 - grid64.du / 2, abs=1e-12)
    assert abs(eu - A / 4) < grid64.du


def test_z_grid_rule_moves_and_phases(grid64):
    # sample at (u, v) acquires exp(i u t) and moves to v + t
    psi = random_state(grid64, 15)
    m = 7
    t = m * grid64.dv
    out = apply_Z(psi, t)
    u = grid64.u_values()
    expected = np.roll(psi.samples, m, axis=1) * np.exp(1j * u * t)[:, None]
    assert np.allclose(out.samples, expected, atol=1e-15)


# --- the shift kernels against roll-then-phase ---------------------------------


def _shift_counts(n):
    return [0, 1, -1, n - 1, -(n - 1), n, -n, 3 * n + 5, -(2 * n + 3)]


def _ideal_states(code):
    spread = [((0.3, -0.2), 0.6 - 0.8j), ((2.9, 1.1), -1j), ((-0.4, 0.0), 0.5), ((3.4, -1.7), 1.0)]
    return [codeword(code, 0), codeword(code, 1), IdealZakState(code.full_patch(), spread)]


# operator: (shifts v by t, phase exp(i t u), phase exp(i t v))
V_SHIFTS_AND_PHASES = {
    apply_Z: (True, True, False),
    apply_translate_v: (True, False, False),
    apply_phase_u: (False, True, False),
    apply_phase_v: (False, False, True),
}


def test_z_is_roll_then_phase_bit_for_bit(code):
    # with every operator that shares its v-roll or a phase: grids against np.roll and
    # broadcast phases, ideal states against the moved and phased point list
    grid = code.grid(24, 40)
    psi = random_state(grid, 91)
    u, v = grid.u_values(), grid.v_values()
    for op, (shifts, phase_u, phase_v) in V_SHIFTS_AND_PHASES.items():
        for m in _shift_counts(grid.nv):
            t = m * grid.dv
            expected = np.roll(psi.samples, m % grid.nv, axis=1) if shifts else psi.samples
            if phase_u:
                expected = expected * np.exp(1j * t * u)[:, None]
            if phase_v:
                expected = expected * np.exp(1j * t * v)[None, :]
            assert np.array_equal(op(psi, t).samples, expected), (op.__name__, m)
            for state in _ideal_states(code):
                points = []
                for (x, y), w in state.items():
                    if phase_u:
                        w *= cmath.exp(1j * t * x)
                    if phase_v:
                        w *= cmath.exp(1j * t * y)
                    points.append(((x, y + t) if shifts else (x, y), w))
                expected_points = IdealZakState(state.patch, points).points
                assert op(state, t).points == expected_points, (op.__name__, m, state)


def test_x_is_roll_then_wrap_phase_bit_for_bit(code):
    # a shift by (k Nu + r) du turns the r wrapped rows k + 1 times by exp(-i b v) and the
    # others k times, one net factor per block; a block with no net turn is the exact roll
    grid = code.grid(24, 40)
    psi = random_state(grid, 92)
    b, v = grid.patch.b, grid.v_values()
    for op in (apply_X, apply_translate_u):
        for m in _shift_counts(grid.nu):
            k, r = divmod(m, grid.nu)
            t = m * grid.du
            shifted = op(psi, t).samples
            rolled = np.roll(psi.samples, m, axis=0)
            for rows, n in ((slice(None, r), k + 1), (slice(r, None), k)):
                expected = rolled[rows] * np.exp(-1j * (b * n) * v)[None, :] if n else rolled[rows]
                assert np.array_equal(shifted[rows], expected), (op.__name__, m, n)
            for state in _ideal_states(code):
                expected_points = IdealZakState(state.patch, [((x + t, y), w) for (x, y), w in state.items()]).points
                assert op(state, t).points == expected_points, (op.__name__, m, state)


def test_apply_z_allocates_only_its_result(code):
    psi = random_state(code.grid(512, 512), 93)
    kicked, peak, _ = traced(lambda: apply_Z(psi, -5 * psi.grid.dv))
    assert peak <= 1.2 * kicked.samples.nbytes


@pytest.mark.parametrize("n", [64, 256])
@closed_form_states
def test_phases_and_the_v_translate_match_the_closed_form(code, n, delta, which):
    # the samples summed over the Gaussians times exp(i t u) or exp(i t v), and summed at v - t
    # for whole steps, one past a v period: pins each phase's coordinate and sign and the
    # translate's direction and free wrap (the relative errors are 1.8e-14 at most)
    psi, gaussians = closed_form_state(delta, which, n)
    u, v = psi.grid.u_values(), psi.grid.v_values()
    want = zak_samples(code.alpha, *gaussians, u, v)
    tol = 1e-13 * np.max(np.abs(want))
    for t in (0.7, -2.3):
        assert np.max(np.abs(apply_phase_u(psi, t).samples - np.exp(1j * t * u)[:, None] * want)) <= tol
        assert np.max(np.abs(apply_phase_v(psi, t).samples - np.exp(1j * t * v) * want)) <= tol
    for steps in (3, -5, n + 2):
        t = steps * psi.grid.dv
        assert np.max(np.abs(apply_translate_v(psi, t).samples - zak_samples(code.alpha, *gaussians, u, v - t))) <= tol
