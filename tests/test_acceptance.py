"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Tolerances are fixed here and nowhere else.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ALPHA, random_state
from zakgkp import (
    GaussianComb,
    IdealZakState,
    SSDState,
    VacuumState,
    apply_phase_u,
    apply_phase_v,
    apply_translate_u,
    apply_translate_v,
    apply_X,
    apply_X_ssd,
    apply_Z,
    apply_Z_ssd,
    approx_codeword,
    codeword,
    ec_channel_logical,
    ec_gauge_trace,
    ec_kraus_amplitudes,
    from_ssd,
    gauge_trace,
    inverse_zak_transform,
    logical_from_overlap,
    pp_bridge,
    pp_bridge_inverse,
    stabilizer_residual,
    syndrome_reduce,
    to_ssd,
    zak_transform,
)

A = 2 * ALPHA


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {text}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {text}")


def corpus_descriptors(code):
    states = {"vacuum": VacuumState()}
    for delta in (0.2, 0.3, 0.4):
        for ell in (0, 1):
            states[f"gkp-approx:{delta}:{ell}"] = approx_codeword(code, ell, delta)
    return states


@pytest.fixture(scope="module")
def corpus_128(code):
    grid = code.grid(128, 128)
    return {
        key: zak_transform(desc, grid, 16)
        for key, desc in corpus_descriptors(code).items()
    }


def test_criterion_01_isometry(code):
    with criterion(1, "Zak isometry < 1e-6 relative at 256x256, m_max=16, < 5 s/state"):
        grid = code.grid(256, 256)
        for desc in (
            VacuumState(),
            GaussianComb(A, 0.2**2, 0.2**-2),
            GaussianComb(A, 0.4**2, 0.4**-2),
        ):
            start = time.perf_counter()
            psi = zak_transform(desc, grid, 16)
            elapsed = time.perf_counter() - start
            rel = abs(psi.norm_squared() - desc.norm_squared()) / desc.norm_squared()
            assert rel < 1e-6
            assert elapsed < 5.0


def test_criterion_02_inversion_roundtrip(code):
    with criterion(2, "inverse transform recovers psi_x at 64 points < 1e-6"):
        grid = code.grid(256, 256)
        for desc in (
            VacuumState(),
            GaussianComb(A, 0.2**2, 0.2**-2),
            GaussianComb(A, 0.4**2, 0.4**-2),
        ):
            psi = zak_transform(desc, grid, 16)
            count = 0
            for n in (-1, 0, 1):
                for j in range(0, grid.nu, 12):
                    if count == 64:
                        break
                    u = grid.u_values()[j]
                    expected = complex(desc.evaluate(np.array(u + A * n)))
                    assert abs(inverse_zak_transform(psi, n, u) - expected) < 1e-6
                    count += 1
            assert count == 64


def test_criterion_03_operator_algebra(code):
    with criterion(3, "operator algebra on 10 seeded random states < 1e-10 entrywise"):
        grid = code.grid(128, 128)
        rng = np.random.default_rng(2024)
        for seed in range(10):
            psi = random_state(grid, seed)
            t = int(rng.integers(1, grid.nu)) * grid.du
            s = int(rng.integers(1, grid.nv)) * grid.dv

            zx = apply_Z(apply_X(psi, t), s)
            xz = apply_X(apply_Z(psi, s), t)
            assert np.max(np.abs(zx.samples - cmath.exp(1j * s * t) * xz.samples)) < 1e-10

            # commutation phases, with the phase parameter on the exact lattice
            su = int(rng.integers(1, 5)) * 2 * math.pi / A
            pt = apply_phase_u(apply_translate_u(psi, t), su)
            tp = apply_translate_u(apply_phase_u(psi, su), t)
            assert np.max(np.abs(pt.samples - cmath.exp(1j * su * t) * tp.samples)) < 1e-10

            sv = int(rng.integers(1, 5)) * A
            pt = apply_phase_v(apply_translate_v(psi, s), sv)
            tp = apply_translate_v(apply_phase_v(psi, sv), s)
            assert np.max(np.abs(pt.samples - cmath.exp(1j * sv * s) * tp.samples)) < 1e-10

            d = apply_translate_u(psi, A).samples - apply_phase_v(psi, -A).samples
            assert np.max(np.abs(d)) < 1e-10
            d = apply_translate_v(psi, 2 * math.pi / A).samples - psi.samples
            assert np.max(np.abs(d)) < 1e-10
            d = apply_Z(psi, s).samples - apply_phase_u(apply_translate_v(psi, s), s).samples
            assert np.max(np.abs(d)) < 1e-10


def test_criterion_04_codeword_exactness(code):
    with criterion(4, "codewords: stabilizer residuals at zero, exact logical matrices"):
        for ell in (0, 1):
            word = codeword(code, ell)
            r1, r2 = stabilizer_residual(word, code)
            assert r1 == 0.0
            assert r2 < 1e-12  # exp(2 pi i) roundoff only
            q = gauge_trace(to_ssd(word, code))
            expected = np.zeros((2, 2), dtype=complex)
            expected[ell, ell] = 1
            assert np.array_equal(q.matrix, expected)


def test_criterion_05_two_route_equivalence(code, corpus_256):
    with criterion(5, "logical_from_overlap vs gauge_trace < 1e-10 on the corpus"):
        for psi in corpus_256.values():
            q1 = logical_from_overlap(psi, code)
            q2 = gauge_trace(to_ssd(psi, code))
            assert np.max(np.abs(q1.matrix - q2.matrix)) < 1e-10
            assert abs(q1.raw_trace - q2.raw_trace) < 1e-10


def test_criterion_06_ec_cross_route(code, corpus_128):
    with criterion(6, "Kraus amplitudes vs SSD form < 1e-10; syndrome-averaged outer products < 1e-6"):
        for psi in corpus_128.values():
            state = to_ssd(psi, code)
            gauge = state.gamma[0].grid
            u_vals, v_vals = gauge.u_values(), gauge.v_values()
            for j in range(0, gauge.nu, 4):
                for k in range(0, gauge.nv, 4):
                    syn = syndrome_reduce(code, u_vals[j], v_vals[k])
                    c0, c1 = ec_kraus_amplitudes(psi, code, syn)
                    g0 = state.gamma[0].samples[j, k]
                    g1 = cmath.exp(-1j * ALPHA * v_vals[k]) * state.gamma[1].samples[j, k]
                    assert abs(c0 - g0) < 1e-10
                    assert abs(c1 - g1) < 1e-10

            # every grid syndrome at once: full-mode slices vs gauge-split form
            half = psi.grid.nu // 2
            for ell in (0, 1):
                ec_phase = np.exp(-1j * ALPHA * ell * v_vals)[None, :]
                full_route = ec_phase * psi.samples[ell * half : (ell + 1) * half, :]
                ssd_route = ec_phase * state.gamma[ell].samples
                assert np.max(np.abs(full_route - ssd_route)) < 1e-10

            # syndrome average of outer products, from the full-mode slices
            half = psi.grid.nu // 2
            c = np.stack(
                [
                    psi.samples[:half, :],
                    np.exp(-1j * ALPHA * v_vals)[None, :] * psi.samples[half:, :],
                ]
            )
            averaged = np.einsum("ijk,ljk->il", c, c.conj()) * gauge.cell_area
            for qubit in (ec_channel_logical(psi, code), ec_gauge_trace(state)):
                raw = qubit.matrix * qubit.raw_trace
                assert np.max(np.abs(averaged - raw)) < 1e-6


def test_criterion_07_povm_completeness(code, corpus_128):
    with criterion(7, "EC POVM completeness: syndrome integral equals the norm < 1e-6"):
        for psi in corpus_128.values():
            state = to_ssd(psi, code)
            gauge = state.gamma[0].grid
            v = gauge.v_values()
            mass = 0.0
            for ell in (0, 1):
                c_ell = np.exp(-1j * ALPHA * ell * v)[None, :] * state.gamma[ell].samples
                mass += float(np.sum(np.abs(c_ell) ** 2)) * gauge.cell_area
            assert abs(mass - psi.norm_squared()) < 1e-6


def test_criterion_08_counter_rotation(code):
    with criterion(8, "EC trace undoes small shifts exactly; plain trace shows e^{i alpha l v}"):
        grid = code.grid(64, 64)
        gauge = to_ssd(zak_transform(VacuumState(), grid, 16), code).gamma[0].grid
        nodes = [
            (gauge.u_values()[j], gauge.v_values()[k])
            for j in (0, 7, 16, 31)
            for k in (0, 9, 32, 63)
        ]
        plus = IdealZakState(
            code.full_patch(),
            {(0.0, 0.0): 1 / math.sqrt(2), (ALPHA, 0.0): 1 / math.sqrt(2)},
        )
        for ut, vt in nodes:
            for ell in (0, 1):
                corrupted = apply_X(apply_Z(codeword(code, ell), vt), ut)
                q = ec_gauge_trace(to_ssd(corrupted, code))
                assert q.matrix[ell, ell] == pytest.approx(1.0, abs=1e-12)
                assert q.matrix[0, 1] == 0 and q.matrix[1, 0] == 0
            corrupted_plus = apply_X(apply_Z(plus, vt), ut)
            q_plain = gauge_trace(to_ssd(corrupted_plus, code))
            assert q_plain.matrix[1, 0] == pytest.approx(
                0.5 * cmath.exp(1j * ALPHA * vt), abs=1e-12
            )
            q_ec = ec_gauge_trace(to_ssd(corrupted_plus, code))
            assert q_ec.matrix[1, 0] == pytest.approx(0.5, abs=1e-12)


def test_criterion_09_ssd_consistency(code):
    with criterion(9, "SSD round trip bitwise; decomposed shifts vs full mode < 1e-10"):
        grid = code.grid(64, 64)
        for seed in range(3):
            psi = random_state(grid, 300 + seed)
            s = to_ssd(psi, code)
            assert np.array_equal(from_ssd(s).samples, psi.samples)
            # includes wrap-triggering fractional shifts and whole periods
            for t in (grid.du, ALPHA / 4, ALPHA, ALPHA + 5 * grid.du, -ALPHA / 2, 2 * ALPHA):
                diff = from_ssd(apply_X_ssd(s, t)).samples - apply_X(psi, t).samples
                assert np.max(np.abs(diff)) < 1e-10
            for t in (grid.dv, 9 * grid.dv, math.pi / ALPHA):
                diff = from_ssd(apply_Z_ssd(s, t)).samples - apply_Z(psi, t).samples
                assert np.max(np.abs(diff)) < 1e-10
        # ideal wrap case: the entangling factor flips the logical index
        gauge = code.gauge_patch()
        start = SSDState(code, IdealZakState(gauge, {(3 * ALPHA / 8, 0.25): 1.0}), IdealZakState(gauge, {}))
        moved = apply_X_ssd(start, ALPHA / 4)
        direct = to_ssd(apply_X(from_ssd(start), ALPHA / 4), code)
        assert moved.gamma[0].points == {}
        for (gu, gv), w in direct.gamma[1].points.items():
            assert moved.gamma[1].points[(gu, gv)] == pytest.approx(w, abs=1e-12)


def test_criterion_10_pp_bridge_roundtrip(code):
    with criterion(10, "partitioned-position bridge round trip < 1e-10"):
        for seed in range(3):
            s = to_ssd(random_state(code.grid(64, 64), 400 + seed), code)
            back = pp_bridge_inverse(pp_bridge(s))
            for ell in (0, 1):
                diff = back.gamma[ell].samples - s.gamma[ell].samples
                assert np.max(np.abs(diff)) < 1e-10


def test_criterion_11_monotonicity_sweep(code):
    with criterion(11, "fidelity and purity nondecreasing as delta shrinks, < 30 s"):
        start = time.perf_counter()
        grid = code.grid(256, 256)
        fidelities, purities = [], []
        for delta in (0.5, 0.4, 0.3, 0.2, 0.1):
            psi = zak_transform(approx_codeword(code, 0, delta), grid, 16)
            q = gauge_trace(to_ssd(psi, code))
            fidelities.append(q.fidelity(0))
            purities.append(q.purity)
        assert all(b >= a for a, b in zip(fidelities, fidelities[1:]))
        assert all(b >= a for a, b in zip(purities, purities[1:]))
        assert time.perf_counter() - start < 30.0


def test_criterion_12_figure_reproduction(code, corpus_256):
    with criterion(12, "vacuum heatmap max/mirror; 4x4 array corner phases < 1e-6"):
        vac = corpus_256["vacuum"]
        grid = vac.grid
        mags = np.abs(vac.samples)
        assert np.unravel_index(np.argmax(mags), mags.shape) == (grid.u_index(0.0), grid.v_index(0.0))
        mirrored = np.roll(mags[:, ::-1], 1, axis=1)  # v_k -> -v_k up to the period
        assert np.max(np.abs(mags - mirrored)) < 1e-10

        # displaced array of an approximate codeword on a grid with
        # dx = alpha/3 and dy = pi/(2 alpha) on nodes
        panel_grid = code.grid(96, 96)
        psi = zak_transform(approx_codeword(code, 0, 0.3), panel_grid, 16)
        dx, dy = ALPHA / 3, math.pi / (2 * ALPHA)
        j0, k0 = panel_grid.u_index(0.0), panel_grid.v_index(0.0)
        values = {}
        for j, k in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            panel = apply_X(apply_Z(psi, k * dy), j * dx)
            # the displaced origin: the image of the (0, 0) node under X Z
            ju = (j0 + round(j * dx / panel_grid.du)) % panel_grid.nu
            kv = (k0 + round(k * dy / panel_grid.dv)) % panel_grid.nv
            values[(j, k)] = panel.samples[ju, kv]
        reference = values[(0, 0)]
        assert abs(reference) > 0.1
        for value in values.values():
            assert cmath.phase(value / reference) == pytest.approx(0.0, abs=1e-6)
            assert abs(value - reference) < 1e-6 * abs(reference)
