import math

import numpy as np
import pytest

from zakgkp import GKPCode, ModularWavefunction, VacuumState, approx_codeword, zak_transform

ALPHA = math.sqrt(math.pi)


@pytest.fixture(scope="session")
def code():
    return GKPCode()


@pytest.fixture(scope="session")
def grid64(code):
    return code.grid(64, 64)


@pytest.fixture(scope="session")
def vac64(code, grid64):
    return zak_transform(VacuumState(), grid64, 16)


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(grid.nu, grid.nv)) + 1j * rng.normal(size=(grid.nu, grid.nv))
    return ModularWavefunction(grid, raw).normalized()


@pytest.fixture(scope="session")
def corpus_256(code):
    """Acceptance corpus: vacuum plus approximate codewords at 256x256."""
    grid = code.grid(256, 256)
    states = {"vacuum": zak_transform(VacuumState(), grid, 16)}
    for delta in (0.2, 0.3, 0.4):
        for ell in (0, 1):
            key = f"gkp-approx:{delta}:{ell}"
            states[key] = zak_transform(approx_codeword(code, ell, delta), grid, 16)
    return states


def comb_table(grid, seed, m_range=3):
    """A complex tabulated state on the comb ``u_j + a m`` (``|m| <= m_range``) that the
    transform on ``grid`` probes: a Gaussian bump with seeded phases, about a fifth of
    the points left out."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate([grid.u_values() + grid.patch.a * m for m in range(-m_range, m_range + 1)])
    xs = xs[rng.random(xs.size) < 0.8]
    values = np.exp(-xs * xs / 2 + 2j * math.pi * rng.random(xs.size))
    return xs, values
