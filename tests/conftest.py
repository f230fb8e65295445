import functools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from erf_reference import codeword_gaussians, vacuum_gaussians
from zakgkp import GKPCode, ModularWavefunction, VacuumState, approx_codeword, zak_transform

ALPHA = math.sqrt(math.pi)


def pytest_configure(config):
    config.addinivalue_line("markers", "contract(*keys): the README library contract rules a test or table row pins")


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


#: the states each map is pinned on against its closed form: the vacuum at offset ``which`` when
#: ``delta`` is None, else the approximate codeword ``which`` of that delta
closed_form_states = pytest.mark.parametrize(
    "delta, which",
    [(None, 0.0), (None, 0.7), *((delta, ell) for delta in (0.5, 0.3, 0.2) for ell in (0, 1))],
    ids=["vacuum", "vacuum-0.7", *(f"delta-{delta}-ell-{ell}" for delta in (0.5, 0.3, 0.2) for ell in (0, 1))],
)


@functools.cache
def closed_form_state(delta, which, n):
    """``(psi, (w, mu, sigma))`` of a state of :data:`closed_form_states`: its transform on the
    default code's ``n x n`` grid (``m_max`` 16), made once per session, and its Gaussians."""
    code = GKPCode()
    if delta is None:
        descriptor, gaussians = VacuumState(which), vacuum_gaussians(which)
    else:
        descriptor, gaussians = approx_codeword(code, which, delta), codeword_gaussians(code.alpha, which, delta)
    return zak_transform(descriptor, code.grid(n, n), 16), gaussians


def mostly(ordinary, odd):
    """``ordinary`` three times in four and ``odd`` otherwise, so that many runs get past the checks."""
    return st.integers(0, 3).flatmap(lambda i: odd if i == 3 else ordinary)


#: numbers at the edges of the float range, and ints past it, which the library takes as infinities of their sign
EXTREME = [0.0, -1.0, 1e-320, 1e-300, 1e-5, 1e5, 2.5e153, 1e200, 1e308, math.inf, -math.inf, math.nan,
           10**400, -10**400]
#: the numbers the hypothesis tests of the library and the CLI draw
numbers = st.one_of(st.sampled_from(EXTREME), st.floats(-10, 10), st.floats())
