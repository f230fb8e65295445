"""Modular phase and shift operators acting in the Zak representation.

Phase operators multiply by ``exp(i u t)`` or ``exp(i v t)``.  Shift
operators move the arguments; a horizontal shift by a full period ``a``
equals the phase ``exp(-i b v)`` (applied analytically, never by repeated
index wrapping), while a vertical shift by the full period ``2pi/b`` is
the identity.  The quadrature shifts decompose as ``Z(t) = P_U(t) T_V(t)``
and ``X(t) = T_U(t)``; operator products are read right-to-left.

Grid states translate by exact cyclic index shifts with analytic wrap
phases.  Shifts that are not grid multiples raise unless
``interpolate=True``, in which case the result is a flagged linear blend
of the two neighboring exact shifts.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import modular
from .core import IdealZakState, ModularWavefunction, _frozen
from .errors import NormalizationError

__all__ = [
    "apply_phase_u",
    "apply_phase_v",
    "apply_translate_u",
    "apply_translate_v",
    "apply_X",
    "apply_Z",
    "apply_phase_u_unrestricted",
    "modular_expectations",
]


def apply_phase_u(state, t):
    """P_U(t): multiply by ``exp(i u t)``."""
    if isinstance(state, IdealZakState):
        return state.map_points(lambda p, w: (p, w * cmath.exp(1j * p[0] * t)))
    return state.with_samples(_frozen(_phase_u_samples(state, t)))


def apply_phase_v(state, t):
    """P_V(t): multiply by ``exp(i v t)``."""
    if isinstance(state, IdealZakState):
        return state.map_points(lambda p, w: (p, w * cmath.exp(1j * p[1] * t)))
    return state.with_samples(_frozen(_phase_v_samples(state, t)))


def _phase_u_samples(psi: ModularWavefunction, t) -> np.ndarray:
    """A new writeable array of ``psi``'s samples times ``exp(i u t)``."""
    return psi.samples * np.exp(1j * t * psi.grid.u_values())[:, None]


def _phase_v_samples(psi: ModularWavefunction, t) -> np.ndarray:
    """A new writeable array of ``psi``'s samples times ``exp(i v t)``."""
    return psi.samples * np.exp(1j * t * psi.grid.v_values())[None, :]


def _shift_columns(psi: ModularWavefunction, n: int) -> np.ndarray:
    """Cyclic u shift by ``n`` columns with analytic wrap phases.

    Full-grid revolutions become the phase ``exp(-i b k v)`` in one
    multiplication; the residual roll phases only the columns that wrap.
    """
    grid = psi.grid
    b = grid.patch.b
    v = grid.v_values()
    k, r = divmod(n, grid.nu)
    out = np.roll(psi.samples, r, axis=0)
    if r:
        out[:r, :] *= np.exp(-1j * b * v)[None, :]
    if k:
        out = out * np.exp(-1j * b * k * v)[None, :]
    return out


def apply_translate_u(state, t, interpolate=False):
    """T_U(t): shift the first argument by ``t`` (u-wraps cost ``exp(-i b v)``)."""
    if isinstance(state, IdealZakState):  # construction canonicalizes, wrap phase included
        return state.map_points(lambda p, w: ((p[0] + t, p[1]), w))

    grid = state.grid
    exact = round(t / grid.du)
    offset = t / grid.du - exact
    if abs(offset) <= 1e-9 or not interpolate:
        n = grid.u_steps(t)  # raises OffGridError when off-grid and not interpolating
        return state.with_samples(_frozen(_shift_columns(state, n)))
    n0 = math.floor(t / grid.du)
    w = t / grid.du - n0
    blended = (1 - w) * _shift_columns(state, n0) + w * _shift_columns(state, n0 + 1)
    return state.with_samples(_frozen(blended))


def apply_translate_v(state, t, interpolate=False):
    """T_V(t): shift the second argument by ``t`` (v-wraps are free)."""
    if isinstance(state, IdealZakState):  # construction canonicalizes
        return state.map_points(lambda p, w: ((p[0], p[1] + t), w))

    grid = state.grid
    exact = round(t / grid.dv)
    offset = t / grid.dv - exact
    if abs(offset) <= 1e-9 or not interpolate:
        n = grid.v_steps(t)
        return state.with_samples(_frozen(np.roll(state.samples, n % grid.nv, axis=1)))
    n0 = math.floor(t / grid.dv)
    w = t / grid.dv - n0
    blended = (1 - w) * np.roll(state.samples, n0 % grid.nv, axis=1) + w * np.roll(
        state.samples, (n0 + 1) % grid.nv, axis=1
    )
    return state.with_samples(_frozen(blended))


def apply_X(state, t, interpolate=False):
    """Position shift ``X(t) = T_U(t)``."""
    return apply_translate_u(state, t, interpolate=interpolate)


def apply_Z(state, t, interpolate=False):
    """Momentum kick ``Z(t) = P_U(t) T_V(t)`` (translation first)."""
    return apply_phase_u(apply_translate_v(state, t, interpolate=interpolate), t)


def apply_phase_u_unrestricted(state: IdealZakState, t):
    """P_U(t) on a possibly uncanonicalized ideal state.

    The phase uses the fractional part of the raw first coordinate, which
    is what the modular position operator sees; the result is returned in
    canonical form.
    """
    patch = state.patch
    out = {}
    for (x, y), w in state.items():
        frac = modular.frac_part(x, patch.a, -patch.u_min)
        out[(x, y)] = w * cmath.exp(1j * t * frac)
    return IdealZakState(patch, out, canonicalize=True)


def modular_expectations(psi: ModularWavefunction, norm_tol=1e-8):
    """Expectation values of the modular position and momentum operators.

    Left-Riemann quadrature of ``u |psi|^2`` and ``v |psi|^2`` over the
    patch.  The state must be normalized to within ``norm_tol``.
    """
    norm = psi.norm()
    if abs(norm - 1) > norm_tol:
        raise NormalizationError(norm, f"modular_expectations requires a normalized state, got norm {norm!r}")
    grid = psi.grid
    weights = np.abs(psi.samples) ** 2 * grid.cell_area
    eu = float(np.sum(grid.u_values()[:, None] * weights))
    ev = float(np.sum(grid.v_values()[None, :] * weights))
    return eu, ev
