"""Modular phase and shift operators acting in the Zak representation.

Phase operators multiply by ``exp(i u t)`` or ``exp(i v t)``.  Shift
operators move the arguments; a horizontal shift by a full period ``a``
equals the phase ``exp(-i b v)`` (applied analytically, never by repeated
index wrapping), while a vertical shift by the full period ``2pi/b`` is
the identity.  The quadrature shifts decompose as ``Z(t) = P_U(t) T_V(t)``
and ``X(t) = T_U(t)``; operator products are read right-to-left.

Grid states translate by exact cyclic index shifts with analytic wrap
phases.  Shifts that are not grid multiples raise OffGridError.
"""

from __future__ import annotations

import cmath

import numpy as np

from .core import IdealZakState, ModularWavefunction, _frozen

__all__ = [
    "apply_phase_u",
    "apply_phase_v",
    "apply_translate_u",
    "apply_translate_v",
    "apply_X",
    "apply_Z",
]


def apply_phase_u(state, t):
    """P_U(t): multiply by ``exp(i u t)``."""
    if isinstance(state, IdealZakState):
        return state.map_points(lambda p, w: (p, w * cmath.exp(1j * p[0] * t)))
    return state.with_samples(_frozen(state.samples * np.exp(1j * t * state.grid.u_values())[:, None]))


def apply_phase_v(state, t):
    """P_V(t): multiply by ``exp(i v t)``."""
    if isinstance(state, IdealZakState):
        return state.map_points(lambda p, w: (p, w * cmath.exp(1j * p[1] * t)))
    return state.with_samples(_frozen(state.samples * np.exp(1j * t * state.grid.v_values())[None, :]))


def _shift_columns(psi: ModularWavefunction, n: int) -> np.ndarray:
    """Cyclic u shift by ``n`` columns with analytic wrap phases, in one new array.

    Full-grid revolutions become the phase ``exp(-i b k v)`` in one
    multiplication; the columns that wrap in the residual roll are written
    already multiplied by the wrap phase ``exp(-i b v)``.
    """
    s, b, v = psi.samples, psi.grid.patch.b, psi.grid.v_values()
    k, r = divmod(n, len(s))
    out = np.empty_like(s)
    np.multiply(s[len(s) - r:, :], np.exp(-1j * b * v)[None, :], out=out[:r, :])
    out[r:, :] = s[:len(s) - r, :]
    if k:
        out *= np.exp(-1j * b * k * v)[None, :]
    return out


def _kick_rows(psi: ModularWavefunction, n: int, t) -> np.ndarray:
    """Samples rolled by ``n`` rows along v and multiplied by ``exp(i u t)``, in one new array."""
    s, nv = psi.samples, psi.grid.nv
    r = n % nv
    phase = np.exp(1j * t * psi.grid.u_values())[:, None]
    out = np.empty_like(s)
    np.multiply(s[:, nv - r:], phase, out=out[:, :r])
    np.multiply(s[:, :nv - r], phase, out=out[:, r:])
    return out


def apply_translate_u(state, t):
    """T_U(t): shift the first argument by ``t`` (u-wraps cost ``exp(-i b v)``)."""
    if isinstance(state, IdealZakState):  # construction canonicalizes, wrap phase included
        return state.map_points(lambda p, w: ((p[0] + t, p[1]), w))
    return state.with_samples(_frozen(_shift_columns(state, state.grid.u_steps(t))))


def apply_translate_v(state, t):
    """T_V(t): shift the second argument by ``t`` (v-wraps are free)."""
    if isinstance(state, IdealZakState):  # construction canonicalizes
        return state.map_points(lambda p, w: ((p[0], p[1] + t), w))
    grid = state.grid
    return state.with_samples(_frozen(np.roll(state.samples, grid.v_steps(t) % grid.nv, axis=1)))


def apply_X(state, t):
    """Position shift ``X(t) = T_U(t)``."""
    return apply_translate_u(state, t)


def apply_Z(state, t):
    """Momentum kick ``Z(t) = P_U(t) T_V(t)`` (translation first, one result array on a grid)."""
    if isinstance(state, IdealZakState):
        return apply_phase_u(apply_translate_v(state, t), t)
    return state.with_samples(_frozen(_kick_rows(state, state.grid.v_steps(t), t)))
