"""Modular phase and shift operators acting in the Zak representation.

Phase operators multiply by ``exp(i u t)`` or ``exp(i v t)``.  Shift
operators move the arguments; a horizontal shift by a full period ``a``
equals the phase ``exp(-i b v)`` (applied analytically, never by repeated
index wrapping), while a vertical shift by the full period ``2pi/b`` is
the identity.  The quadrature shifts decompose as ``Z(t) = P_U(t) T_V(t)``
and ``X(t) = T_U(t)``; operator products are read right-to-left.

Grid states translate by exact cyclic index shifts with analytic wrap
phases.  Shifts that are not grid multiples, NaN and infinity included,
raise OffGridError; a non-finite phase raises ValueError, and a finite one
whose argument ``t*x`` overflows gives NaN samples, with no numpy warning.
Any other state, an ``SSDState``, a ``CombMatrix`` or a ``MixtureState``, raises ValueError.
"""

from __future__ import annotations

import cmath

import numpy as np

from .core import IdealZakState, ModularWavefunction, _finite, _float, _frozen
from .errors import _kind

__all__ = [
    "apply_phase_u",
    "apply_phase_v",
    "apply_translate_u",
    "apply_translate_v",
    "apply_X",
    "apply_Z",
]


# a grid phase argument t*x past the float range: NaN samples, which the writers and logical maps refuse
@np.errstate(over="ignore", invalid="ignore")
def _displace(state, pu=None, pv=None, su=None, sv=None):
    """``P_U(pu) P_V(pv) T_U(su) T_V(sv) state``, the displacement every operator is; None skips a factor.

    No operator shifts both arguments, phases the one it shifts or applies two phases, so ideal points are
    mapped in one construction, which canonicalizes them with the u-wrap phase.
    A grid is rolled into one new array, each block written once with at most one factor: a u-shift by
    ``(k Nu + r) du`` turns its ``r`` wrapped rows ``k + 1`` times by ``exp(-i b v)`` and the rest ``k``.
    """
    pu, pv, su, sv = (None if t is None else _float(t) for t in (pu, pv, su, sv))
    if isinstance(state, IdealZakState):
        shift = lambda x, t: x if t is None else x + t
        phase = lambda w, x, t: w if t is None else w * cmath.exp(1j * x * t)
        return IdealZakState(state.patch, [((shift(u, su), shift(v, sv)), phase(phase(w, v, pv), u, pu))
                                           for (u, v), w in state.items()])
    _kind(state, ModularWavefunction, "the operators take a grid or ideal state",
          "pass an SSDState's mode, a CombMatrix's zak_transform, or each component of a MixtureState")
    grid, s = state.grid, state.samples
    u, v = grid.u_values()[:, None], grid.v_values()[None, :]
    phase = next((np.exp(1j * _finite("phase", t) * x) for t, x in ((pv, v), (pu, u)) if t is not None), None)
    out = np.empty_like(s)
    blocks = [(out, s, phase)]
    if su is not None:
        (k, r), b = divmod(grid.u_steps(su), grid.nu), grid.patch.b
        blocks = [(dst, src, np.exp(-1j * (b * n) * v) if n else None)
                  for dst, src, n in ((out[:r], s[len(s) - r:], k + 1), (out[r:], s[:len(s) - r], k))]
    elif sv is not None:
        r = grid.v_steps(sv) % grid.nv
        blocks = [(out[:, :r], s[:, grid.nv - r:], phase), (out[:, r:], s[:, :grid.nv - r], phase)]
    for dst, src, factor in blocks:
        np.copyto(dst, src) if factor is None else np.multiply(src, factor, out=dst)
    return state.with_samples(_frozen(out))


def apply_phase_u(state, t):
    """P_U(t): multiply by ``exp(i u t)``."""
    return _displace(state, pu=t)


def apply_phase_v(state, t):
    """P_V(t): multiply by ``exp(i v t)``."""
    return _displace(state, pv=t)


def apply_translate_u(state, t):
    """T_U(t): shift the first argument by ``t`` (u-wraps cost ``exp(-i b v)``)."""
    return _displace(state, su=t)


def apply_translate_v(state, t):
    """T_V(t): shift the second argument by ``t`` (v-wraps are free)."""
    return _displace(state, sv=t)


def apply_X(state, t):
    """Position shift ``X(t) = T_U(t)``."""
    return _displace(state, su=t)


def apply_Z(state, t):
    """Momentum kick ``Z(t) = P_U(t) T_V(t)`` (translation first, one result array on a grid)."""
    return _displace(state, pu=t, sv=t)
