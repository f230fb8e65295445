"""Modular-variable subsystem decomposition: (qubit) x (gauge mode).

Splitting the fundamental patch down the middle assigns the left square
to logical 0 and the right to logical 1; a pure state becomes

    psi  =  sum_l |l>_L (x) |gamma_l>_G,

with the gauge wavefunctions living on the stretched half-width patch
(a, b) = (alpha, 2 alpha), i.e. u in [-alpha/2, alpha/2), v in
[-pi/2alpha, pi/2alpha).  The unphased split carries no phases, so the
change of basis is a pure re-indexing of samples and exactly unitary.
Gauge u-wraps cost ``exp(-i 2 alpha v)`` on kets.

The split is ``gkp._sectors``, the one the overlap maps use, so tracing
out the gauge mode yields the overlap map's logical qubit bit for bit;
preceding the trace with the entangling counter-rotation
(gamma_l -> exp(-i alpha l v) gamma_l) yields the error-correction
logical state instead.  The SSD shifts are the full-mode operators
conjugated by the change of basis.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import gridio, operators
from .core import IdealZakState, ModularWavefunction, ZakGrid, _frozen
from .errors import GridMismatchError
from .gkp import GKPCode, LogicalQubit, _gram, _mixture_logical, _sectors

__all__ = [
    "SSDState",
    "IdealSSDState",
    "to_ssd",
    "from_ssd",
    "gauge_trace",
    "ec_gauge_trace",
    "apply_Z_ssd",
    "apply_X_ssd",
    "PPGaugeModes",
    "pp_bridge",
    "pp_bridge_inverse",
    "save_ssd",
    "load_ssd",
]


class SSDState:
    """Pure state as a pair of gauge wavefunctions labeled by the logical index."""

    __slots__ = ("code", "gamma")

    def __init__(self, code: GKPCode, gamma0: ModularWavefunction, gamma1: ModularWavefunction):
        if not gamma0.grid.compatible(gamma1.grid):
            raise GridMismatchError("gauge components live on different grids")
        if not gamma0.grid.patch.approx_equal(code.gauge_patch()):
            raise GridMismatchError("gauge grid does not match the code's gauge patch")
        self.code = code
        self.gamma = (gamma0, gamma1)

    @property
    def gauge_grid(self) -> ZakGrid:
        return self.gamma[0].grid

    def norm_squared(self):
        return self.gamma[0].norm_squared() + self.gamma[1].norm_squared()

    def norm(self):
        return math.sqrt(self.norm_squared())


class IdealSSDState:
    """Ideal variant: one IdealZakState per logical index on the gauge patch.

    Gauge coordinates are canonicalized into the gauge patch on
    construction, wrapping with the gauge quasi-periodicity phase
    ``exp(-i 2 alpha n v)``.  ``points`` holds the two sectors' point dicts.
    """

    __slots__ = ("code", "gamma")

    def __init__(self, code: GKPCode, points0, points1):
        patch = code.gauge_patch()
        self.code = code
        self.gamma = (IdealZakState(patch, points0), IdealZakState(patch, points1))

    @property
    def points(self):
        return (self.gamma[0].points, self.gamma[1].points)

    def norm_squared(self):
        return self.gamma[0].norm_squared() + self.gamma[1].norm_squared()

    def norm(self):
        return math.sqrt(self.norm_squared())


def to_ssd(state, code: GKPCode | None = None):
    """Change of basis from the full mode to (qubit) x (gauge mode).

    Grid states split into left/right half columns re-indexed onto the
    gauge patch (no phases; the unphased form of the change of basis); the
    gauge components are views of the state's samples, not copies.  Ideal
    states split their point masses by sector.
    """
    if code is None:
        code = GKPCode(alpha=state.patch.a / 2)
    gamma = _sectors(state, code)
    if isinstance(state, IdealZakState):
        return IdealSSDState(code, *gamma)
    return SSDState(code, *gamma)


def from_ssd(state):
    """Inverse change of basis back to the full mode.

    For ideal states whose gauge points were supplied outside the gauge
    patch, canonicalization at construction already folded in the
    ``exp(-i 2 alpha n v)`` wrap phases, so this composition realizes the
    phased alternate form of the change of basis as well.
    """
    code = state.code
    if isinstance(state, IdealSSDState):
        points = []
        for ell, gamma in enumerate(state.gamma):
            for (gu, gv), w in gamma.items():
                points.append(((gu + code.alpha * ell, gv), w))
        return IdealZakState(code.full_patch(), points)

    gauge_grid = state.gauge_grid
    full_grid = code.grid(2 * gauge_grid.nu, gauge_grid.nv)
    samples = np.vstack([state.gamma[0].samples, state.gamma[1].samples])
    return ModularWavefunction(full_grid, _frozen(samples))


def gauge_trace(rho) -> LogicalQubit:
    """Partial trace over the gauge mode, trace-normalized with raw trace kept."""
    return _mixture_logical(rho, lambda s: _gram(s.gamma, s.code.alpha, ec_phase=False))


def ec_gauge_trace(rho) -> LogicalQubit:
    """Error-correction-based partial trace.

    Each gauge wavefunction is pre-multiplied by ``exp(-i alpha l v)``
    (the logical-gauge counter-rotation) before tracing; on ideal
    small-shifted codewords this undoes the shift-induced logical rotation
    exactly.
    """
    return _mixture_logical(rho, lambda s: _gram(s.gamma, s.code.alpha, ec_phase=True))


def apply_Z_ssd(state, t):
    """Momentum kick in SSD form: :func:`operators.apply_Z` on the full mode,
    seen through the change of basis.

    On the gauge components this is ``exp(i alpha l t)`` on the logical
    index, the gauge phase ``exp(i u t)`` and a gauge v-translation.
    """
    return to_ssd(operators.apply_Z(from_ssd(state), t), state.code)


def apply_X_ssd(state, t):
    """Position shift in SSD form: :func:`operators.apply_X` on the full mode,
    seen through the change of basis.

    The fractional part translates the gauge mode; gauge points pushed
    past the half-patch boundary flip the logical index (the entangling
    factor), and the integer part applies logical flips.  The full mode's
    quasi-periodicity supplies every wrap phase.
    """
    return to_ssd(operators.apply_X(from_ssd(state), t), state.code)


@dataclass(frozen=True)
class PPGaugeModes:
    """Partitioned-position gauge coefficients psi_l(m, u).

    ``coeffs[l][i, j]`` pairs frequency ``m_values[i]`` with the gauge
    column ``u_j``.  Synthesis direction: gamma_l(u, v) =
    sqrt(alpha/pi) sum_m exp(+i 2 alpha m v) psi_l(m, u); the analysis
    direction therefore carries ``exp(-i 2 alpha m v)``.
    """

    code: GKPCode
    gauge_grid: ZakGrid
    m_values: np.ndarray
    coeffs: tuple


def pp_bridge(state: SSDState) -> PPGaugeModes:
    """Fourier series of the gauge wavefunctions in v with frequencies 2 alpha m.

    With ``b = 2 alpha`` the gauge patch's ``b`` and ``v_k = v_min + k dv``,
    ``b dv nv = 2 pi`` holds exactly, so the analysis phase factors as

        exp(-i b m v_k) = exp(-i b m v_min) exp(-2 pi i m k / nv)

    and the series over ``m_values = -nv/2 .. nv/2-1`` is one length-nv DFT
    per gauge column: O(nv log nv) per column, frequency ``m`` read from
    FFT bin ``m mod nv``.  ``coeffs[l]`` is C-contiguous ``(nv, nu)``.
    """
    code = state.code
    grid = state.gauge_grid
    m = np.arange(-grid.nv // 2, grid.nv // 2)
    weights = (
        math.sqrt(code.alpha / math.pi)
        * grid.dv
        * np.exp(-1j * grid.patch.b * grid.patch.v_min * m)
    )
    bins = m % grid.nv
    coeffs = []
    for gamma in state.gamma:
        coeff = np.fft.fft(gamma.samples, axis=1).T.take(bins, axis=0)
        coeff *= weights[:, None]
        coeffs.append(coeff)
    return PPGaugeModes(code=code, gauge_grid=grid, m_values=m, coeffs=tuple(coeffs))


def pp_bridge_inverse(modes: PPGaugeModes) -> SSDState:
    """Resynthesize the gauge wavefunctions from partitioned-position coefficients.

    The synthesis sum over ``m`` is the inverse of :func:`pp_bridge`'s DFT:
    after the factor ``exp(+i b m v_min)``, frequencies that agree modulo
    ``nv`` sample identically on the grid, so terms are accumulated into bin
    ``m mod nv`` and one unnormalized length-nv inverse DFT per gauge column
    gives the samples, O(nv log nv) per column.  Any integer ``m_values``
    is accepted, including repeats and values outside ``[-nv/2, nv/2)``;
    the result equals the direct sum over ``m``.  Samples are C-contiguous
    ``(nu, nv)``.
    """
    code = modes.code
    grid = modes.gauge_grid
    m = np.asarray(modes.m_values)
    if m.ndim != 1 or m.dtype.kind not in "iu":
        raise ValueError(f"m_values must be a 1-d integer array, got {m.dtype} {m.shape}")
    # the same phase argument as in pp_bridge, so the factors are exact conjugates
    weights = math.sqrt(code.alpha / math.pi) * np.exp(1j * grid.patch.b * grid.patch.v_min * m)
    bins = m % grid.nv
    # rows with pairwise distinct bins, so that each layer is one scatter-add;
    # pp_bridge's m_values make a single layer
    layers = []
    pending = np.arange(m.size)
    while pending.size:
        first = np.unique(bins[pending], return_index=True)[1]
        layers.append(pending[first])
        pending = np.delete(pending, first)
    gammas = []
    for coeff in modes.coeffs:
        if coeff.shape != (m.size, grid.nu):
            raise ValueError(f"coeffs shape {coeff.shape} does not match ({m.size}, {grid.nu})")
        terms = coeff * weights[:, None]
        folded = np.zeros((grid.nv, grid.nu), dtype=np.complex128)
        for rows in layers:
            folded[bins[rows]] += terms[rows]
        gammas.append(ModularWavefunction(
            grid, _frozen(np.fft.ifft(np.ascontiguousarray(folded.T), axis=1, norm="forward"))
        ))
    return SSDState(code, gammas[0], gammas[1])


def save_ssd(state: SSDState, base_path):
    """Write both gauge grids in the binary grid format plus a one-line manifest.

    The manifest ``<base_path>.manifest`` names the grid files by basename,
    and :func:`load_ssd` looks for them next to it, so the three files can
    be loaded from any working directory and moved together.
    """
    paths = [f"{base_path}.g{ell}.bin" for ell in (0, 1)]
    for ell, path in enumerate(paths):
        gridio.save_grid_binary(state.gamma[ell], path)
    names = [os.path.basename(path) for path in paths]
    line = f"alpha={gridio.format_float(state.code.alpha)} gamma0={names[0]} gamma1={names[1]}\n"
    gridio.atomic_write_text(f"{base_path}.manifest", line)


def load_ssd(base_path) -> SSDState:
    manifest = f"{base_path}.manifest"
    with open(manifest, encoding="ascii") as fh:
        items = fh.read().split()
    bad = [item for item in items if "=" not in item]
    if bad:
        raise ValueError(f"{manifest}: expected key=value items, got {bad[0]!r}")
    fields = dict(item.split("=", 1) for item in items)
    missing = [key for key in ("alpha", "gamma0", "gamma1") if key not in fields]
    if missing:
        raise ValueError(f"{manifest}: missing {', '.join(missing)}")
    folder = os.path.dirname(manifest)
    code = GKPCode(alpha=float(fields["alpha"]))
    gamma0 = gridio.load_grid_binary(os.path.join(folder, fields["gamma0"]))
    gamma1 = gridio.load_grid_binary(os.path.join(folder, fields["gamma1"]))
    return SSDState(code, gamma0, gamma1)
