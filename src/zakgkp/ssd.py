"""Modular-variable subsystem decomposition: (qubit) x (gauge mode).

Splitting the fundamental patch down the middle assigns the left square
to logical 0 and the right to logical 1; a pure state becomes

    psi  =  sum_l |l>_L (x) |gamma_l>_G,

with the gauge wavefunctions living on the stretched half-width patch
(a, b) = (alpha, 2 alpha), i.e. u in [-alpha/2, alpha/2), v in
[-pi/2alpha, pi/2alpha).  The unphased split carries no phases, so the
change of basis is a pure re-indexing of samples and exactly unitary.
Gauge u-wraps cost ``exp(-i 2 alpha v)`` on kets.

Tracing out the gauge mode is the Gram matrix of the two components,
the very ``gkp._gram`` call the overlap maps make on the full mode, so it
yields the overlap map's logical qubit bit for bit; preceding the trace
with the entangling counter-rotation (gamma_l -> exp(-i alpha l v)
gamma_l) yields the error-correction logical state instead.  The SSD
shifts are the full-mode operators conjugated by the change of basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .core import IdealZakState, ModularWavefunction, ZakGrid, _frozen
from .errors import GridMismatchError, _kind
from .gkp import GKPCode, LogicalQubit, _gram, _mixture_logical, _require_qubit_patch, _sectors

__all__ = [
    "SSDState",
    "to_ssd",
    "from_ssd",
    "gauge_trace",
    "ec_gauge_trace",
    "apply_Z_ssd",
    "apply_X_ssd",
    "PPGaugeModes",
    "pp_bridge",
    "pp_bridge_inverse",
]


class SSDState:
    """Pure state in the (qubit) x (gauge mode) tensor-product structure.

    The SSD is a new tensor-product structure on the same Hilbert space, so
    the state is its full-mode state ``mode`` (a ModularWavefunction or an
    IdealZakState); ``gamma`` is computed from ``mode`` on access, not stored.
    ``SSDState(code, gamma0, gamma1)`` joins two separate components into a
    new mode: a grid pair is stacked, an ideal pair's points are placed at
    ``(u + alpha*l, v)``.  :func:`to_ssd` wraps a mode without a copy.
    """

    __slots__ = ("code", "mode")

    def __init__(self, code: GKPCode, gamma0, gamma1):
        for gamma in (gamma0, gamma1):
            _kind(gamma, (ModularWavefunction, IdealZakState), "SSDState takes grid or ideal gauge components")
        if type(gamma0) is not type(gamma1):
            raise TypeError("gauge components must both be grid states or both ideal states")
        patch = code.gauge_patch()
        if not gamma0.patch == patch == gamma1.patch:
            raise GridMismatchError("gauge component does not live on the code's gauge patch")
        if isinstance(gamma0, IdealZakState):
            points = [((u + code.alpha * ell, v), w)
                      for ell, gamma in enumerate((gamma0, gamma1)) for (u, v), w in gamma.items()]
            mode = IdealZakState(code.full_patch(), points)
        else:
            if gamma0.grid != gamma1.grid:
                raise GridMismatchError("gauge components live on different grids")
            grid = code.grid(2 * gamma0.grid.nu, gamma0.grid.nv)
            mode = ModularWavefunction(grid, _frozen(np.vstack([gamma0.samples, gamma1.samples])))
        self.code, self.mode = code, mode

    @property
    def gamma(self):
        """``gkp._sectors(mode, code)``, split from ``mode`` on each access."""
        return _sectors(self.mode, self.code)


def _ssd_state(state, grid=False) -> SSDState:
    """``state``; ValueError unless it is an SSDState, naming the change of basis that makes
    one, and with ``grid`` unless its mode is a grid state."""
    _kind(state, SSDState, "this function takes an SSDState", "pass to_ssd(state, code)")
    if grid:
        _kind(state.mode, ModularWavefunction, "this function takes an SSDState whose mode is a grid state")
    return state


def to_ssd(state, code: GKPCode) -> SSDState:
    """Change of basis from the full mode to (qubit) x (gauge mode).

    The result wraps ``state`` without a copy.  Its gauge components are the unphased
    split ``gkp._sectors``, which runs once here so that its GridMismatchError (a foreign
    patch) and ValueError (a grid whose halves are not grids) are raised here.  A
    ``CombMatrix`` has no samples for the SSD operations to read, and an ``SSDState``
    is split already: ValueError.
    """
    _require_qubit_patch(state, code, comb=False)
    _sectors(state, code)
    split = SSDState.__new__(SSDState)
    split.code, split.mode = code, state
    return split


def from_ssd(state: SSDState):
    """Inverse change of basis back to the full mode: the state's own ``mode``."""
    return _ssd_state(state).mode


def gauge_trace(rho) -> LogicalQubit:
    """Partial trace over the gauge mode, trace-normalized with raw trace kept."""
    return _mixture_logical(rho, lambda s: _gram(_ssd_state(s).mode, s.code, ec_phase=False))


def ec_gauge_trace(rho) -> LogicalQubit:
    """Error-correction-based partial trace.

    Each gauge wavefunction is pre-multiplied by ``exp(-i alpha l v)``
    (the logical-gauge counter-rotation) before tracing; on ideal
    small-shifted codewords this undoes the shift-induced logical rotation
    exactly.
    """
    return _mixture_logical(rho, lambda s: _gram(_ssd_state(s).mode, s.code, ec_phase=True))


def apply_Z_ssd(state, t):
    """Momentum kick in SSD form: :func:`operators.apply_Z` on the full mode,
    seen through the change of basis.

    On the gauge components this is ``exp(i alpha l t)`` on the logical
    index, the gauge phase ``exp(i u t)`` and a gauge v-translation.
    """
    return to_ssd(operators.apply_Z(_ssd_state(state).mode, t), state.code)


def apply_X_ssd(state, t):
    """Position shift in SSD form: :func:`operators.apply_X` on the full mode,
    seen through the change of basis.

    The fractional part translates the gauge mode; gauge points pushed
    past the half-patch boundary flip the logical index (the entangling
    factor), and the integer part applies logical flips.  The full mode's
    quasi-periodicity supplies every wrap phase.
    """
    return to_ssd(operators.apply_X(_ssd_state(state).mode, t), state.code)


@dataclass(frozen=True)
class PPGaugeModes:
    """Partitioned-position gauge coefficients psi_l(m, u).

    ``coeffs[l][i, j]`` pairs frequency ``m_values[i]`` with the gauge
    column ``u_j``.  Synthesis direction: gamma_l(u, v) =
    sqrt(alpha/pi) sum_m exp(+i 2 alpha m v) psi_l(m, u); the analysis
    direction therefore carries ``exp(-i 2 alpha m v)``.  ``gauge_grid`` and
    ``m_values`` follow from ``code`` and the ``(nv, nu)`` shape of ``coeffs``.
    """

    code: GKPCode
    coeffs: tuple

    @property
    def gauge_grid(self) -> ZakGrid:
        nv, nu = self.coeffs[0].shape
        return self.code.gauge_grid(nu, nv)

    @property
    def m_values(self) -> np.ndarray:
        half = self.coeffs[0].shape[0] // 2
        return np.arange(-half, half)


def pp_bridge(state: SSDState) -> PPGaugeModes:
    """Fourier series of the gauge wavefunctions in v with frequencies 2 alpha m.

    With ``b = 2 alpha`` the gauge patch's ``b`` and ``v_k = v_min + k dv``,
    ``b dv nv = 2 pi`` holds exactly, so the analysis phase factors as

        exp(-i b m v_k) = exp(-i b m v_min) exp(-2 pi i m k / nv)

    and the series over ``m_values = -nv/2 .. nv/2-1`` is one length-nv DFT
    per gauge column: O(nv log nv) per column, frequency ``m`` read from
    FFT bin ``m mod nv``.  ``coeffs[l]`` is C-contiguous ``(nv, nu)``: the
    DFT fills a scratch array in bin order, whose two row halves are
    weighted into ``coeffs[l]`` swapped, in ``m`` order.
    """
    code, gammas = _ssd_state(state, grid=True).code, state.gamma
    grid = gammas[0].grid
    half = grid.nv // 2
    m = np.arange(-half, half)
    scale = math.sqrt(code.alpha / math.pi) * grid.dv
    weights = scale * np.exp(-1j * grid.patch.b * grid.patch.v_min * m)
    spectrum = np.empty((grid.nv, grid.nu), dtype=np.complex128)
    coeffs = []
    for gamma in gammas:
        np.fft.fft(gamma.samples, axis=1, out=spectrum.T)
        coeff = np.empty_like(spectrum)
        # bins half.. hold m = -nv/2 .. -1, bins ..half hold m = 0 .. nv/2-1
        np.multiply(spectrum[half:], weights[:half, None], out=coeff[:half])
        np.multiply(spectrum[:half], weights[half:, None], out=coeff[half:])
        coeffs.append(coeff)
    return PPGaugeModes(code=code, coeffs=tuple(coeffs))


def pp_bridge_inverse(modes: PPGaugeModes) -> SSDState:
    """Resynthesize the gauge wavefunctions from partitioned-position coefficients.

    The synthesis sum over ``m`` inverts :func:`pp_bridge`'s DFT: after the
    factor ``exp(+i b m v_min)``, frequency ``m`` fills bin ``m mod nv``, and
    one unnormalized length-nv inverse DFT per gauge column, O(nv log nv),
    writes the samples straight into one half of the full mode's C-contiguous
    ``(2 nu, nv)`` array.  ``modes`` is a PPGaugeModes whose ``coeffs`` are two arrays of
    numbers of one ``(nv, nu)`` shape that ``code.gauge_grid(nu, nv)`` accepts; anything else
    raises ValueError.
    """
    code = _kind(modes, PPGaugeModes, "pp_bridge_inverse takes the PPGaugeModes that pp_bridge returns").code
    if len(_kind(modes.coeffs, (tuple, list), "pp_bridge_inverse takes coeffs of two arrays")) != 2:
        raise ValueError(f"coeffs must hold two arrays, got {len(modes.coeffs)}")
    for coeff in modes.coeffs:
        if _kind(coeff, np.ndarray, "pp_bridge_inverse takes coeffs of two arrays").dtype.kind not in "iufc":
            raise ValueError(f"coeffs must hold numbers, got {coeff.dtype}")
    if modes.coeffs[0].ndim != 2 or modes.coeffs[0].shape != modes.coeffs[1].shape:
        raise ValueError(f"coeffs must share one (nv, nu) shape, got {[c.shape for c in modes.coeffs]}")
    grid = modes.gauge_grid
    half = grid.nv // 2
    m = modes.m_values
    # the same phase argument as in pp_bridge, so the factors are exact conjugates
    weights = math.sqrt(code.alpha / math.pi) * np.exp(1j * grid.patch.b * grid.patch.v_min * m)
    spectrum = np.empty((grid.nv, grid.nu), dtype=np.complex128)
    samples = np.empty((2 * grid.nu, grid.nv), dtype=np.complex128)
    for ell, coeff in enumerate(modes.coeffs):
        np.multiply(coeff[:half], weights[:half, None], out=spectrum[half:])
        np.multiply(coeff[half:], weights[half:, None], out=spectrum[:half])
        gamma = samples[ell * grid.nu:(ell + 1) * grid.nu]
        np.fft.ifft(spectrum, axis=0, norm="forward", out=gamma.T)
    return to_ssd(ModularWavefunction(code.grid(2 * grid.nu, grid.nv), _frozen(samples)), code)
