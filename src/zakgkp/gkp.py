"""GKP code objects: codewords, stabilizer checks, syndromes, error
correction and the CV-to-qubit map by direct overlap integration.

The code with half-period ``alpha`` lives on the standard patch of period
``a = 2 alpha`` centered so that both codeword points ``(alpha*l, 0)`` are
interior.  Its stabilizers are the modular phases ``P_V(-2 alpha)`` and
``P_U(2 pi / alpha)``; syndromes reduce to the correctable patch

    P_G = [-alpha/2, alpha/2) x [-pi/2alpha, pi/2alpha)

of area pi, half the fundamental patch.  Error correction applied to a
state with modular wavefunction psi leaves the codespace amplitudes

    c_l = exp(-i alpha l v~) psi(u~ + alpha l, v~).

Logical 2x2 matrices are trace-normalized; the raw (pre-normalization)
trace is kept alongside as the success weight.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import modular, operators
from .core import (
    GaussianComb,
    IdealZakState,
    ModularWavefunction,
    ZakGrid,
    ZakPatch,
    _finite,
    gaussian_comb,
)
from .errors import DegenerateLogicalError, GridMismatchError, NormalizationError, ZakError

__all__ = [
    "DEFAULT_ALPHA",
    "GKPCode",
    "Syndrome",
    "LogicalQubit",
    "MixtureState",
    "codeword",
    "approx_codeword",
    "stabilizer_residual",
    "syndrome_reduce",
    "ec_kraus_amplitudes",
    "logical_from_overlap",
    "ec_channel_logical",
]

DEFAULT_ALPHA = math.sqrt(math.pi)


@dataclass(frozen=True)
class GKPCode:
    """Rectangular GKP code with half-period ``alpha`` and logical dimension ``dim``."""

    alpha: float = DEFAULT_ALPHA
    dim: int = 2

    def __post_init__(self):
        _finite("alpha", self.alpha, positive=True)
        if self.dim < 2:
            raise ValueError(f"logical dimension must be at least 2, got {self.dim}")

    @property
    def period(self):
        """Horizontal Zak period ``a = 2 alpha``; the stabilizer pair satisfies a * 2piK/a = 2piK."""
        return 2 * self.alpha

    @property
    def spacing(self):
        """Codeword spacing in modular position, ``a / dim``."""
        return self.period / self.dim

    def full_patch(self) -> ZakPatch:
        return ZakPatch(self.period)

    def gauge_patch(self) -> ZakPatch:
        """Half-width stretched patch carrying the gauge mode: (a, b) = (alpha, 2 alpha)."""
        return ZakPatch(self.alpha, 2 * self.alpha, u_min=-self.alpha / 2)

    def grid(self, nu: int, nv: int) -> ZakGrid:
        return ZakGrid(self.full_patch(), nu, nv)

    def gauge_grid(self, nu_gauge: int, nv: int) -> ZakGrid:
        return ZakGrid(self.gauge_patch(), nu_gauge, nv)


@dataclass(frozen=True)
class Syndrome:
    """Homodyne outcomes together with their reductions into the correctable patch."""

    s: float
    t: float
    u_tilde: float = field(init=False)
    v_tilde: float = field(init=False)
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        a = self.alpha
        object.__setattr__(self, "u_tilde", modular.frac_part(self.s, a, a / 2))
        object.__setattr__(
            self, "v_tilde", modular.frac_part(self.t, math.pi / a, math.pi / (2 * a))
        )


def syndrome_reduce(code: GKPCode, s: float, t: float) -> Syndrome:
    """Map raw measurement outcomes to the correctable patch P_G."""
    return Syndrome(s=s, t=t, alpha=code.alpha)


class LogicalQubit:
    """Trace-normalized 2x2 logical density matrix plus the raw trace.

    Finite entries, Hermiticity to 1e-10 and positivity to -1e-10 are
    enforced at construction; violations indicate an inconsistent extraction.
    """

    __slots__ = ("matrix", "raw_trace")

    def __init__(self, matrix, raw_trace):
        matrix = np.array(matrix, dtype=np.complex128)
        if matrix.shape != (2, 2):
            raise ValueError("logical matrix must be 2x2")
        matrix.flags.writeable = False
        self.matrix = matrix
        self.raw_trace = float(raw_trace)

    @classmethod
    def from_unnormalized(cls, matrix, herm_tol=1e-10, psd_tol=1e-10):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if not np.isfinite(matrix).all():
            raise ZakError(f"logical matrix has non-finite entries: {matrix.tolist()!r}")
        herm = float(np.max(np.abs(matrix - matrix.conj().T)))
        if herm > herm_tol:
            raise ZakError(f"logical matrix fails Hermiticity by {herm:.3e}")
        trace = float(matrix.trace().real)
        if trace <= 1e-14:
            raise DegenerateLogicalError(
                "state has no support on the correctable-patch translates"
            )
        rho = matrix / trace
        eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        if eigs.min() < -psd_tol:
            raise ZakError(f"logical matrix fails positivity by {eigs.min():.3e}")
        return cls(rho, trace)

    @property
    def bloch(self):
        r = self.matrix
        return (
            float(2 * r[0, 1].real),
            float(-2 * r[0, 1].imag),
            float((r[0, 0] - r[1, 1]).real),
        )

    @property
    def purity(self):
        return float(np.trace(self.matrix @ self.matrix).real)

    def fidelity(self, ell: int) -> float:
        """Overlap with the ideal codeword ``|ell><ell|``."""
        return float(self.matrix[ell, ell].real)

    def __repr__(self):
        return f"LogicalQubit(matrix={self.matrix!r}, raw_trace={self.raw_trace!r})"


class MixtureState:
    """Convex mixture of pure states (grid or ideal), probabilities summing to 1."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = [(float(p), state) for p, state in components]
        for p, _ in components:
            if p < 0:
                raise ValueError(f"mixture probability {p!r} is negative")
        total = sum(p for p, _ in components)
        if abs(total - 1) > 1e-12:
            raise NormalizationError(total, f"mixture probabilities sum to {total!r}, expected 1")
        self.components = components

    @classmethod
    def pure(cls, state):
        return cls([(1.0, state)])

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


def _as_mixture(rho):
    if isinstance(rho, MixtureState):
        return rho
    return MixtureState.pure(rho)


def codeword(code: GKPCode, ell: int) -> IdealZakState:
    """Ideal codeword: the single Zak point mass at ``(spacing * ell, 0)``."""
    if not 0 <= ell < code.dim:
        raise ValueError(f"ell must lie in [0, {code.dim}), got {ell}")
    return IdealZakState(code.full_patch(), {(code.spacing * ell, 0.0): 1.0 + 0j})


def approx_codeword(code: GKPCode, ell: int, delta: float) -> GaussianComb:
    """Finite-energy codeword: Gaussian comb with tooth variance delta^2
    under an envelope of variance delta^-2, normalized."""
    _finite("delta", delta, positive=True)
    if not 0 <= ell < code.dim:
        raise ValueError(f"ell must lie in [0, {code.dim}), got {ell}")
    return gaussian_comb(
        spacing=code.period,
        tooth_variance=delta**2,
        envelope_variance=delta**-2,
        offset=code.spacing * ell,
    )


def _difference_norm(s1: IdealZakState, s2: IdealZakState):
    keys = set(s1.points) | set(s2.points)
    return math.sqrt(sum(abs(s1.points.get(k, 0j) - s2.points.get(k, 0j)) ** 2 for k in keys))


def _defect_norm(psi: ModularWavefunction, phased):
    """Norm of ``phased - psi.samples``, formed in the buffer of the new array ``phased``."""
    phased -= psi.samples
    weights = np.abs(phased)
    weights **= 2
    return math.sqrt(float(np.sum(weights)) * psi.grid.cell_area)


def stabilizer_residual(state, code: GKPCode):
    """Norms of ``(S - 1) psi`` for the two stabilizer generators.

    Returns ``(r1, r2)`` for ``P_V(-a)`` and ``P_U(2 pi dim / a)``; both
    vanish exactly on codewords.  Ideal states use the Dirac-comb norm.
    """
    a = code.period
    tv, tu = -a, 2 * math.pi * code.dim / a
    if isinstance(state, IdealZakState):
        r1 = _difference_norm(operators.apply_phase_v(state, tv), state)
        r2 = _difference_norm(operators.apply_phase_u(state, tu), state)
        return r1, r2
    r1 = _defect_norm(state, operators._phase_v_samples(state, tv))
    r2 = _defect_norm(state, operators._phase_u_samples(state, tu))
    return r1, r2


def _require_code_patch(state, code: GKPCode):
    if not state.patch.approx_equal(code.full_patch()):
        raise GridMismatchError("state patch does not match the code's fundamental patch")


def ec_kraus_amplitudes(state, code: GKPCode, syn: Syndrome):
    """Unnormalized codespace amplitudes after error correction with outcome ``syn``.

    ``c_l = exp(-i alpha l v~) psi(u~ + alpha l, v~)``; the evaluation
    points are interior to the fundamental patch, so no extension phases
    enter.  Grid states require the points to be grid nodes.
    """
    if code.dim != 2:
        raise ValueError("error correction is implemented for qubit codes (dim=2)")
    _require_code_patch(state, code)
    alpha = code.alpha
    out = []
    for ell in (0, 1):
        v = syn.v_tilde
        value = state.value_at(syn.u_tilde + alpha * ell, v)
        out.append(cmath.exp(-1j * alpha * ell * v) * value)
    return complex(out[0]), complex(out[1])


def _sector_split(state: IdealZakState, code: GKPCode):
    """Split ideal points into logical sectors on the gauge patch.

    Returns one IdealZakState per logical index holding the gauge points
    ``(u - alpha*l, v)``; the left half-patch is sector 0.
    """
    alpha = code.alpha
    boundary = alpha / 2
    sectors = ({}, {})
    for (u, v), w in state.items():
        ell = 0 if u < boundary else 1
        key = (u - alpha * ell, v)
        sectors[ell][key] = sectors[ell].get(key, 0j) + w
    return tuple(IdealZakState(code.gauge_patch(), sector) for sector in sectors)


def _gram(comps, cell_area=None, cross_phase=None):
    """Unnormalized 2x2 Gram matrix ``G[l, l'] = <c_l'|c_l>`` of two sector components.

    Ideal components pair point masses exactly, with no measure.  Grid
    components are ModularWavefunctions, or bare sample blocks with their
    ``cell_area``, summed by the left-Riemann rule; ``cross_phase(l - l')``,
    when given, multiplies each off-diagonal product before the sum.
    """
    if isinstance(comps[0], ModularWavefunction):
        cell_area = comps[0].grid.cell_area
        comps = [c.samples for c in comps]
    ideal = isinstance(comps[0], IdealZakState)
    mat = np.zeros((2, 2), dtype=np.complex128)
    for ell in (0, 1):
        for ellp in (0, 1):
            f, g = comps[ell], comps[ellp]
            if ideal:
                mat[ell, ellp] = sum(w * g.value_at(u, v).conjugate() for (u, v), w in f.items())
                continue
            prod = f * g.conj()
            if cross_phase is not None and ell != ellp:
                prod = prod * cross_phase(ell - ellp)
            mat[ell, ellp] = prod.sum() * cell_area
    return mat


def _overlap_matrix(state, code: GKPCode, ec_phase: bool):
    """Unnormalized logical matrix of one pure component.

    Grid states integrate ``psi(u+alpha l, v) conj(psi(u+alpha l', v))``
    over the correctable patch with the left-Riemann rule (the patch
    boundaries are grid-aligned); ideal states pair point masses exactly.
    With ``ec_phase`` the error-correction factor ``exp(-i alpha (l-l') v)``
    is included, which matches the syndrome average of Kraus outer products.
    """
    _require_code_patch(state, code)
    alpha = code.alpha
    if isinstance(state, IdealZakState):
        sectors = _sector_split(state, code)
        if ec_phase:
            sectors = [operators.apply_phase_v(g, -alpha * ell) for ell, g in enumerate(sectors)]
        return _gram(sectors)

    grid = state.grid
    half = grid.nu // 2
    blocks = (state.samples[:half, :], state.samples[half:, :])
    v = grid.v_values()

    def cross_phase(d):
        return np.exp(-1j * alpha * d * v)[None, :]

    return _gram(blocks, grid.cell_area, cross_phase if ec_phase else None)


def logical_from_overlap(rho, code: GKPCode) -> LogicalQubit:
    """CV-to-qubit map: integrate the shifted-codeword overlaps over P_G.

    Accepts a :class:`MixtureState` or a bare pure state.  The returned
    matrix is trace-normalized; the raw trace is the correctable-patch mass.
    """
    mat = np.zeros((2, 2), dtype=np.complex128)
    for p, component in _as_mixture(rho):
        mat += p * _overlap_matrix(component, code, ec_phase=False)
    return LogicalQubit.from_unnormalized(mat)


def ec_channel_logical(rho, code: GKPCode) -> LogicalQubit:
    """Logical state assigned by the full error-correction channel.

    Same integrals as :func:`logical_from_overlap` with the counter-rotation
    phase ``exp(-i alpha (l - l') v~)``, equal to the syndrome average of
    the outer products of :func:`ec_kraus_amplitudes`.
    """
    mat = np.zeros((2, 2), dtype=np.complex128)
    for p, component in _as_mixture(rho):
        mat += p * _overlap_matrix(component, code, ec_phase=True)
    return LogicalQubit.from_unnormalized(mat)
