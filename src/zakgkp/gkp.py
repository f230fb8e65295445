"""GKP code objects: codewords, stabilizer checks, syndromes, error
correction and the CV-to-qubit map by direct overlap integration.

The code with half-period ``alpha`` lives on the standard patch of period
``a = 2 alpha`` centered so that both codeword points ``(alpha*l, 0)`` are
interior.  Its stabilizers are the modular phases ``P_V(-2 alpha)`` and
``P_U(2 pi / alpha)``; syndromes reduce to the correctable patch

    P_G = [-alpha/2, alpha/2) x [-pi/2alpha, pi/2alpha)

of area pi, half the fundamental patch: ``GKPCode.gauge_patch()``.  Error
correction applied to a state with modular wavefunction psi leaves the
codespace amplitudes

    c_l = exp(-i alpha l v~) psi(u~ + alpha l, v~).

Logical 2x2 matrices are trace-normalized; the raw (pre-normalization)
trace is kept alongside as the success weight.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CombMatrix,
    GaussianComb,
    IdealZakState,
    ModularWavefunction,
    ZakGrid,
    ZakPatch,
    _array,
    _finite,
    _float,
    _frozen,
    _pairs,
    _shown,
)
from .errors import DegenerateLogicalError, GridMismatchError, NonFiniteError, NormalizationError, ZakError, _kind

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


def _codeword_index(ell):
    """``ell`` as an int; ValueError unless it is 0 or 1."""
    if ell not in (0, 1):
        raise ValueError(f"ell must be 0 or 1, got {_shown(ell)}")
    return int(ell)


@dataclass(frozen=True)
class GKPCode:
    """Rectangular qubit GKP code with half-period ``alpha``; codewords sit at ``alpha * ell``."""

    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        object.__setattr__(self, "alpha", _finite("alpha", self.alpha, positive=True))

    @property
    def period(self):
        """Horizontal Zak period ``a = 2 alpha``; the stabilizer pair satisfies a * 2piK/a = 2piK."""
        return 2 * self.alpha

    def full_patch(self) -> ZakPatch:
        return ZakPatch(self.period)

    def gauge_patch(self) -> ZakPatch:
        """Half-width stretched patch carrying the gauge mode: (a, b) = (alpha, 2 alpha)."""
        return ZakPatch(self.alpha, 2 * self.alpha, u_min=-self.alpha / 2)

    def grid(self, nu: int, nv: int) -> ZakGrid:
        return ZakGrid(self.full_patch(), nu, nv)

    def gauge_grid(self, nu_gauge: int, nv: int) -> ZakGrid:
        return ZakGrid(self.gauge_patch(), nu_gauge, nv)


class Syndrome(NamedTuple):
    """Homodyne outcomes, their reductions into the correctable patch and the reducing code's ``alpha``."""

    s: float
    t: float
    u_tilde: float
    v_tilde: float
    alpha: float


def syndrome_reduce(code: GKPCode, s: float, t: float) -> Syndrome:
    """Map raw measurement outcomes to the correctable patch P_G, which is ``code.gauge_patch()``."""
    u, v, _ = code.gauge_patch().reduce(s, t)
    return Syndrome(s, t, u, v, code.alpha)


class LogicalQubit:
    """Trace-normalized 2x2 logical density matrix plus the raw trace.

    Construction refuses non-finite entries and a raw trace that is not positive and finite
    (ValueError); :meth:`from_unnormalized` also enforces Hermiticity to 1e-10 and positivity
    to -1e-10 (ZakError), whose violations indicate an inconsistent extraction.
    """

    __slots__ = ("matrix", "raw_trace")

    def __init__(self, matrix, raw_trace):
        matrix = _array(matrix, complex)  # an int past the float range is refused below
        if matrix.shape != (2, 2):
            raise ValueError("logical matrix must be 2x2")
        raw_trace = _float(raw_trace)
        if not (np.isfinite(matrix).all() and 0 < raw_trace < math.inf):
            raise ValueError(f"logical matrix {matrix.tolist()!r} needs finite entries and a positive finite raw_trace, "
                             f"got {raw_trace!r}")
        matrix.flags.writeable = False
        self.matrix = matrix
        self.raw_trace = raw_trace

    @classmethod
    def from_unnormalized(cls, matrix):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if not np.isfinite(matrix).all():
            raise ZakError(f"logical matrix has non-finite entries: {matrix.tolist()!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # a result past the float range is refused below
            herm = float(np.max(np.abs(matrix - matrix.conj().T)))
            if herm > 1e-10:
                raise ZakError(f"logical matrix fails Hermiticity by {herm:.3e}")
            trace = float(matrix.trace().real)
            if trace <= 1e-14:
                raise DegenerateLogicalError("state has no support on the correctable-patch translates")
            rho = matrix / trace
            if not (math.isfinite(trace) and np.isfinite(rho).all()):
                raise ZakError(f"logical matrix {matrix.tolist()!r} does not normalize to finite entries")
            eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        if not eigs.min() >= -1e-10:  # NaN too
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
        ell = _codeword_index(ell)
        return float(self.matrix[ell, ell].real)

    def __repr__(self):
        return f"LogicalQubit(matrix={self.matrix!r}, raw_trace={self.raw_trace!r})"


class MixtureState:
    """Convex mixture of pure states (grid or ideal), probabilities summing to 1."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = [(_float(p), state) for p, state in _pairs(components, "components", "(probability, state)")]
        for p, _ in components:
            if not p >= 0:  # NaN too
                raise ValueError(f"mixture probability {p!r} is not a nonnegative number")
        total = sum(p for p, _ in components)
        if abs(total - 1) > 1e-12:
            raise NormalizationError(total, f"mixture probabilities sum to {total!r}, expected 1")
        self.components = components

    def __iter__(self):
        return iter(self.components)


def codeword(code: GKPCode, ell: int) -> IdealZakState:
    """Ideal codeword: the single Zak point mass at ``(alpha * ell, 0)``."""
    return IdealZakState(code.full_patch(), {(code.alpha * _codeword_index(ell), 0.0): 1.0 + 0j})


def approx_codeword(code: GKPCode, ell: int, delta: float) -> GaussianComb:
    """Finite-energy codeword: Gaussian comb with tooth variance delta^2
    under an envelope of variance delta^-2, normalized.  Raises ValueError
    unless both variances are positive finite floats."""
    _finite("delta", delta, positive=True)
    ell = _codeword_index(ell)
    try:
        tooth_variance, envelope_variance = delta**2, delta**-2
    except OverflowError:
        raise ValueError(f"delta={delta!r} puts delta^2 or delta^-2 past the float range") from None
    return GaussianComb(code.period, tooth_variance, envelope_variance, offset=code.alpha * ell)


def stabilizer_residual(state, code: GKPCode):
    """Norms of ``(S - 1) psi`` for the two stabilizer generators.

    Returns ``(r1, r2)`` for ``P_V(-a)`` and ``P_U(2 pi / alpha)``; both vanish exactly on
    codewords.  Both are phases in one variable and ``|exp(i theta) - 1|^2 = 4 sin^2(theta / 2)``,
    so each squared norm pairs the state with itself under that weight: exactly for an ideal state,
    else as per-row v sums that :func:`_u_sum` reduces, but a grid state's ``P_V`` residual is read
    from its column sums (that weight is periodic over the full patch, so every u rule gives the
    same sum).  A squared norm past the float range raises NonFiniteError.
    """
    _require_qubit_patch(state, code)
    tv, tu = -code.period, 2 * math.pi / code.alpha
    wv, wu = (lambda v: 4 * np.sin(tv * v / 2) ** 2), (lambda u: 4 * np.sin(tu * u / 2) ** 2)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range is refused below
        if isinstance(state, IdealZakState):
            r1, r2 = _point_pair(state, state, wv=wv), _point_pair(state, state, wu=wu)
        elif isinstance(state, CombMatrix):
            r1 = _u_sum(*_comb_rows(state, state.values, state.values, wv))
            r2 = _u_sum(*_comb_rows(state, state.values, state.values), wu(state.grid.u_values()))
        else:
            r1 = np.dot(state._marginal(0) * state.grid.cell_area, wv(state.grid.v_values()))
            r2 = _u_sum(state._marginal(1), state.grid.cell_area, wu(state.grid.u_values()))
        r1, r2 = float(r1.real), float(r2.real)
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise NonFiniteError(f"squared stabilizer residuals {r1} and {r2} are not both finite")
    return math.sqrt(r1), math.sqrt(r2)


def _require_qubit_patch(state, code: GKPCode, comb=True):
    """ValueError for anything but a grid state, an ideal state or a comb matrix (a mixture is told to
    pass each component), naming a comb only if ``comb``; GridMismatchError unless the state's patch is
    the code's; then ValueError for a comb matrix unless ``comb``."""
    pure = (ModularWavefunction, IdealZakState, CombMatrix)
    takes = "this function takes a grid, ideal or comb state" if comb else "this function takes a grid or ideal state"
    _kind(state, (*pure, MixtureState), takes, "pass an SSDState's mode")
    _kind(state, pure, "this function takes a pure state", "pass each component")
    if state.patch != code.full_patch():
        raise GridMismatchError("state patch does not match the code's fundamental patch")
    if not comb:
        _kind(state, (ModularWavefunction, IdealZakState), takes, "pass its zak_transform")


def ec_kraus_amplitudes(state, code: GKPCode, syn: Syndrome):
    """Unnormalized codespace amplitudes after error correction with outcome ``syn``.

    ``c_l = exp(-i alpha l v~) psi(u~ + alpha l, v~)``; the evaluation
    points are interior to the fundamental patch, so no extension phases
    enter.  Grid states require the points to be grid nodes.  A syndrome
    reduced for another ``alpha`` raises GridMismatchError.
    """
    _require_qubit_patch(state, code, comb=False)
    _kind(syn, Syndrome, "ec_kraus_amplitudes takes a Syndrome", "pass syndrome_reduce(code, s, t)")
    if syn.alpha != code.alpha:
        raise GridMismatchError(f"syndrome was reduced for alpha={syn.alpha!r}, not the code's {code.alpha!r}")
    u, v, alpha = syn.u_tilde, syn.v_tilde, code.alpha
    return tuple(complex(cmath.exp(-1j * alpha * ell * v) * state.value_at(u + alpha * ell, v)) for ell in (0, 1))


def _sectors(state, code: GKPCode):
    """The two gauge components ``(gamma_0, gamma_1)`` of a pure state.

    This is the unphased change of basis to (qubit) x (gauge mode), a pure
    re-indexing: the left half-patch is logical 0, the right half logical
    1.  An ideal state's points are placed in the code's patch (the
    state's may equal it only within the 1e-12 rule), and the gauge
    patch's ``reduce``, which maps a syndrome too, reads each as
    ``(u - alpha*l, v)`` with ``l`` its wrap count.  A grid state yields
    its two row halves (views) on ``code.gauge_grid(nu // 2, nv)``, which
    has the full grid's ``b``, ``v_min``, ``du`` and ``dv``; a comb matrix,
    the two row blocks of its ``values`` (views), which share its ``m`` and
    ``phases``.  A foreign patch raises GridMismatchError, and halves that
    are not grids raise ValueError.
    """
    _require_qubit_patch(state, code)
    if isinstance(state, IdealZakState):
        gauge, sectors = code.gauge_patch(), ([], [])
        for (u, v), w in IdealZakState(code.full_patch(), state.points).items():
            u, v, ell = gauge.reduce(u, v)
            sectors[ell].append(((u, v), w))
        return tuple(IdealZakState(gauge, sector) for sector in sectors)
    half = state.grid.nu // 2
    gauge_grid = code.gauge_grid(half, state.grid.nv)  # refuses halves that are not grids, a comb's too
    if isinstance(state, CombMatrix):
        return state.values[:half], state.values[half:]
    return tuple(ModularWavefunction(gauge_grid, rows)
                 for rows in (state.samples[:half], state.samples[half:]))


def _u_sum(rows, scale, weight=None):
    """The u rule: the left-Riemann sum of per-row sums ``F(u_j)`` with measure ``scale`` and ``weight``
    on the u nodes if given.  The correctable-patch boundaries are grid-aligned: a half window is a slice."""
    return rows.sum() * scale if weight is None else np.dot(rows * scale, weight)


def _point_pair(f, g, wu=None, wv=None):
    """``sum w conj(g(u, v)) c`` over the points ``(u, v)`` of ``f`` with weights ``w``: ``c`` is ``wu(u)``, ``wv(v)`` or 1."""
    terms = [(w, g.value_at(u, v).conjugate()) for (u, v), w in f.items()]
    if wu is not None or wv is not None:
        u, v = np.array(list(f.points), dtype=float).reshape(-1, 2).T
        terms = [(w, h * c) for (w, h), c in zip(terms, (wu(u) if wv is None else wv(v)).tolist())]
    return sum(w * h for w, h in terms)


def _comb_rows(comb: CombMatrix, f, g, wv=None):
    """``(rows, du)``, ``rows[j] = sum_k psi_f[j, k] conj(psi_g[j, k]) wv(v_k) dv`` for two row blocks
    ``f`` and ``g`` of ``comb.values``, real when ``f is g``.  Row ``j`` of a transform is
    ``sqrt(b/2pi) values[j] @ Phi``, so this is ``f[j] T_w g[j]^H``, with the kernel
    ``T_w = (b/2pi) dv Phi diag(wv) Phi^H`` over the comb grid's own ``v`` nodes, exact on an
    aliased grid (``nv <= 2 m_max``) too."""
    phases, grid = comb.phases, comb.grid
    kernel = (phases if wv is None else phases * wv(grid.v_values())) @ phases.conj().T
    kernel *= grid.patch.b / (2 * math.pi) * grid.dv
    rows = np.einsum("jm,jm->j", f @ kernel, g.conj())
    return (rows.real if f is g else rows), grid.du


def _cross_rows(f: ModularWavefunction, g: ModularWavefunction, code: GKPCode):
    """``(plain, ec)``: the rows ``sum_k f conj(g)`` of two gauge components, plain and weighted by
    ``exp(i alpha v_k)``, read-only.  One pass forms each block of ``f conj(g)`` once, in a reused
    buffer of at most 8192 samples, with no full-grid temporary."""
    grid, f, g = f.grid, f.samples, g.samples
    weight = np.exp(1j * code.alpha * grid.v_values())
    step = max(1, 8192 // grid.nv)
    buf = np.empty((step, grid.nv), dtype=np.complex128)
    rows = np.empty((2, grid.nu), dtype=np.complex128)
    for i in range(0, grid.nu, step):
        block = np.conjugate(g[i:i + step], out=buf[:min(step, grid.nu - i)])
        block *= f[i:i + step]
        rows[0, i:i + step], rows[1, i:i + step] = block.sum(axis=1), block @ weight
    return tuple(_frozen(rows))


def _gram(state, code: GKPCode, ec_phase: bool):
    """Unnormalized 2x2 Gram matrix ``G[l, l'] = <gamma_l'|gamma_l>`` of a pure state's gauge components.

    The components are :func:`_sectors`.  With ``ec_phase`` each ``gamma_l`` is first
    counter-rotated by ``exp(-i alpha l v)``, which turns the Gram matrix into the syndrome
    average of the outer products of :func:`ec_kraus_amplitudes`: the cross entry takes the
    weight ``exp(i alpha v)``, and the phase cancels on the diagonal.  Ideal states are paired
    exactly; otherwise :func:`_u_sum` reduces the halves of the whole state's ``|psi|^2`` row
    sums and the cross entry's rows, a grid state's memoized per ``alpha`` (:func:`_cross_rows`).
    """
    ec = (lambda v: np.exp(1j * code.alpha * v)) if ec_phase else None
    if isinstance(state, ModularWavefunction):
        memo = state._memoized(("gram", code.alpha), lambda: _cross_rows(*_sectors(state, code), code))
        rows, scale, cross = state._marginal(1), state.grid.cell_area, memo[int(ec_phase)]
    else:
        f, g = _sectors(state, code)
        if isinstance(state, IdealZakState):
            return _hermitian(_point_pair(f, f), _point_pair(g, g), _point_pair(f, g, wv=ec))
        (rows, scale), cross = _comb_rows(state, state.values, state.values), _comb_rows(state, f, g, ec)[0]
    half = len(rows) // 2
    return _hermitian(_u_sum(rows[:half], scale), _u_sum(rows[half:], scale), _u_sum(cross, scale))


def _hermitian(diag0, diag1, cross):
    """The 2x2 matrix with diagonal ``(diag0, diag1)`` and upper entry ``cross``."""
    return np.array([[diag0, cross], [np.conjugate(cross), diag1]], dtype=np.complex128)


def _mixture_logical(rho, gram):
    """Trace-normalized logical qubit of ``sum_i p_i gram(component_i)``."""
    mat = np.zeros((2, 2), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # from_unnormalized refuses a non-finite sum
        for p, component in rho if isinstance(rho, MixtureState) else [(1.0, rho)]:
            mat += p * gram(component)
    return LogicalQubit.from_unnormalized(mat)


def logical_from_overlap(rho, code: GKPCode) -> LogicalQubit:
    """CV-to-qubit map: integrate the shifted-codeword overlaps over P_G.

    ``rho[l, l'] = integral of psi(u + alpha l, v) conj(psi(u + alpha l', v))``
    over the correctable patch, i.e. the Gram matrix of the gauge
    components, so this equals :func:`zakgkp.ssd.gauge_trace` of
    :func:`zakgkp.ssd.to_ssd` bit for bit.  Accepts a :class:`MixtureState`
    or a bare pure state; a :class:`CombMatrix` takes the same sums from
    its comb matrix, with no grid formed.  The returned matrix is trace-normalized; the raw
    trace is the correctable-patch mass.
    """
    return _mixture_logical(rho, lambda s: _gram(s, code, ec_phase=False))


def ec_channel_logical(rho, code: GKPCode) -> LogicalQubit:
    """Logical state assigned by the full error-correction channel.

    Same integrals as :func:`logical_from_overlap` with the counter-rotation
    phase ``exp(-i alpha (l - l') v~)``, equal to the syndrome average of
    the outer products of :func:`ec_kraus_amplitudes`, and to
    :func:`zakgkp.ssd.ec_gauge_trace` of :func:`zakgkp.ssd.to_ssd` bit for bit.
    A :class:`CombMatrix` takes the comb route, as in :func:`logical_from_overlap`.
    """
    return _mixture_logical(rho, lambda s: _gram(s, code, ec_phase=True))
