"""Zak patches, grids, modular wavefunctions and the Zak transform.

The transform takes a square-integrable position wavefunction to a
function of two bounded variables,

    psi(u, v) = sqrt(b / 2pi) * sum_m exp(-i b m v) psi_x(u + a m),

quasi-periodic in u (a phase ``exp(i b v)`` per period ``a`` on the
wavefunction) and periodic in v (period ``2pi/b``).  The standard
transform has ``b == a`` and a fundamental patch of area 2pi; independent
``a`` and ``b`` give a stretched patch of area ``2pi a/b``.  Patches are
sampled at the left corners of half-open cells so that the points (0, 0)
and (a/2, 0) are exact grid nodes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import modular
from .modular import _float, _shown
from .errors import NonFiniteError, NormalizationError, OffGridError, TruncationError, _kind

__all__ = [
    "ZakPatch",
    "ZakGrid",
    "ModularWavefunction",
    "IdealZakState",
    "VacuumState",
    "GaussianComb",
    "TabulatedState",
    "CombMatrix",
    "comb_matrix",
    "zak_transform",
    "inverse_zak_transform",
    "stretch_rescale",
    "convention_phase",
]

#: relative slack used when matching coordinates to grid nodes
NODE_TOL = 1e-9

#: a comb tooth left out of the window sits below exp(-WINDOW_EXPONENT)
#: (about 3e-33) times the tooth nearest to the evaluation point
WINDOW_EXPONENT = 75.0

#: most teeth a GaussianComb may hold: its norm sums pairwise integrals in
#: (teeth x teeth) float arrays, whose peak is about 46 MB at the cap
MAX_TEETH = 1201

#: largest relative truncation bound :func:`zak_transform` accepts
TAIL_TOL = 1e-12

#: most complex samples numpy can index in one array
MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize

#: grid rows per block: contracted in one matrix product, checked and written at once
BLOCK_ROWS = 64


def _finite(name, value, positive=False):
    """``value`` as a float; ValueError naming ``name`` unless it is finite (and positive)."""
    value = _float(value)
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _resolved(what, width, lo, hi):
    """ValueError naming ``what`` unless every node ``lo + width*j`` between the edges ``lo`` and ``hi``
    is found again within ``NODE_TOL * width`` of its cell: the one rule by which a patch's extent and
    a grid's cell are wide enough for the floats at their edges."""
    # A node is s = fl(lo + p) with p = fl(width*j) (``u_values``); ``_steps`` takes t = fl(s - lo),
    # n = round(t/width), which is j, and t - fl(n*width) = t - p, exact by Sterbenz.  Exactly,
    # s - lo = p + e, e the rounding of lo + p, so |e| <= ulp(M)/2 with M = max(|lo|, |hi|) >= |s|.
    # t is the float nearest p + e and p is a float, so |t - p| <= 2|e| <= ulp(M).  If no node lies
    # in a binade above lo's (ulp(M) == ulp(lo)), t is p + e itself: e != 0 only when lo + p, a
    # multiple of min(ulp(lo), ulp(p)), is not a float, so ulp(p) < ulp(s); then s - lo = p + e is
    # a multiple of ulp(s), as s and lo are, and lies below the top of s's binade, so it is a float
    # and |t - p| = |e| <= ulp(M)/2.
    spacing = math.ulp(max(abs(lo), abs(hi)))
    off = spacing / 2 if spacing == math.ulp(lo) else spacing
    if not off <= NODE_TOL * width:
        raise ValueError(f"{what}={width!r} is too narrow for the edges {lo!r} and {hi!r}: a node there "
                         f"is found again up to {off!r} off, more than NODE_TOL={NODE_TOL!r} times it")


def _pairs(entries, name, form, nested=False):
    """The entries of ``entries`` as ``(first, second)`` pairs, each ``first`` a pair too if ``nested``;
    ValueError ``"<name> takes <form> pairs, got <value>"`` naming ``entries`` unless it is iterable,
    or else the first entry that is no such pair."""
    pairs, got = [], entries
    try:
        for got in entries:
            first, second = got
            if nested:
                x, y = first
                first = x, y
            pairs.append((first, second))
    except (TypeError, ValueError):
        raise ValueError(f"{name} takes {form} pairs, got {_shown(got)}") from None
    return pairs


def _array(values, kind=float):
    """``values`` as a new float64 array, or complex128 for ``kind=complex``, with an int past the
    float range the infinity of its sign, as :func:`_float` gives it."""
    dtype = np.complex128 if kind is complex else np.float64
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        return np.array(np.frompyfunc(lambda x: _float(x, kind), 1, 1)(np.array(values, dtype=object)), dtype=dtype)


def _frozen(samples):
    """Mark a freshly computed array read-only, so that a ModularWavefunction adopts it."""
    samples.flags.writeable = False
    return samples


def _finite_rows(where, rows, j=0):
    """``rows``, the grid rows from ``j`` on; NonFiniteError naming ``where``
    and the first bad sample unless all are finite."""
    for i in range(0, len(rows), BLOCK_ROWS):
        block = rows[i:i + BLOCK_ROWS]
        # the (re, im) float64 view tests faster than the complex array; a strided block is copied
        if not np.isfinite(np.ascontiguousarray(block).view(np.float64)).all():
            r, k = np.argwhere(~np.isfinite(block))[0]
            raise NonFiniteError(f"{where}: sample ({j + i + r}, {k}) is not finite: {complex(block[r, k])}")
    return rows


def _is_frozen(samples):
    """True when no writeable array or buffer can change ``samples``' memory."""
    base = samples
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    return base is None or isinstance(base, bytes)


class ZakPatch:
    """Fundamental rectangle of a (possibly stretched) Zak basis.

    ``a`` is the horizontal period, the vertical extent is ``2pi/b``.  The
    default centering is ``[-a/4, 3a/4) x [-pi/b, pi/b)``.  Each edge must be
    finite, and the floats at the edges fine enough for the extent (the rule
    of ``_resolved``): ValueError otherwise.
    """

    __slots__ = ("a", "b", "u_min", "v_min")

    def __init__(self, a, b=None, u_min=None, v_min=None):
        self.a = _finite("period a", a, positive=True)
        self.b = _finite("period parameter b", a if b is None else b, positive=True)
        self.u_min = -self.a / 4 if u_min is None else _finite("u_min", u_min)
        self.v_min = _finite("v_min", -math.pi / self.b if v_min is None else v_min)
        _resolved("period a", self.a, self.u_min, _finite("u_min + a", self.u_min + self.a))
        _resolved("height 2pi/b", self.height, self.v_min, _finite("v_min + 2pi/b", self.v_min + self.height))

    @property
    def height(self):
        return 2 * math.pi / self.b

    def reduce(self, x, y):
        """Canonicalize ``(x, y)`` into the patch; returns ``(u, v, wraps)``.

        ``wraps`` is the number of horizontal periods removed.  The ket
        picks up ``exp(-i b wraps v)`` and the wavefunction the conjugate.
        """
        u, n = modular.split(x, self.a, -self.u_min)
        v, _ = modular.split(y, self.height, -self.v_min)
        return u, v, n

    def __eq__(self, other):
        """Each of ``a, b, u_min, v_min`` within 1e-12 of the larger ``a``, relative or absolute."""
        if not isinstance(other, ZakPatch):
            return NotImplemented
        rtol = 1e-12
        scale = max(abs(self.a), abs(other.a))
        return all(math.isclose(getattr(self, name), getattr(other, name), rel_tol=rtol, abs_tol=rtol * scale)
                   for name in ("a", "b", "u_min", "v_min"))

    def __repr__(self):
        return (
            f"ZakPatch(a={self.a!r}, b={self.b!r}, "
            f"u_min={self.u_min!r}, v_min={self.v_min!r})"
        )


class ZakGrid:
    """Uniform discretization of a patch with ``nu`` by ``nv`` samples.

    ``nu`` must be divisible by 4 and ``nv`` even so that (0, 0) and
    (a/2, 0) fall on grid nodes for default-centered patches, numpy
    must be able to index ``nu x nv`` complex samples, and every node must be
    found again within ``NODE_TOL`` of its cell (the rule of ``_resolved``).
    """

    __slots__ = ("patch", "nu", "nv", "du", "dv")

    def __init__(self, patch: ZakPatch, nu: int, nv: int):
        if nu <= 0 or nu % 4 != 0:
            raise ValueError(f"nu must be a positive multiple of 4, got {_shown(nu)}")
        if nv <= 0 or nv % 2 != 0:
            raise ValueError(f"nv must be a positive even integer, got {_shown(nv)}")
        if nu * nv > MAX_SAMPLES:
            raise ValueError(f"a {_shown(nu)}x{_shown(nv)} grid is past numpy's size limit of {MAX_SAMPLES} complex samples")
        self.patch = patch
        self.nu = int(nu)
        self.nv = int(nv)
        self.du = patch.a / nu
        self.dv = patch.height / nv
        _resolved("du", self.du, patch.u_min, patch.u_min + patch.a)
        _resolved("dv", self.dv, patch.v_min, patch.v_min + patch.height)

    def u_values(self):
        return self.patch.u_min + self.du * np.arange(self.nu)

    def v_values(self):
        return self.patch.v_min + self.dv * np.arange(self.nv)

    @property
    def cell_area(self):
        return self.du * self.dv

    @staticmethod
    def _steps(what, x, step, name, start=0.0, count=None):
        """The whole number of cells of width ``step`` in ``t = x - start``, and below ``count`` if
        one is given: the one grid-multiple rule, for a shift and for a coordinate's offset from
        the patch edge.  OffGridError naming ``what``, formatted with ``x`` as a float, unless
        ``t`` is finite and within ``NODE_TOL`` cells of a whole number."""
        t = (x := _float(x)) - start
        n = round(t / step) if math.isfinite(t / step) else 0  # a count past the float range: refused
        if not abs(t - n * step) <= NODE_TOL * step:  # NaN too
            raise OffGridError(f"{what.format(x)} is not an integer multiple of {name}={step!r}")
        if count is not None and not 0 <= n < count:
            raise OffGridError(f"{what.format(x)} lies outside the patch")
        return n

    def u_index(self, u):
        return self._steps("u={!r} (from u_min)", u, self.du, "du", self.patch.u_min, self.nu)

    def v_index(self, v):
        return self._steps("v={!r} (from v_min)", v, self.dv, "dv", self.patch.v_min, self.nv)

    def u_steps(self, t):
        return self._steps("shift {!r}", t, self.du, "du")

    def v_steps(self, t):
        return self._steps("shift {!r}", t, self.dv, "dv")

    def __eq__(self, other):
        if not isinstance(other, ZakGrid):
            return NotImplemented
        return (self.nu, self.nv) == (other.nu, other.nv) and self.patch == other.patch

    def __repr__(self):
        return f"ZakGrid({self.patch!r}, nu={self.nu}, nv={self.nv})"


class ModularWavefunction:
    """Complex samples of psi(u, v) on a ZakGrid.

    ``samples[j, k]`` is the value at ``(u_j, v_k)``.  Values are frozen
    after construction; every operation returns a new instance, so sharing
    across threads is safe.  ``tail_bound`` records the relative comb-sum
    truncation bound when the state came out of :func:`zak_transform`.

    Quadratic statistics (:meth:`marginals`, ``gkp``'s Gram cross rows) are
    computed once per state, on first use, and memoized read-only; threads
    racing to fill an entry compute the same value from the same samples.

    Ownership: ``samples`` is adopted without a copy when it is a
    complex128 array that nothing can write to: it and every array it is a
    view of are read-only, and its memory is their own or a ``bytes``
    object.  The library's results are built that way: a freshly computed
    array is marked read-only and adopted, ``to_ssd``'s gauge components
    are views of the parent's samples, and ``load_grid_binary`` keeps the
    bytes it read.  Anything else, in particular a caller's writeable
    array or a read-only view of one, is copied, so no state aliases memory
    that a caller can write through (short of setting a read-only array's
    writeable flag back, which numpy allows for an array owning its data;
    samples changed that way void the memo, which keeps the old statistics).
    """

    __slots__ = ("grid", "samples", "tail_bound", "_memo")

    def __init__(self, grid: ZakGrid, samples, tail_bound=None):
        if not (
            isinstance(samples, np.ndarray)
            and samples.dtype == np.complex128
            and _is_frozen(samples)
        ):
            samples = _array(samples, complex)
        if samples.shape != (grid.nu, grid.nv):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid ({grid.nu}, {grid.nv})"
            )
        samples.flags.writeable = False
        self.grid = grid
        self.samples = samples
        self.tail_bound = tail_bound
        self._memo = {}

    @property
    def patch(self):
        return self.grid.patch

    def with_samples(self, samples):
        return ModularWavefunction(self.grid, samples, tail_bound=self.tail_bound)

    def value_at(self, u, v):
        """Sample at a canonical point; raises OffGridError unless it is a grid node."""
        return self.samples[self.grid.u_index(u), self.grid.v_index(v)]

    def _memoized(self, key, compute):
        """``compute()``, a read-only statistic of the samples, run once per ``key``."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value

    def _marginal(self, axis):
        """``|psi|^2`` summed over v for each u (``axis=1``) or over u for each v (``axis=0``),
        with no full-grid temporary: read-only, computed once per state and axis."""
        def compute():
            # real and imaginary parts interleaved along v (a view if C-contiguous)
            parts = np.ascontiguousarray(self.samples).view(np.float64)
            sums = np.einsum("ij,ij->i" if axis else "ij,ij->j", parts, parts)
            return _frozen(sums if axis else sums[0::2] + sums[1::2])
        return self._memoized(("marginal", axis), compute)

    def marginals(self):
        """Sums of ``|psi|^2`` over v for each u and over u for each v: read-only, each computed once."""
        return self._marginal(1), self._marginal(0)

    def norm_squared(self):
        return float(self._marginal(1).sum()) * self.grid.cell_area

    def norm(self):
        return math.sqrt(self.norm_squared())

    def normalized(self):
        n = self.norm()
        if n == 0:
            raise NormalizationError(n, "cannot normalize the zero wavefunction")
        return self.with_samples(_frozen(self.samples / n))


class IdealZakState:
    """Finite superposition of Zak kets, stored as point masses in the patch.

    Exact stand-in for delta-normalized states such as ideal GKP codewords,
    which cannot be sampled on a grid.  Points are canonicalized into the
    patch on construction (folding reduction phases into the weights) and
    duplicates are merged by weight addition.  The squared Dirac-comb norm
    proxy is ``sum |weight|^2``.  ``points`` is a dict, another state or
    an iterable of ``((x, y), weight)`` pairs.  Any other ``points``, an
    entry that is no such pair, a point the patch cannot count or a weight
    that is not finite raises ValueError.
    """

    __slots__ = ("patch", "points")

    def __init__(self, patch: ZakPatch, points):
        items = points.items() if hasattr(points, "items") else points
        merged: dict[tuple[float, float], complex] = {}
        for (x, y), w in _pairs(items, "points", "((x, y), weight)", nested=True):
            u, v, n = patch.reduce(x, y)
            w = merged[(u, v)] = merged.get((u, v), 0j) + _float(w, complex) * cmath.exp(-1j * patch.b * n * v)
            if not cmath.isfinite(w):
                raise ValueError(f"the weight at ({float(x)!r}, {float(y)!r}), in the patch, is not finite: {w}")
        self.patch = patch
        self.points = merged

    def items(self):
        return self.points.items()

    def norm_squared(self):
        return float(sum(abs(w) ** 2 for w in self.points.values()))

    def norm(self):
        return math.sqrt(self.norm_squared())

    def value_at(self, u, v):
        """Delta-paired value at a canonical point (sum of weights within ``NODE_TOL`` of the patch size)."""
        atol = NODE_TOL * max(self.patch.a, self.patch.height)
        total = 0j
        for (pu, pv), w in self.points.items():
            if abs(pu - u) <= atol and abs(pv - v) <= atol:
                total += w
        return total

    def __repr__(self):
        return f"IdealZakState({len(self.points)} points on {self.patch!r})"


# ---------------------------------------------------------------------------
# position-space state descriptors


class VacuumState:
    """Ground state of the oscillator, optionally displaced in position."""

    __slots__ = ("offset",)

    def __init__(self, offset=0.0):
        self.offset = _finite("offset", offset)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return math.pi ** -0.25 * np.exp(-((x - self.offset) ** 2) / 2)

    def norm_squared(self):
        return 1.0

    def tail_mass(self, lo, hi):
        return 0.5 * (math.erfc(hi - self.offset) + math.erfc(self.offset - lo))


class GaussianComb:
    """Normalized comb of Gaussian teeth under a Gaussian envelope.

    Teeth sit at ``offset + spacing * n`` for ``|n| <= N``, the range the
    envelope leaves above ~1e-80 of its peak, with wavefunction variance
    ``tooth_variance``; the envelope has variance ``envelope_variance``.
    ``2N + 1`` may not exceed :data:`MAX_TEETH`.  The amplitude is fixed
    analytically (pairwise Gaussian integrals) so that the position-space
    norm is exactly 1; a comb whose tooth ratio or pairwise sum leaves the
    positive float range raises ValueError.

    Evaluation is windowed: at each ``x`` only the teeth ``n0 - K .. n0 + K``
    are summed, with ``n0`` the tooth nearest to ``x`` (clipped to
    ``[-N, N]``) and the window clipped to ``[-N, N]`` as well.  ``K`` is
    the smallest integer with ``K (K + 1) r >= WINDOW_EXPONENT``, where
    ``r = spacing^2 / (2 tooth_variance)``, so every omitted tooth is below
    ``exp(-WINDOW_EXPONENT)`` times the nearest one: K = 1 for
    ``delta <= 0.4``, 2 at 0.5 and 7 at 2 for the approximate codewords.
    :meth:`tail_mass` adds a rigorous bound on the mass this omits.
    """

    __slots__ = (
        "spacing",
        "tooth_variance",
        "envelope_variance",
        "offset",
        "amplitude",
        "_centers",
        "_window",
        "_window_ratio",
    )

    def __init__(self, spacing, tooth_variance, envelope_variance, offset=0.0):
        self.spacing = _finite("spacing", spacing, positive=True)
        self.tooth_variance = _finite("tooth_variance", tooth_variance, positive=True)
        self.envelope_variance = _finite("envelope_variance", envelope_variance, positive=True)
        self.offset = _finite("offset", offset)
        # teeth beyond the envelope's ~1e-80 amplitude contribute nothing
        reach = math.sqrt(370.0 * self.envelope_variance) + abs(self.offset)
        if not reach / self.spacing <= (MAX_TEETH - 3) // 2:  # also an infinite reach
            raise ValueError(f"envelope_variance={self.envelope_variance!r} and offset={self.offset!r} "
                             f"need more than MAX_TEETH={MAX_TEETH} teeth of spacing {self.spacing!r}")
        n = int(math.ceil(reach / self.spacing)) + 1
        try:
            r = self.spacing**2 / (2 * self.tooth_variance)
        except OverflowError:
            r = math.inf
        if not 0 < r < math.inf:
            raise ValueError(f"spacing={self.spacing!r} and tooth_variance={self.tooth_variance!r} "
                             f"put spacing^2 / (2 tooth_variance) outside the float range ({r!r})")
        self._centers = self.offset + self.spacing * np.arange(-n, n + 1)
        k = max(1, math.ceil(min((math.sqrt(1 + 4 * WINDOW_EXPONENT / r) - 1) / 2, 2 * n)))
        if k >= 2 * n:  # the window holds every tooth (capped first: the root is inf for r near 0)
            k, ratio = 2 * n, 0.0
        else:
            # at |x - nearest tooth| <= spacing/2, the j-th omitted tooth on
            # either side is at least (k + 1 + j) spacing - spacing/2 away, so
            # its term is at most exp(-r (k + j)(k + j + 1)) times the nearest
            # tooth's; the terms fall at least by exp(-2 r (k + 1)) per step in j
            ratio = 2 * math.exp(-r * k * (k + 1)) / -math.expm1(-2 * r * (k + 1))
        self._window = k
        self._window_ratio = ratio
        with np.errstate(over="ignore", invalid="ignore"):  # a sum outside the float range is refused below
            norm_squared = self._raw_norm_squared()
        if not 0 < norm_squared < math.inf:  # also NaN
            raise ValueError(f"spacing={self.spacing!r} and offset={self.offset!r} put the teeth's "
                             f"pairwise norm integrals outside the float range (sum {norm_squared!r})")
        self.amplitude = 1.0 / math.sqrt(norm_squared)

    def _raw_norm_squared(self):
        c = self._centers
        vt, ve = self.tooth_variance, self.envelope_variance
        p = 1.0 / vt + 1.0 / ve
        q = (c[:, None] + c[None, :]) / vt
        r = -(c[:, None] ** 2 + c[None, :] ** 2) / (2 * vt)
        integrals = math.sqrt(math.pi / p) * np.exp(q * q / (4 * p) + r)
        return float(np.sum(integrals))

    def _comb_factor(self, x):
        """Sum of the teeth in the window around the tooth nearest to each ``x``."""
        centers = self._centers
        n = centers.size // 2
        flat = x.reshape(-1)
        nearest = np.clip(np.rint((flat - self.offset) / self.spacing), -n, n).astype(np.intp) + n
        total = np.zeros(flat.shape)
        for k in range(-self._window, self._window + 1):
            index = nearest + k
            d = flat - centers.take(index, mode="clip")
            term = np.exp(-(d * d) / (2 * self.tooth_variance))
            term[(index < 0) | (index > 2 * n)] = 0.0  # a tooth past +-N; never the nearest one
            total += term
        return total.reshape(x.shape)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        envelope = np.exp(-(x * x) / (2 * self.envelope_variance))
        return self.amplitude * self._comb_factor(x) * envelope

    def norm_squared(self):
        return 1.0

    def tail_mass(self, lo, hi):
        """Mass outside ``[lo, hi]`` plus the mass the windowed sum leaves out.

        Outside: ``|psi(x)| <= amplitude * K * exp(-x^2 / 2 Ve)`` with ``K``
        the comb-sum peak.  Window: at every ``x`` the omitted teeth sum to
        at most ``_window_ratio`` times the nearest tooth, so the omitted
        part of ``psi`` is at most ``_window_ratio * |psi(x)|`` and its mass
        at most ``_window_ratio^2`` times the norm.
        """
        xs = self.offset + np.linspace(0.0, self.spacing, 513)
        k_peak = float(self._comb_factor(xs).max()) * (1 + 1e-9)
        se = math.sqrt(self.envelope_variance)
        bound = (self.amplitude * k_peak) ** 2 * math.sqrt(math.pi) * se
        outside = bound * 0.5 * (math.erfc(hi / se) + math.erfc(-lo / se))
        return outside + self._window_ratio**2 * self.norm_squared()


class TabulatedState:
    """State known only at discrete sample points, zero elsewhere.

    ``step``, the smallest gap between consecutive points (1 for a single
    point), is the sampling cell width of the counting-measure norm
    ``sum |value|^2 * step``.  Evaluation matches points within ``NODE_TOL``
    of a tabulated abscissa, so the table should be built on the same comb
    ``u_j + a*m`` that the transform probes.  The masses are summed over
    ``|value|^2`` scaled by the largest real or imaginary part, so that
    :meth:`tail_mass`, a share of the norm, is exact for any finite table.
    An empty table, a non-finite entry, a repeated abscissa, a gap past the
    float range and an all-zero table each raise a ValueError that says so.
    """

    __slots__ = ("xs", "values", "step", "_scale", "_weights")

    def __init__(self, xs, values):
        xs, values = _array(xs), _array(values, complex)  # an int past the float range is refused below
        if xs.ndim != 1 or xs.shape != values.shape:
            raise ValueError("xs and values must be 1-d arrays of equal length")
        if not len(xs):
            raise ValueError("the table is empty")
        for name, array in (("xs", xs), ("values", values)):
            for i in np.flatnonzero(~np.isfinite(array))[:1]:  # the first entry that is not finite
                raise ValueError(f"{name}[{i}] is not finite: {array[i].item()}")
        order = np.argsort(xs)
        self.xs = xs[order]
        self.values = values[order]
        with np.errstate(over="ignore"):  # a gap past the float range: refused as the step below
            gaps = np.diff(self.xs)
        if len(gaps) and not gaps.min():
            raise ValueError(f"abscissa {float(self.xs[gaps.argmin()])!r} is listed more than once")
        self.step = _finite("step", gaps.min() if len(gaps) else 1.0, positive=True)
        parts = np.abs(self.values.view(np.float64)).reshape(-1, 2)
        self._scale = float(parts.max())
        if not self._scale:
            raise ValueError("the table holds only zero values")
        # |value / scale|^2, each at most 2 and the largest at least 1: no square or sum leaves the float range
        self._weights = np.square(parts / self._scale).sum(axis=1)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=np.complex128)
        idx = np.searchsorted(self.xs, x)
        tol = NODE_TOL * self.step
        for side in (np.clip(idx - 1, 0, len(self.xs) - 1), np.clip(idx, 0, len(self.xs) - 1)):
            hit = np.abs(self.xs[side] - x) <= tol
            out[hit] = self.values[side[hit]]
        return out

    def norm_squared(self):
        # Python floats: a norm past the float range is inf, without a warning
        return self._scale * self._scale * float(self._weights.sum()) * self.step

    def tail_mass(self, lo, hi):
        """The share of the norm outside ``[lo, hi]``."""
        outside = (self.xs < lo) | (self.xs > hi)
        return float(self._weights[outside].sum()) / float(self._weights.sum())


# ---------------------------------------------------------------------------
# the transform and its companions


class CombMatrix:
    """A Zak transform before its sum over ``m``.

    Row ``j`` of the transform is ``sqrt(b/2pi) values[j] @ phases``, with
    ``values[j, k] = psi_x(u_j + a m[k])`` over the ``m`` that :func:`comb_matrix`
    kept and ``phases[k, i] = exp(-i b m[k] v_i)``, formed once here.  ``values``
    is float64 for a real descriptor and complex128 otherwise.  Any ``m`` but a
    1-d array of finite numbers, and any ``values`` but a float64 or complex128
    array of shape ``(Nu, len(m))``, raises ValueError.
    """

    __slots__ = ("grid", "values", "m", "phases", "tail_bound")

    def __init__(self, grid: ZakGrid, values, m, tail_bound):
        _kind(m, np.ndarray, "CombMatrix takes m as an array")
        _kind(values, np.ndarray, "CombMatrix takes values as an array")
        if m.ndim != 1 or m.dtype.kind not in "iuf" or not np.isfinite(m).all():
            raise ValueError(f"the comb's m must be 1-d and finite, got {_shown(m)}")
        if values.dtype not in (np.float64, np.complex128) or values.shape != (grid.nu, len(m)):
            raise ValueError(f"the comb's values must be float64 or complex128 of shape ({grid.nu}, {len(m)}), "
                             f"got {values.dtype} of shape {values.shape}")
        self.grid = grid
        self.values = values
        self.m = m
        self.phases = np.exp(-1j * grid.patch.b * np.outer(m, grid.v_values()))
        self.tail_bound = tail_bound

    @property
    def patch(self):
        return self.grid.patch


def _comb_rule(grid, m_max):
    """ValueError unless ``m_max`` is a positive whole number whose ``Nu x (2 m_max + 1)`` comb numpy can index."""
    if not (0 < m_max <= (MAX_SAMPLES // grid.nu - 1) // 2 and m_max == int(m_max)):
        raise ValueError(f"m_max must be a positive whole number, with a {grid.nu} x (2 m_max + 1) comb numpy can index, got {_shown(m_max)}")


def comb_matrix(state, grid: ZakGrid, m_max: int) -> CombMatrix:
    """The comb matrix of the transform of ``state``, summed over ``m in [-m_max, m_max]``.

    Values below ``np.finfo(float).tiny`` are flushed to zero (BLAS is slow
    on subnormals) and the ``m`` columns left all zero are dropped; neither
    changes a transform value.  ``tail_bound`` is the relative truncation
    bound: ``state.tail_mass``, the share of the state's position-space norm
    that the sum cannot see.
    For a :class:`GaussianComb` that mass includes the teeth its windowed
    evaluation leaves out, each below ``exp(-WINDOW_EXPONENT)`` of the
    tooth nearest to the sample.  Raises :class:`TruncationError` when the
    bound exceeds :data:`TAIL_TOL` or is NaN.
    """
    _comb_rule(grid, m_max)
    patch = grid.patch
    u = grid.u_values()
    m = np.arange(-m_max, m_max + 1)

    # every row j sees at least [u_max - a*m_max, u_min + a*m_max]; the
    # bound is a mass fraction, so anything past 1 carries no information
    lo = (patch.u_min + patch.a - grid.du) - patch.a * m_max
    hi = patch.u_min + patch.a * m_max
    with np.errstate(over="ignore"):  # a squared exponent overflows only where its exponential is 0
        tail = min(state.tail_mass(lo, hi), 1.0)
        if not tail <= TAIL_TOL:  # also NaN
            raise TruncationError(tail, TAIL_TOL)
        values = np.asarray(state.evaluate(u[:, None] + patch.a * m[None, :]))
    values = values.astype(np.complex128 if np.iscomplexobj(values) else np.float64, copy=False)
    parts = values.view(np.float64)
    parts[np.abs(parts) < np.finfo(np.float64).tiny] = 0.0
    keep = values.any(axis=0)
    if not keep.all():
        values, m = values[:, keep], m[keep]
    return CombMatrix(grid, values, m, tail)


def zak_transform(state, grid: ZakGrid, m_max: int) -> ModularWavefunction:
    """Discretized Zak transform of a position-space state.

    Contracts :func:`comb_matrix` (which raises :class:`TruncationError`
    when its bound exceeds :data:`TAIL_TOL`) :data:`BLOCK_ROWS` rows at a
    time into the one array it allocates at full grid size, and attaches
    the relative truncation bound as ``tail_bound`` on the result.  Real
    values take one real matrix product against the phases' (re, im)
    pairs, half the flops of a complex one.  A block whose sums leave the
    float range raises :class:`NonFiniteError`, naming the first such sample.
    """
    comb = comb_matrix(state, grid, m_max)
    samples = np.empty((grid.nu, grid.nv), dtype=np.complex128)
    real = comb.values.dtype == np.float64
    phases = comb.phases.view(np.float64) if real else comb.phases
    scale = math.sqrt(grid.patch.b / (2 * math.pi))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite block is refused below
        # no part of a finite phase exceeds 1, so no partial sum of row j exceeds
        # sqrt(2) * scale * sum |values[j]|: a bound well inside the float range
        # proves every sample finite, at the cost of the comb matrix
        bound = scale * float(np.abs(comb.values).sum(axis=1).max(initial=0.0))
        check = not (bound <= np.finfo(np.float64).max / 8 and np.isfinite(phases).all())
        for j in range(0, grid.nu, BLOCK_ROWS):
            rows = samples[j:j + BLOCK_ROWS]
            np.matmul(comb.values[j:j + BLOCK_ROWS], phases, out=rows.view(np.float64) if real else rows)
            rows *= scale
            if check:
                _finite_rows("Zak transform", rows, j)
    return ModularWavefunction(grid, _frozen(samples), tail_bound=comb.tail_bound)


def inverse_zak_transform(psi: ModularWavefunction, n: int, u: float) -> complex:
    """Recover ``psi_x(u + a*n)`` from the v grid line at ``u`` (a Riemann sum).

    ``psi`` must be a grid state and ``u`` a grid node; this operation never interpolates.
    Another state, an ``n`` that is not a whole number, or one whose phase ``b n v`` leaves the
    float range, raises ValueError.
    """
    grid, n = _kind(psi, ModularWavefunction, "inverse_zak_transform takes a grid state").grid, _float(n)
    v = grid.v_values()
    _finite(f"the largest phase b n v for n={n!r}", grid.patch.b * n * float(np.abs(v).max()))
    if n != int(n):  # n is finite here; the comb holds psi_x only at whole periods from u
        raise ValueError(f"n must be a whole number of periods, got {n!r}")
    total = np.sum(np.exp(1j * grid.patch.b * n * v) * psi.samples[grid.u_index(u)]) * grid.dv
    return complex(math.sqrt(grid.patch.b / (2 * math.pi)) * total)


def stretch_rescale(psi: ModularWavefunction, b: float) -> ModularWavefunction:
    """Move ``psi`` to the patch with vertical-period parameter ``b``.

    Implements ``psi_S(u, v) = sqrt(b/b_old) * psi(u, (b/b_old) v)``; with
    an unchanged row count the rescaled v grid maps node-to-node, so this
    is a pure rescaling of samples and preserves the norm exactly.
    """
    _kind(psi, ModularWavefunction, "stretch_rescale takes a grid state")
    b = _finite("b", b, positive=True)
    old = psi.grid.patch
    ratio = old.b / b
    new_patch = ZakPatch(old.a, b, u_min=old.u_min, v_min=old.v_min * ratio)
    new_grid = ZakGrid(new_patch, psi.grid.nu, psi.grid.nv)
    samples = math.sqrt(b / old.b) * psi.samples
    return ModularWavefunction(new_grid, _frozen(samples), tail_bound=psi.tail_bound)


def convention_phase(u: float, v: float, convention: str) -> complex:
    """Overlap of the momentum-first Zak ket with its alternatively ordered variants; ValueError
    unless ``u``, ``v`` and the phase ``u v`` are finite."""
    u, v = _finite("u", u), _finite("v", v)
    if convention == "momentum_first":
        return 1.0 + 0j
    if convention in ("opposite", "symmetric"):
        phase = _finite(f"the phase u v for u={u!r}, v={v!r}", u * v)
        return cmath.exp(-1j * (phase if convention == "opposite" else phase / 2))
    raise ValueError(f"unknown convention {_shown(convention)}")
