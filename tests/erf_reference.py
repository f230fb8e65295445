"""Closed forms for sums of Gaussians: a reference for the logical maps and the Zak samples.

It imports nothing from ``zakgkp``, so a fault in the library's Gaussian comb (its
window, its tooth range or its amplitude) cannot move this reference along with it.
A wavefunction here is ``psi(x) = sum_i w_i exp(-(x - mu_i)^2 / 2 sigma^2)``, given as
``(w, mu, sigma)``.  The product of two such Gaussians is one Gaussian,

    exp(-(x - mu_i)^2 / 2 sigma^2) exp(-(x + s - mu_j)^2 / 2 sigma^2)
        = exp(-(mu_i - mu_j + s)^2 / 4 sigma^2) exp(-(x - x0)^2 / sigma^2),
    x0 = (mu_i + mu_j - s) / 2,

so each Gram entry is a sum of erf differences.
"""

import math

import numpy as np

_erf = np.frompyfunc(math.erf, 1, 1)


def codeword_gaussians(alpha, ell, delta):
    """``(w, mu, sigma)`` of the approximate codeword ``|ell>``, unnormalized.

    Its teeth have variance ``delta^2`` and sit at ``alpha ell + 2 alpha n``, under an
    envelope of variance ``delta^-2``.  Each tooth times the envelope is one Gaussian, of
    weight ``exp(-c^2 / 2 (vt + ve))`` for a tooth at ``c``.  Teeth of weight below
    1e-30 are left out.
    """
    vt, ve = delta**2, delta**-2
    sigma2 = 1 / (1 / vt + 1 / ve)
    reach = math.sqrt(2 * (vt + ve) * 30 * math.log(10))
    last = math.ceil(reach / (2 * alpha)) + 1
    c = alpha * ell + 2 * alpha * np.arange(-last, last + 1)
    return np.exp(-c * c / (2 * (vt + ve))), c * sigma2 / vt, math.sqrt(sigma2)


def vacuum_gaussians(offset=0.0):
    """``(w, mu, sigma)`` of the vacuum ``pi^-1/4 exp(-(x - offset)^2 / 2)``."""
    return np.array([math.pi**-0.25]), np.array([float(offset)]), 1.0


def _pair_integral(alpha, w, mu, sigma):
    """``(P, norm)`` of ``psi``: ``norm = int psi^2``, and ``P(s, ell) = sum_m int psi(x) psi(x + s) dx``
    over ``[alpha ell - alpha/2 + 2 alpha m, alpha ell + alpha/2 + 2 alpha m)``.

    For each pair of Gaussians only the windows within ``10 sigma`` of its centre ``x0``
    are summed; the rest hold less than ``erfc(10)`` of it.
    """
    i, j = np.meshgrid(np.arange(w.size), np.arange(w.size), indexing="ij")
    i, j = i.ravel(), j.ravel()
    period = 2 * alpha
    k = np.arange(-math.ceil(10 * sigma / period) - 1, math.ceil(10 * sigma / period) + 2)

    def P(s, ell):
        weight = w[i] * w[j] * np.exp(-(mu[i] - mu[j] + s) ** 2 / (4 * sigma**2))
        x0 = (mu[i] + mu[j] - s) / 2
        lo = alpha * ell - alpha / 2 + period * (np.rint((x0 - alpha * ell) / period)[:, None] + k[None, :])
        erfs = _erf((lo + alpha - x0[:, None]) / sigma) - _erf((lo - x0[:, None]) / sigma)
        return np.sum(weight * erfs.astype(float).sum(axis=1)) * sigma * math.sqrt(math.pi) / 2

    return P, _norm(w, mu, sigma)


def _norm(w, mu, sigma):
    """``int psi^2``."""
    pairs = np.outer(w, w) * np.exp(-np.subtract.outer(mu, mu) ** 2 / (4 * sigma**2))
    return np.sum(pairs) * sigma * math.sqrt(math.pi)


def position_samples(w, mu, sigma, x):
    """``psi(x)``, ``psi`` normalized, at the points ``x`` (any shape)."""
    x = np.asarray(x, dtype=float)
    psi = np.sum(w * np.exp(-((x[..., None] - mu) ** 2) / (2 * sigma**2)), axis=-1)
    return psi / math.sqrt(_norm(w, mu, sigma))


def zak_samples(alpha, w, mu, sigma, u, v, shift=0.0, kick=0.0, b=None):
    """The Zak transform on the code's full patch (``a = 2 alpha``, and ``b = 2 alpha`` unless
    given) of ``X(shift) Z(kick) psi``, ``psi`` normalized, at the nodes ``u`` x ``v``.

    ``X(t) Z(s) psi(x) = exp(i s (x - t)) psi(x - t)`` is again a sum of Gaussians times a phase,
    so each sample is summed directly,

        Z(u, v) = sqrt(b / 2 pi) sum_{|m| <= 80} phi(u + a m) exp(-i b m v),

    with ``phi`` that state.  With another ``b`` this is the transform stretched to it: the same
    comb ``phi(u + a m)``, with ``b`` in the phase and the prefactor.
    """
    a, b = 2 * alpha, 2 * alpha if b is None else b
    m = np.arange(-80, 81)
    x = np.asarray(u, dtype=float)[:, None] + a * m[None, :] - shift
    phi = np.exp(1j * kick * x) * position_samples(w, mu, sigma, x)
    return math.sqrt(b / (2 * math.pi)) * phi @ np.exp(-1j * b * np.outer(m, v))


def pp_coefficients(alpha, w, mu, sigma, u, m):
    """The partitioned-position coefficients of ``psi`` normalized, ``[m, u]``: ``psi(u - a m)``,
    ``a = 2 alpha``, at the full-patch nodes ``u`` of one gauge half.

    A gauge half holds the Zak transform at its rows, ``sqrt(b / 2 pi) sum_n psi(u + a n)
    exp(-i b n v)``, and the bridge's analysis sum over a v period, ``sqrt(alpha / pi) int
    exp(-i b m v) dv``, keeps the one term ``n = -m``: ``sqrt(alpha / pi)^2 pi / alpha = 1``.
    """
    return position_samples(w, mu, sigma, np.asarray(u, dtype=float)[None, :] - 2 * alpha * np.asarray(m)[:, None])


def inverse_samples(alpha, w, mu, sigma, n, u):
    """``psi(u + a n)``, ``a = 2 alpha``, ``psi`` normalized: the position wavefunction that the
    Riemann sum ``sqrt(b / 2 pi) int exp(i b n v) Z(u, v) dv`` over a v period recovers."""
    return position_samples(w, mu, sigma, np.asarray(u, dtype=float) + 2 * alpha * n)


def erf_gram(alpha, w, mu, sigma):
    """The plain Gram matrix of ``psi`` over the correctable windows, normalized by ``int psi^2``.

    ``G[l, l'] = P(alpha (l' - l), l)``: the windows of ``l = 0`` and ``l = 1`` tile the
    line, so the trace is 1.
    """
    P, norm = _pair_integral(alpha, w, mu, sigma)
    return np.array([[P(alpha * (ell_ - ell), ell) for ell_ in (0, 1)] for ell in (0, 1)]) / norm


def erf_ec_gram(alpha, w, mu, sigma):
    """The error-correction Gram matrix of ``psi``, normalized by ``int psi^2``.

    Its diagonal is :func:`erf_gram`'s.  The cross weight ``exp(i alpha v)`` couples the
    comb terms ``n`` periods apart through its Fourier coefficients over a v period
    (``b = 2 alpha``), ``c_n = 2 (-1)^(n+1) / (pi (2n - 1))``, so that
    ``G[0, 1] = sum_n c_{-n} P(alpha + 2 alpha n, 0)``.  The sum runs over every shift
    that brings two of the Gaussians within ``12 sigma`` of each other.
    """
    P, norm = _pair_integral(alpha, w, mu, sigma)
    reach = 12 * sigma + np.ptp(mu)
    n = np.arange(math.floor((-reach - alpha) / (2 * alpha)), math.ceil((reach - alpha) / (2 * alpha)) + 1)
    c = 2 * (-1.0) ** (1 - n) / (math.pi * (-2 * n - 1))
    cross = sum(cn * P(alpha + 2 * alpha * m, 0) for m, cn in zip(n, c))
    return np.array([[P(0.0, 0), cross], [cross, P(0.0, 1)]]) / norm


def erf_residuals(alpha, w, mu, sigma):
    """``(r1, r2)``, the norms of ``(S - 1) psi`` for ``psi`` normalized and the stabilizers
    ``P_V(-2 alpha)``, the position shift by ``2 alpha``, and ``P_U(k) = exp(i k x)``, ``k = 2 pi / alpha``.

    With ``S(s) = sum_ij w_i w_j exp(-(mu_i - mu_j + s)^2 / 4 sigma^2)``, the overlap
    ``int psi(x) psi(x + s) dx`` is ``sigma sqrt(pi) S(s)``.  Under ``exp(i k x)`` the product
    Gaussian of a pair, centred on ``(mu_i + mu_j) / 2``, gives its characteristic function, so

        r1^2 = 2 - 2 S(2 alpha) / S(0)
        r2^2 = 2 - 2 exp(-k^2 sigma^2 / 4) sum_ij w_i w_j exp(-(mu_i - mu_j)^2 / 4 sigma^2)
                     cos(k (mu_i + mu_j) / 2) / S(0)
    """
    ww, diff, mean = np.outer(w, w), np.subtract.outer(mu, mu), np.add.outer(mu, mu) / 2

    def S(s):
        return np.sum(ww * np.exp(-(diff + s) ** 2 / (4 * sigma**2)))

    k = 2 * math.pi / alpha
    cos = math.exp(-(k * sigma) ** 2 / 4) * np.sum(ww * np.exp(-diff**2 / (4 * sigma**2)) * np.cos(k * mean))
    return math.sqrt(2 - 2 * S(2 * alpha) / S(0.0)), math.sqrt(2 - 2 * cos / S(0.0))
