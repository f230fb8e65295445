"""Centered modular arithmetic, the one canonicalizer behind ``ZakPatch.reduce``.

A real number splits against a period ``T`` and a centering ``mu`` as

    x = frac + whole,   frac in [-mu, T - mu),   whole = n * T,  n integer.

The half-open window is enforced by floor arithmetic alone; there is no
epsilon snapping, so values one ulp below a boundary stay below it.  The
default centerings used throughout the package are ``a/4`` for the first
Zak variable and ``pi/a`` for the second, which places the fundamental
patch at ``[-a/4, 3a/4) x [-pi/a, pi/a)``.
"""

from __future__ import annotations

import math
import reprlib

__all__ = ["split"]


def _float(value, kind=float):
    """``kind(value)``, a float or a complex, but an int past the float range is the infinity of its sign."""
    try:
        return kind(value)
    except OverflowError:
        return kind(math.inf if value > 0 else -math.inf)


def _shown(n):
    """A value for a message: itself, but an int past the float range is the infinity of its sign,
    and text (which ``float`` would read) or a value that is no number its repr, cut short."""
    try:
        if not isinstance(n, (str, bytes, bytearray)):
            return n if math.isfinite(_float(n)) else _float(n)
    except (TypeError, ValueError):
        pass
    return reprlib.repr(n)


def split(x: float, period: float, centering: float) -> tuple[float, int]:
    """Return ``(frac, n)`` with ``frac = x - n*period`` in ``[-centering, period-centering)``.

    Raises ValueError for a period that is not positive and finite, a
    centering that is not finite, and an ``x`` that is not finite or has
    too many periods to count; every other ``x`` gets a ``frac`` inside the
    window.  For ``|x|`` much larger than the period the fractional part
    carries the usual floating-point cancellation error, and when no count
    puts the rounded difference inside the window, the left-closed bound is
    authoritative: ``frac`` is ``-centering``, with the count that leaves the
    difference just below it.
    """
    # an int past the float range is refused as an infinity
    x, period, centering = _float(x), _float(period), _float(centering)
    if not 0 < period < math.inf:  # NaN too
        raise ValueError(f"period must be positive and finite, got {period!r}")
    if not math.isfinite(centering):
        raise ValueError(f"centering must be finite, got {centering!r}")
    try:
        n = math.floor((x + centering) / period)
    except (OverflowError, ValueError):  # an infinite or NaN quotient
        raise ValueError(f"coordinate {x!r} is not finite, or too large to count in periods of {period!r}") from None
    # The rounded quotient can land one cell off when x sits within an ulp
    # of a boundary; repair deterministically instead of tolerating it.
    if x - n * period < -centering:
        n -= 1
    frac = x - n * period
    if frac >= period - centering:
        n += 1
        frac = x - n * period
    return (frac, n) if -centering <= frac < period - centering else (-centering, n)
