"""The CSV text of grid rows, built with numpy and no Python object per number.

Each float64 is written as ``repr`` writes it: the shortest decimal digits
that round-trip, the nearest of them, ties to even (Schubfach: R. Giulietti,
"The Schubfach way to render doubles", 2020).  The digits come from three
round-to-odd products of the binary significand with a 126-bit power of ten,
in uint64 arithmetic on 32-bit halves, as Java's ``DoubleToDecimal``
computes them; the powers are built once, from Python ints, when this module
is imported.  Subnormals are the one case left to ``repr``: Schubfach keeps
at least two digits where ``repr`` keeps one.

Each number fills eight little-endian uint64 lanes of fixed slots, NUL where
a slot is unused (bytes in memory order)::

    lane 0     NUL x5, sign, the 0 of 0.ddd, first digit      (integer part)
    lanes 1-2  digits 2-17                                    (integer part)
    lane 3     NUL x3, point, up to three zeros, first digit  (fraction)
    lanes 4-5  digits 2-17                                    (fraction)
    lane 6     the 0 of d.0, e, exponent sign, 2-3 exponent digits, separator, NUL
    lane 7     NUL, or the 0.0 and newline of a real sample's imaginary part

The 17 digits are written twice and masked: digits before the point show in
the integer part, the rest up to the last nonzero one in the fraction.  A
sample's real part has the lanes of its ``j,k,`` in front, and the lanes of
a block whose imaginary parts are all +0.0 hold the real parts alone, each
followed by lane 7's ``0.0``.  Dropping the NULs leaves the text.  ``repr``
writes the exponent form ``d.ddde-XX`` when the point falls more than 16
digits right of the first digit or more than 3 zeros left of it.

A chunk of rows is encoded at once, at most ``CHUNK`` samples or one row:
its buffers peak near 180 bytes per number, whatever the grid's size.
"""

from __future__ import annotations

import functools

import numpy as np

# samples: with a real block's chunk at ~180 bytes per number, a 256x256 zakplot in csv, which
# writes its real _abs and _arg grids with two grids alive, peaks under 2.25 grids
CHUNK = 768


#: a lane: its bytes in memory are the text in order on any platform, its value is what the
#: arithmetic sees
_LANE = np.dtype("<u8")


def _u64(value):
    """A uint64 constant as a 0-d array: numpy pairs it with an array faster than a Python int."""
    return np.array(value, dtype=np.uint64)


_1, _2, _4, _7, _8, _10, _16, _20, _32, _52, _56, _63 = map(_u64, (1, 2, 4, 7, 8, 10, 16, 20, 32, 52, 56, 63))
_LOW32, _LOW63, _MANTISSA, _HIDDEN = map(_u64, (2**32 - 1, 2**63 - 1, 2**52 - 1, 2**52))
_E4, _E8, _E16, _40, _100 = map(_u64, (10**4, 10**8, 10**16, 40, 100))


def _exponent_tables():
    """Schubfach's constants.  Per ``key = 2 * biased_exponent + (significand bits != 0)``: the
    index of the decimal exponent k, the shift h that makes ``cp = 4c 2**h`` of the significand c
    (hidden bit included), and whether the gap below c is half the gap above (c = 2**52 past the
    least exponent).  Per k index: the 126-bit power of ten g = g1 2**63 + g0 and the first digit's
    decpt ``k + 17``, offset by 323.  Key 0, zero, takes a last k index whose g is 0 and whose
    decpt is 1; key 1, the subnormals, computes garbage that ``repr`` replaces."""
    biased, nonzero = np.divmod(np.arange(4096), 2)
    q = biased - 1075
    uneven = (nonzero == 0) & (biased > 1)
    k = (q * 661971961083 - uneven * 274743187321) >> 41  # floor(log10(2**q)), or of 2**q * 3/4
    h = q + ((-k * 913124641741) >> 38) + 2  # + floor(log2(10**-k))
    kidx = (k + 324).astype(np.int16)
    kidx[0] = 617
    g1, g0 = [], []
    for k in range(-324, 293):
        r = (-k * 913124641741) >> 38  # floor(log2(10**-k))
        g = (10 ** -k << 125 - r if 125 >= r else 10 ** -k >> r - 125) if k <= 0 else (1 << 125 - r) // 10 ** k
        g += 1  # g = floor(10**-k 2**(125 - r)) + 1: 2**125 <= g < 2**126
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    g1, g0 = np.array(g1 + [0], dtype=np.uint64), np.array(g0 + [0], dtype=np.uint64)
    decpt = np.arange(-324 + 17 + 323, 293 + 17 + 323 + 1)
    decpt[617] = 1 + 1 + 323  # f = 0 counts as 16 digits: decpt 1
    return kidx, h.astype(np.uint8), uneven, g1, g0, decpt


_KIDX, _H, _UNEVEN, _G1, _G0, _DECPT = _exponent_tables()
# by vb & 7 = 4 (s odd) + vb % 4: s + 1 is nearer at vb % 4 == 3, and wins the tie at 2 if s is odd
_TIE = np.array([0, 0, 0, 1, 0, 0, 1, 1], dtype=bool)
_SCALE = np.array([1, 10], dtype=np.uint64)


def _mulhi(a1, a0, b1, b0, out=None):
    """The upper 64 bits of the 128-bit product of a = a1 2**32 + a0 and b = b1 2**32 + b0,
    into ``out`` if given (which may be ``b0``)."""
    t = a0 * b0
    t >>= _32
    p = a1 * b0
    t += p
    w = np.bitwise_and(t, _LOW32, out=out)
    np.multiply(a0, b1, out=p)
    w += p
    w >>= _32
    t >>= _32
    w += t
    np.multiply(a1, b1, out=p)
    w += p
    return w


def _rop(kidx, cp):
    """Schubfach's round-to-odd ``g cp / 2**127`` for g = g1 2**63 + g0 of each k index, as Java's
    ``DoubleToDecimal.rop`` computes it; overwrites ``cp``."""
    c0 = cp & _LOW32
    cp >>= _32
    g = _G0.take(kidx)
    g_low = g & _LOW32
    g >>= _32
    x = _mulhi(g, g_low, cp, c0)  # x1
    y = _G1.take(kidx)
    # y0, the low half of g1 cp, from cp's halves: one buffer fewer alive in the product above
    z = y * c0
    t = y * cp
    t <<= _32
    z += t
    del t
    z >>= _1
    z += x
    del x
    np.bitwise_and(y, _LOW32, out=g_low)
    np.right_shift(y, _32, out=g)
    y = _mulhi(g, g_low, cp, c0, out=c0)  # y1
    y += z >> _63
    z &= _LOW63
    z += _LOW63
    z >>= _63
    y |= z
    return y


def _digits(x):
    """``(f, decpt)`` of finite float64 ``x``: ``|x| = 0.F * 10**decpt`` for the 17 digits F of
    ``f`` (uint64, zero-padded on the right) of ``repr(x)``, decpt offset by 323; f is 0 and
    decpt 1 for zero."""
    bits = x.view(np.uint64)
    key = bits << _1
    key >>= _52  # 2 * biased exponent + the top significand bit
    c = bits & _MANTISSA
    key |= c != 0
    key = key.view(np.int64)
    c |= _HIDDEN
    cp = np.empty((3, len(x)), dtype=np.uint64)  # 4c less the gap below, 4c, 4c plus the gap above
    np.left_shift(c, _2, out=cp[1])
    np.subtract(cp[1], _2, out=cp[0])
    np.add(cp[0], _UNEVEN.take(key), out=cp[0], casting="unsafe")
    np.add(cp[1], _2, out=cp[2])
    cp <<= _H.take(key)
    kidx = _KIDX.take(key)
    tiny = key == 1
    del c, key
    vbl, vb, vbr = _rop(kidx, cp)
    del cp
    odd = bits & _1  # an odd significand's interval excludes its ends
    vbl += odd
    vbr -= odd
    # s = vb // 4 or t = s + 1: the one in the interval, or if both are, the nearer (ties to even s)
    s4 = vb >> _2
    s4 <<= _2
    up = s4 + _4
    up = up <= vbr
    t = vb & _7
    t = _TIE.take(t.view(np.int64))
    # t ^= (s in) != (t in) and (t in) != t: where one of them is in, take it (no masked ufunc: faster)
    alone = vbl <= s4
    alone ^= up
    up ^= t
    alone &= up
    t ^= alone
    vb >>= _2
    f = np.add(vb, t, dtype=np.uint64)
    # a multiple of 10 next to s that is alone in the interval has one digit fewer
    vb //= _10
    vb *= _40
    up = vb + _40
    up = up <= vbr
    np.less_equal(vbl, vb, out=t)
    t ^= up
    vb += up * _40
    vb >>= _2
    np.putmask(f, t, vb)
    # f has 16 or 17 digits: 4.5e15 <= 2**52 <= f < 10 * 2**53
    short = f < _E16
    f *= _SCALE.take(short.view(np.uint8))
    decpt = _DECPT.take(kidx)
    decpt -= short
    if tiny.any():
        for i in np.flatnonzero(tiny).tolist():
            mantissa, _, exponent = repr(abs(float(x[i]))).partition("e")
            f[i] = int(mantissa.replace(".", "").ljust(17, "0"))
            decpt[i] = int(exponent) + 1 + 323
    return f, decpt


_DIV100, _LANES100 = _u64(10486), _u64(0x0000007F0000007F)  # v * 10486 >> 20 == v // 100 for v < 10**4
_DIV10, _LANES10 = _u64(103), _u64(0x000F000F000F000F)  # v * 103 >> 10 == v // 10 for v < 100
_SEVENS, _HIGHS = _u64(0x7F7F7F7F7F7F7F7F), _u64(0x8080808080808080)
_GATHER = _u64(0x0102040810204080)  # the high bit of byte i to bit 56 + i
_ASCII = _u64(0x3030303030303030)  # "0" in each byte
_FIRST = _u64(48 << 56)  # "0" in the top byte


def _ascii_digits(f, sign, lanes):
    """OR the 17 digits of each f < 10**17, as ASCII, twice into ``lanes[:, 0:3]`` and
    ``lanes[:, 3:6]`` (the first digit in the top byte of lanes 0 and 3) with ``sign``'s bytes in
    lane 0, and return how many digits come before the trailing zeros (1 for f = 0)."""
    x = np.empty((2, len(f)), dtype=np.uint64)  # digits 2-9 and 10-17
    top = f // _E8
    np.multiply(top, _E8, out=x[1])
    np.subtract(f, x[1], out=x[1])
    x[0] = top
    top //= _E8
    np.multiply(top, _E8, out=f)
    x[0] -= f
    # eight digits per lane (D. Lemire): 4 + 4, then 2 + 2, then 1 + 1, first digit in the lowest byte
    t = x // _E4
    x -= t * _E4
    x <<= _32
    x |= t
    np.multiply(x, _DIV100, out=t)
    t >>= _20
    t &= _LANES100
    x -= t * _100
    x <<= _16
    x += t
    np.multiply(x, _DIV10, out=t)
    t >>= _10
    t &= _LANES10
    x -= t * _10
    x <<= _8
    x += t
    # bit i of t[0]: digit i + 2 is nonzero
    np.add(x, _SEVENS, out=t)
    t &= _HIGHS
    t >>= _7
    t *= _GATHER
    t >>= _56
    t[1] <<= _8
    t[0] |= t[1]
    count = np.frexp(t[0])[1]
    count += 1
    x += _ASCII
    top <<= _56
    top += _FIRST
    lanes[:, 3] |= top
    top |= sign
    lanes[:, 0] |= top
    for i in (1, 4):
        lanes[:, i] |= x[0]
        lanes[:, i + 1] |= x[1]
    return count


@functools.lru_cache(maxsize=None)
def _number_tables(p):
    """For numbers with ``p`` lanes in front: the lanes a number's decpt fixes, per decpt from -323
    (5e-324) to 309 offset by 323, with the point and the 0 of d.0 that the mask may drop; 18 times
    the digits before the point per decpt (17 stands for the exponent form); and the masks, row
    ``18 * before + count`` for ``count`` digits before the trailing zeros."""
    decpt = np.arange(-323, 310)[:, None]
    positional = (decpt > -4) & (decpt < 17)
    slots = np.zeros((633, 8 * p + 64), dtype=np.uint8)
    row = slots[:, 8 * p:]
    row[:, 27] = ord(".")
    row[:, 6:7] = np.where(positional & (decpt <= 0), ord("0"), 0)
    row[:, 28:31] = np.where(positional & (np.arange(3) < -decpt), ord("0"), 0)
    row[:, 48:49] = np.where(positional, ord("0"), 0)
    e = decpt - 1
    a = np.abs(e)
    wide = np.hstack([np.full_like(a, ord("e")), np.where(e < 0, ord("-"), ord("+")), 48 + a // 100, 48 + a // 10 % 10, 48 + a % 10])
    narrow = np.hstack([np.zeros_like(a), wide[:, :2], wide[:, 3:]])  # "e+16" has no hundreds digit
    row[:, 49:54] = np.where(positional, 0, np.where(a >= 100, wide, narrow))
    before = 18 * np.where(positional, np.maximum(decpt, 0), 17).reshape(-1)
    masks = np.zeros((18, 18, 8 * p + 64), dtype=np.uint8)
    row = masks[..., 8 * p:]
    row[..., [5, 6, 28, 29, 30, 49, 50, 51, 52, 53, 54]] = 0xFF  # sign, 0., zeros, exponent, separator
    row[..., 56:] = 0xFF  # the imaginary 0.0
    b, n = np.ogrid[:18, :18]
    digits = np.where(b == 17, 1, b)[..., None]  # before the point
    row[..., 7:24] = np.where(np.arange(17) < digits, 0xFF, 0)
    row[..., 31:48] = np.where((np.arange(17) >= digits) & (np.arange(17) < n[..., None]), 0xFF, 0)
    row[..., 27] = np.where((n > digits[..., 0]) | (b < 17), 0xFF, 0)  # a single digit takes no point: 1e-05
    row[..., 48] = np.where((n <= digits[..., 0]) & (b < 17), 0xFF, 0)  # d.0
    return slots.view(_LANE), before, masks.reshape(18 * 18, -1).view(_LANE)


def _index_lanes(start, n, end, lanes):
    """(n, lanes) lanes holding ``i,`` for each i from ``start``, right-aligned to end before byte
    ``end`` and NUL elsewhere."""
    text = np.zeros((n, 8 * lanes), dtype=np.uint8)
    i = np.arange(start, start + n)
    for p in range(len(str(start + n - 1))):  # the digit of 10**p
        digit = i // 10**p
        text[:, end - 2 - p] = np.where((digit > 0) | (p == 0), 48 + digit % 10, 0)
    text[:, end - 1] = ord(",")
    return text.view(_LANE)


_COMMA, _NEWLINE = _u64(ord(",") << 48), _u64(ord("\n") << 48)
_ZERO_IMAGINARY = _u64(int.from_bytes(b"0.0\n", "little"))
_MINUS = _u64(ord("-") << 40)


class GridText:
    """The CSV lines ``j,k,re,im`` of one grid's rows, as bytes: ``GridText(grid)(j, rows)``
    yields the text of rows ``j ..`` a chunk at a time."""

    def __init__(self, grid):
        self.width = width = len(str(max(grid.nu, grid.nv) - 1)) + 1  # an index's digits and comma
        self.front = p = -(-2 * width // 8)  # the lanes of j,k in front of a real part
        self.k = _index_lanes(0, grid.nv, 2 * width, p)
        self.slots, self.before, self.masks = _number_tables(p)

    def __call__(self, j, rows):
        rows = np.ascontiguousarray(rows)
        real = not rows.view(np.uint64)[:, 1::2].any()  # every imaginary part's bits zero: +0.0
        js = _index_lanes(j, len(rows), self.width, self.front)
        step = max(1, CHUNK // rows.shape[1])
        for i in range(0, len(rows), step):
            yield self._text(js[i:i + step], rows[i:i + step], real)

    def _text(self, js, rows, real):
        """The text of ``rows``, whose j lanes are ``js``."""
        r, nv = rows.shape
        p = self.front
        x = (rows.real if real else rows.view(np.float64)).reshape(-1)
        f, decpt = _digits(x)
        sign = x.view(np.uint64) >> _63
        sign *= _MINUS
        del x
        lanes = self.slots.take(decpt, axis=0)
        count = _ascii_digits(f, sign, lanes[:, p:])
        del f, sign
        if real:
            lanes[:, p + 6] |= _COMMA
            lanes[:, p + 7] = _ZERO_IMAGINARY
        else:
            lanes[0::2, p + 6] |= _COMMA
            lanes[1::2, p + 6] |= _NEWLINE
        before = self.before.take(decpt)
        del decpt
        before += count
        del count
        lanes &= self.masks.take(before, axis=0)
        index = lanes.reshape(r, nv, -1)[:, :, :p] if real else lanes.reshape(r, nv, 2, -1)[:, :, 0, :p]
        np.bitwise_or(js[:, None], self.k[None, :nv], out=index)
        text = lanes.tobytes()
        del lanes, index
        return text.translate(None, b"\0")
