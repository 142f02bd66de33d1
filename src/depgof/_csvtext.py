"""The text of CSV artifacts: float64 blocks as the bytes of ``"%.17g" % x``.

Python's ``%`` formats one number per call, about 0.8 us each, and numpy has
no faster text writer.  ``format_block`` formats a whole block with array
operations and gives the same bytes.

A finite x with 1e-4 <= |x| < 1e16, or a zero, is formatted here.  Its 17
significant digits are d = |x| * 10^(16 - k) rounded half to even, for
k = floor(log10 |x|), computed exactly: 10^p is a double for p <= 22,
Dekker's two-product (Dekker 1971, Numer. Math. 18, 224-242) splits the
product into P + E with no rounding, and P >= 2^53 is an even integer, so
P + rint(E) rounds ties to even.  Every such value has a %g exponent in
[-4, 16], which %g writes in fixed notation with trailing zeros and a bare
point dropped.  Any other value (a nonzero |x| < 1e-4, |x| >= 1e16, nan,
inf) is formatted by ``%`` and spliced in at its place.
"""

import numpy as np

_WIDTH = 24              # sign, 22 body columns ("0.000" and 17 digits), separator
_LEFT = 6                # row of the first digit in the shifted-digit source
_SRC_ROWS = _LEFT + 23
_COLS = np.arange(_WIDTH, dtype=np.int8)
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]   # 1 + the index of each digit
_TENS = 10.0 ** np.arange(23)           # exact doubles
_SPLIT = 134217729.0                     # 2^27 + 1, Veltkamp's splitter
_TENS_HI = _TENS * _SPLIT - (_TENS * _SPLIT - _TENS)
_TENS_LO = _TENS - _TENS_HI


def _scaled(a, k):
    """(P, E) with P + E = a * 10^(16 - k) exactly and P its rounded double."""
    p = 16 - k
    b_hi, b_lo = _TENS_HI[p], _TENS_LO[p]
    prod = a * _TENS[p]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return prod, err


def _bytemask(mask):
    """0xff where the boolean ``mask`` holds, else 0."""
    return np.negative(mask.view(np.uint8))


def _digits(a):
    """(d, k): the 17-digit integer d in [1e16, 1e17) of each positive a, and
    the %g exponent k with a ~ d * 10^(k - 16)."""
    k = np.floor(np.log10(a)).astype(np.int64)
    prod, err = _scaled(a, k)
    # k one too large: the exact product lies below 1e16
    low = np.flatnonzero((prod < 1e16) | ((prod == 1e16) & (err < 0)))
    if low.size:
        k[low] -= 1
        prod[low], err[low] = _scaled(a[low], k[low])
    d = prod.astype(np.int64) + np.rint(err).astype(np.int64)
    # k one too small, or the rounding carried into an 18th digit
    high = np.flatnonzero(d >= 10 ** 17)
    if high.size:
        k[high] += 1
        prod_h, err_h = _scaled(a[high], k[high])
        d[high] = prod_h.astype(np.int64) + np.rint(err_h).astype(np.int64)
    return d, k


def format_block(x, seps):
    """The bytes of ``"%.17g" % x[i]`` followed by ``seps[i]`` for each value of
    the 1-D float array ``x``; ``seps`` is a uint8 array of x's length
    (``ord(",")`` or ``ord("\\n")``)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    ax = np.abs(x)
    zero = ax == 0.0
    fast = zero | ((ax >= 1e-4) & (ax < 1e16))   # nan compares False
    slow = np.flatnonzero(~fast)
    ax[zero | ~fast] = 1.0
    d, k = _digits(ax)

    # The buffer is built column-major, (_WIDTH, n), so that every step runs
    # over whole contiguous rows.  src holds digit j of each value in row
    # _LEFT + j and "0" in the rows around them; the body shifted right by s
    # columns is then the view src[_LEFT - 1 - s:][:_WIDTH].
    src = np.zeros((_SRC_ROWS, n), dtype=np.uint8)
    hi = (d // 1_000_000_000).astype(np.uint32)
    lo = (d - hi.astype(np.int64) * 1_000_000_000).astype(np.uint32)
    ten = np.uint32(10)
    for q, places in ((lo, range(16, 7, -1)), (hi, range(7, -1, -1))):
        for j in places:
            q10 = q // ten
            src[_LEFT + j] = q - q10 * ten
            q = q10
    nonzero = (src[_LEFT:_LEFT + 17] != 0).view(np.uint8)
    last = (nonzero * _PLACES).max(axis=0).astype(np.int8) - 1   # last nonzero digit
    src += ord("0")

    # %g fixed notation: digit j sits in body column j while j <= k (shift 0),
    # past the point otherwise (shift 1); below 1, the point follows "0" and
    # lead - 1 zeros, lead = -k, so every digit shifts by 1 + lead
    k8 = k.astype(np.int8)
    lead = np.maximum(-k8, 0)
    point = 2 + np.maximum(k8, 0)   # buffer column of the point
    before = _bytemask(_COLS[:, None] < point)
    buf = (src[_LEFT - 1:_LEFT + 23] & before) | (src[_LEFT - 2:_LEFT + 22] & ~before)
    for shift in np.flatnonzero(np.bincount(lead, minlength=5)[1:]) + 1:
        rows = _bytemask(lead == shift)
        buf &= ~rows
        buf |= src[_LEFT - 2 - shift:_LEFT + 22 - shift] & rows
    sign = np.signbit(x)
    sign[slow] = False
    buf[0] = _bytemask(sign) & ord("-")
    flat, cols = buf.reshape(-1), np.arange(n)
    flat[point.astype(np.intp) * n + cols] = ord(".")
    buf[1, zero] = ord("0")

    # body length: through the last nonzero digit, or through the units digit
    sep = 1 + np.where(last > k8, last + 2 + lead, k8 + 1)
    sep[slow] = 1
    flat[sep.astype(np.intp) * n + cols] = seps
    # a row keeps its columns sign..sep; an unsigned row's sign column is
    # already NUL, and no kept byte is, so NUL out the columns past sep and
    # delete every NUL
    buf &= _bytemask(_COLS[:, None] <= sep)
    out = buf.T.tobytes().translate(None, b"\0")
    if not slow.size:
        return out

    # splice each other value in ahead of its separator
    row_end = np.cumsum(sep - np.logical_not(sign).view(np.int8) + 1)
    pieces, at = [], 0
    for i in slow.tolist():
        cut = int(row_end[i]) - 1
        pieces += [out[at:cut], b"%.17g" % x[i]]
        at = cut
    pieces.append(out[at:])
    return b"".join(pieces)
