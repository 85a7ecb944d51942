"""Matrix floats as JSON text, a chunk of ``[re, im]`` rows at a time.

Each float is written as ``format(x, ".17g")`` writes it, which stays the one
reference: the 17 significant digits of |x| correctly rounded (ties to even),
fixed notation for decimal exponents -4 <= e < 17 and scientific otherwise,
trailing zeros dropped and then a dot with no digit after it.  The kernel
takes the digits of a whole chunk as n = rint(y), y = |x| * 10**(16 - e)
(after Adams, "Ryu revisited: printf floating point conversion", OOPSLA
2019), in float64 alone, so the same on every platform.  e is log10's
estimate: the decimal exponent of |x|, or one below it where |x| lies less
than 2.31e-9 (relative) above a power of ten; a certified n = 10**17 then
carries, and a larger n goes to ``format``.  10**k is held as hi + lo, hi
the float64 nearest 10**k and lo the one nearest 10**k - hi.  Dekker's
product (with Veltkamp's split; "A floating-point technique for extending
the available precision", Numer. Math. 18, 1971) gives the error d of
p = fl(|x| * hi) exactly, so y = p + d + |x| * (10**k - hi), p an integer.
The kernel takes tail = fl(d + fl(|x| * lo)) and n = p + rint(tail).

The bound B on |tail - (y - p)|, with u = 2**-53: y < 1e17 * (1 + 2.4e-9),
so p < 2**57, |d| <= ulp(p) / 2 <= 8, and |x| * |10**k - hi| <= u * |x| * hi
< 11.2.  Rounding lo costs at most u * 11.2 < 1.3e-15 of |x| * lo, the
product's rounding as much again, and the sum's, below 20 in magnitude, at
most u * 20 < 2.3e-15: B < 5e-15.  f = tail - rint(tail) is exact, so where
|f| < 1/2 - _MARGIN (twice B), y lies within 1/2 of n and rounds to it; an
exact tie never certifies.  ``format`` writes each value whose rounding that
does not certify, and each |x| outside [1e-280, 1e280], a range well inside
the one where the splits of |x| and of hi stay finite and lo normal.

Each value is laid out in a slot of ``_SLOT`` bytes, the bytes it does not
use left NUL, and the chunk's NULs are dropped at the end:

  byte 0        "[" before a real part
  byte 1        "-"
  bytes 2-6     "0." and the zeros before the first digit, for e < 0
  bytes 7-23    the 17 digits; with a dot after digit p, digits 0..p sit one
                byte lower and the dot at byte 7 + p
  bytes 24-28   the exponent, "e-05" to "e+280"
  bytes 29-31   ", " after a real part, "], " after an imaginary one
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_SLOT = 32
# |x| the kernel lays out; format writes every other value
_X_MIN, _X_MAX = 1e-280, 1e280
# Their decimal exponents (1e-280 lies below 10**-280), one beyond at each
# end: log10's estimate may be one below, and a rounding may carry up.
_E_MIN, _E_MAX = -282, 281
# Twice the bound B on the error of tail (see the module docstring)
_MARGIN = 1e-14
# Layout classes: fixed notation for e = -4..16, then scientific.
_CLASSES = 22
_WORD = np.dtype("<u8")
_ROW = np.dtype((np.void, _SLOT))
# Rows laid out at once: bounds the kernel's arrays, a few of 0.3 MB each.
_BLOCK = 1 << 12


def _power(k: int) -> tuple[float, float, float, float]:
    """10**k = hi + lo, hi and lo correctly rounded, and hi's two halves: from
    exact Python ints, which CPython converts to float and divides correctly
    rounded."""
    ten = 10 ** abs(k)
    hi = float(ten) if k >= 0 else 1 / ten
    n, d = hi.as_integer_ratio()
    # for k < 0, 10**k - hi = (d - n * ten) / (ten * d), and d is a power of
    # two: dividing by it last is exact (lo is normal here)
    return hi, *_halves(hi), (float(ten - n) if k >= 0 else (d - n * ten) / ten / d)


def _halves(v):
    """Veltkamp's split: v = high + low exactly, each half of 26 bits."""
    split = v * 134217729.0  # 2**27 + 1
    high = split - (split - v)
    return high, v - high


def _slots() -> tuple[np.ndarray, ...]:
    """The slot tables below, each slot a row of ``_SLOT // 8`` words."""
    # slot byte b by class c and kept digits k; the dot follows digit p
    b = np.arange(_SLOT)
    c = np.arange(_CLASSES)[:, None, None]
    k = np.arange(18)[None, :, None]
    e = c - 4
    p = np.where(c == _CLASSES - 1, 0, np.where(e >= 0, e, _SLOT))
    dot = k > p + 1
    keep = (b >= np.where(dot, 8 + p, 7)) & (b < 7 + k)
    move = dot & (b >= 6) & (b < 7 + p)
    text = np.where(dot & (b == 7 + p), ord("."), 0)
    fraction = (c < 4) & (b >= 6 + e) & (b < 7)  # "0." and zeros, for e < 0
    text = text + fraction * np.where(b == 7 + e, ord("."), ord("0"))
    punct = np.array([text, text], np.uint8)
    punct[0, ..., 0] = ord("[")
    punct[0, ..., 29:31] = np.frombuffer(b", ", np.uint8)
    punct[1, ..., 29:32] = np.frombuffer(b"], ", np.uint8)
    exponents = [b"e%+03d" % d for d in range(_E_MIN, _E_MAX + 1)] + [b""]
    sign_exp = np.zeros((len(exponents), 2, _SLOT), np.uint8)
    sign_exp[:, :, 24:29] = np.array(exponents, "S5").view(np.uint8).reshape(-1, 1, 5)
    sign_exp[:, 1, 1] = ord("-")
    zero = punct[:, 4, 1] | sign_exp[-1, :, None]  # class e = 0, one digit
    zero[..., 7] = ord("0")
    tables = keep * 0xFF, move * 0xFF, punct, sign_exp, zero
    return tuple(np.ascontiguousarray(t, np.uint8).view(_WORD).reshape(-1, _SLOT // 8) for t in tables)


# hi, hi's two halves and lo of 10**k, at row k - _E_MIN
_POW10 = np.array([_power(k) for k in range(_E_MIN, 17 - _E_MIN)])
# ASCII digits of 0..9999 as one little-endian word each
_GROUPS = 0x30303030 + sum(np.arange(10000, dtype=_WORD) // 10 ** (3 - j) % 10 << 8 * j for j in range(4))
# trailing decimal zeros of 0..9999 (4 for 0)
_ZEROS = np.sum([np.arange(10000) % 10**j == 0 for j in range(1, 5)], axis=0, dtype=np.int8)
(
    _KEEP,  # slot masks by (class, kept digits): unmoved digits
    _MOVE,  # ... and digits moved one byte down for the dot
    _PUNCT,  # slot bytes by (imaginary, class, kept digits)
    _SIGN_EXP,  # slot bytes by (exponent or fixed, sign)
    _ZERO,  # the slots of 0 and -0, by (sign, imaginary)
) = _slots()


def encode_block(pairs: np.ndarray) -> bytes:
    """The text ``[x, y], [x, y], ...`` of a contiguous ``(N, 2)`` float64
    array of finite values, at most ``_BLOCK`` rows, each float as
    ``format(x, ".17g")`` writes it."""
    # a zero is "0" or "-0"; the nonzero values are laid out below
    zero = np.signbit(pairs) * 2
    zero[:, 1] += 1
    slots = _ZERO.take(zero.reshape(-1), axis=0)
    where = np.flatnonzero(pairs)
    x = pairs.reshape(-1).take(where)
    # a value clipped to the range laid out goes to format below
    a = np.clip(np.abs(x), _X_MIN, _X_MAX)
    # log10 less a margin far above its rounding is the decimal exponent or one
    # below it (see the module docstring)
    e = np.floor(np.log10(a) - 1e-9).astype(np.int64)
    hi, hi_hi, hi_lo, lo = _POW10.take(16 - _E_MIN - e, axis=0).T
    p = a * hi
    a_hi, a_lo = _halves(a)
    tail = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    # freed here, the block's peak stays below what glibc keeps between
    # blocks: otherwise each block faults its temporaries in again
    del hi, hi_hi, hi_lo, lo, a_hi, a_lo
    r = np.rint(tail)
    n = p.astype(np.int64) + r.astype(np.int64)
    # unclipped, certified and at most the carry 10**17 (see the module docstring)
    ok = (a == np.abs(x)) & (np.abs(tail - r) < 0.5 - _MARGIN) & (n <= 10**17)
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    # the 17 digits: a lead digit and four groups of four, each n // 10**j less
    # the one before it times 10**4
    g = n // 10 ** np.arange(16, -1, -4, dtype=np.int64)[:, None]
    g[1:] -= g[:-1] * 10**4
    lead, g0, g1, g2, g3 = g
    zeros = np.where(
        g3, _ZEROS.take(g3),
        np.where(g2, 4 + _ZEROS.take(g2), np.where(g1, 8 + _ZEROS.take(g1), 12 + _ZEROS.take(g0))),
    )
    fixed = (e >= -4) & (e < 17)
    kept = np.where(fixed & (e > 0), np.maximum(17 - zeros, e + 1), 17 - zeros)
    layout = np.where(fixed, e + 4, _CLASSES - 1) * 18 + kept
    digits = np.zeros((len(x), _SLOT // 8), _WORD)
    digits[:, 0] = (lead + ord("0")).astype(_WORD) << 56
    digits[:, 1] = _GROUPS.take(g0) | _GROUPS.take(g1) << 32
    digits[:, 2] = _GROUPS.take(g2) | _GROUPS.take(g3) << 32
    # every slot moved one byte down; byte 0 of each slot is NUL here
    flat = digits.reshape(-1)
    moved = flat >> 8
    moved[:-1] |= flat[1:] << 56
    laid = digits & _KEEP.take(layout, axis=0)
    laid |= moved.reshape(digits.shape) & _MOVE.take(layout, axis=0)
    laid |= _PUNCT.take(layout + (where & 1) * (_CLASSES * 18), axis=0)
    exponent = np.where(fixed, len(_SIGN_EXP) // 2 - 1, e - _E_MIN)
    laid |= _SIGN_EXP.take(exponent * 2 + np.signbit(x), axis=0)
    strings = [format(v, ".17g") for v in x[~ok].tolist()]
    laid.view(np.uint8)[~ok, 1:29] = np.array(strings, "S28").view(np.uint8).reshape(-1, 28)
    np.put(slots.view(_ROW).reshape(-1), where, laid.view(_ROW).reshape(-1))
    return slots.tobytes().translate(None, b"\0")[:-2]


def encode(slabs) -> Iterator[bytes]:
    """Yield the rows of a sequence of ``(N, 2)`` float arrays as the one text
    ``[[x, y], ...]``, ``_BLOCK`` rows at a time."""
    yield b"["
    separator = b""
    for a in slabs:
        if not isinstance(a, np.ndarray):
            raise TypeError(f"cannot serialize a {type(a).__name__} as matrix data")
        if a.ndim != 2 or a.shape[1] != 2 or a.dtype.kind != "f":
            raise TypeError(f"cannot serialize a {a.dtype} array of shape {a.shape}")
        for start in range(0, len(a), _BLOCK):
            chunk = np.ascontiguousarray(a[start : start + _BLOCK], dtype=np.float64)
            if not np.isfinite(chunk).all():
                raise ValueError("non-finite number cannot be serialized")
            # kept until the next block is encoded: freed first, glibc trims the heap
            # and each block faults its temporaries in again (5x the page faults)
            text = encode_block(chunk)
            yield separator + text
            separator = b", "
    yield b"]"
