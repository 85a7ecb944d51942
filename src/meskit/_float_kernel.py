"""Matrix floats as JSON text, a chunk of ``[re, im]`` rows at a time.

Each float is written as ``format(x, ".17g")`` writes it, which stays the one
reference: the 17 significant digits of |x| correctly rounded (ties to even),
fixed notation for decimal exponents -4 <= e < 17 and scientific otherwise,
trailing zeros dropped and then a dot with no digit after it.  The kernel
takes the digits of a whole chunk as rint(|x| * 10**(16 - e)) in long double
(after Adams, "Ryu revisited: printf floating point conversion", OOPSLA
2019).  A value whose rounding that cannot certify goes to ``format``; where
long double is a plain double, that is every nonzero value.

Each value is laid out in a slot of ``_SLOT`` bytes, the bytes it does not
use left NUL, and the chunk's NULs are dropped at the end:

  byte 0        "[" before a real part
  byte 1        "-"
  bytes 2-6     "0." and the zeros before the first digit, for e < 0
  bytes 7-23    the 17 digits; with a dot after digit p, digits 0..p sit one
                byte lower and the dot at byte 7 + p
  bytes 24-28   the exponent, "e-05" to "e+308"
  bytes 29-31   ", " after a real part, "], " after an imaginary one
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_SLOT = 32
# Decimal exponents of nonzero float64 values, one beyond at each end for an
# estimate from log10 that is one off.
_E_MIN, _E_MAX = -325, 309
# Layout classes: fixed notation for e = -4..16, then scientific.
_CLASSES = 22
_WORD = np.dtype("<u8")
_ROW = np.dtype((np.void, _SLOT))
# Rows laid out at once: bounds the kernel's arrays, a few of 0.3 MB each.
_BLOCK = 1 << 12


class Tables(NamedTuple):
    pow10: np.ndarray  # 10**(16 - e) correctly rounded, at _E_MAX - e
    groups: np.ndarray  # ASCII digits of 0..9999 as one little-endian word each
    zeros: np.ndarray  # trailing decimal zeros of 0..9999 (4 for 0)
    keep: np.ndarray  # slot masks by (class, kept digits): unmoved digits
    move: np.ndarray  # ... and digits moved one byte down for the dot
    punct: np.ndarray  # slot bytes by (imaginary, class, kept digits)
    sign_exp: np.ndarray  # slot bytes by (exponent or fixed, sign)
    zero: np.ndarray  # the slots of 0 and -0, by (sign, imaginary)
    slack: float  # relative error bound of |x| * pow10 in long double


@functools.cache
def tables() -> Tables:
    """The kernel's tables, built on first use (not at import)."""
    info = np.finfo(np.longdouble)
    i = np.arange(10000, dtype=_WORD)
    groups = 0x30303030 + (i // 1000 | i // 100 % 10 << 8 | i // 10 % 10 << 16 | i % 10 << 24)
    zeros = (i % 10 == 0).astype(np.int8) + (i % 100 == 0) + (i % 1000 == 0) + (i == 0)
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
    punct = np.zeros((2, _CLASSES, 18, _SLOT), np.uint8)
    punct[:] = text
    punct[0, ..., 0] = ord("[")
    punct[0, ..., 29:31] = np.frombuffer(b", ", np.uint8)
    punct[1, ..., 29:32] = np.frombuffer(b"], ", np.uint8)
    exponents = [b"e%+03d" % d for d in range(_E_MIN, _E_MAX + 1)] + [b""]
    sign_exp = np.zeros((len(exponents), 2, _SLOT), np.uint8)
    sign_exp[:, :, 24:29] = np.array(exponents, "S5").view(np.uint8).reshape(-1, 1, 5)
    sign_exp[:, 1, 1] = ord("-")
    zero = punct[:, 4, 1] | sign_exp[-1, :, None]  # class e = 0, one digit
    zero[..., 7] = ord("0")

    def words(mask):
        return np.ascontiguousarray(mask, np.uint8).view(_WORD).reshape(-1, _SLOT // 8)

    return Tables(
        pow10=powers_of_ten(range(16 - _E_MAX, 17 - _E_MIN), info),
        groups=groups,
        zeros=zeros,
        keep=words(keep * 0xFF),
        move=words(move * 0xFF),
        punct=words(punct),
        sign_exp=words(sign_exp),
        zero=words(zero),
        # 10**k and the product each round by at most eps/2 relative, so y
        # is within about eps*y of the exact value; twice that is a margin
        slack=2 * float(info.eps),
    )


def powers_of_ten(exponents, info) -> np.ndarray:
    """10**k for each k, rounded to the nearest long double (ties to even);
    a power beyond the long double range is its largest finite value."""
    bits = info.nmant + 1
    tens = [1]
    for _ in range(max(map(abs, exponents))):
        tens.append(tens[-1] * 10)
    mantissas, shifts = [], []
    for k in exponents:
        num, den = (tens[k], 1) if k >= 0 else (1, tens[-k])
        # num / den / 2**shift lies in [2**(bits - 1), 2**bits)
        shift = num.bit_length() - den.bit_length() - bits
        if shift < 0:
            num <<= -shift
        else:
            den <<= shift
        if num >= den << bits:
            shift += 1
            den <<= 1
        q, r = divmod(num, den)
        q += 2 * r > den or (2 * r == den and q & 1)
        mantissas.append(q)
        shifts.append(shift)
    # sum the mantissas' 32-bit limbs: every partial sum is exact
    top = (bits - 1) // 32 * 32
    limbs = np.array([[(q >> s) & 0xFFFFFFFF for s in range(top, -1, -32)] for q in mantissas], float)
    value = np.zeros(len(mantissas), np.longdouble)
    for limb in limbs.T:
        value = value * 2**32 + limb
    shifts = np.array(shifts)
    big = shifts + bits > info.maxexp
    return np.where(big, info.max, np.ldexp(value, np.where(big, 0, shifts).astype(np.intc)))


def encode_rows(pairs: np.ndarray):
    """Yield the text ``[x, y], [x, y], ...`` of a contiguous ``(N, 2)``
    float64 array of finite values, one piece per ``_BLOCK`` rows (to be
    joined by ``", "``), each float as ``format(x, ".17g")`` writes it."""
    for start in range(0, len(pairs), _BLOCK):
        yield _encode_block(pairs[start : start + _BLOCK])


def _encode_block(pairs: np.ndarray) -> bytes:
    t = tables()
    # a zero is "0" or "-0"; the nonzero values are laid out below
    zero = np.signbit(pairs) * 2
    zero[:, 1] += 1
    slots = t.zero.take(zero.reshape(-1), axis=0)
    where = np.flatnonzero(pairs)
    x = pairs.reshape(-1).take(where)
    a = np.abs(x)
    e = np.floor(np.log10(a)).astype(np.int64)
    a_long = a.astype(np.longdouble)
    y = a_long * t.pow10.take(_E_MAX - e)
    # log10 may be one off near a power of ten: correct e where y left
    # [1e16, 1e17), compared in long double (a float64 y may round onto the
    # bound); one still outside after rounding goes to format below
    off = (y >= 1e17).astype(np.int64) - (y < 1e16)
    redo = np.flatnonzero(off)
    e[redo] += off[redo]
    y[redo] = a_long[redo] * t.pow10.take(_E_MAX - e[redo])
    y64 = y.astype(np.float64)
    r = np.rint(y)
    # certified: y lies within 0.5 of r by more than its error bound, so the
    # exact |x| * 10**(16 - e) rounds to r as well (an exact tie never does);
    # the bound exceeds 0.5 long before y leaves the int64 range
    ok = np.abs((y - r).astype(np.float64)) < 0.5 - t.slack * y64
    n = np.where(ok, r, 0).astype(np.int64)
    # a power of ten clamped to the long double range leaves y short
    ok &= (n >= 10**16) & (n <= 10**17)
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    # the 17 digits: a lead digit and four groups of four
    high = n // 10**8
    low = n - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    g0 = high // 10**4
    g1 = high - g0 * 10**4
    g2 = low // 10**4
    g3 = low - g2 * 10**4
    zeros = np.where(
        g3, t.zeros.take(g3),
        np.where(g2, 4 + t.zeros.take(g2), np.where(g1, 8 + t.zeros.take(g1), 12 + t.zeros.take(g0))),
    )
    fixed = (e >= -4) & (e < 17)
    kept = np.where(fixed & (e > 0), np.maximum(17 - zeros, e + 1), 17 - zeros)
    layout = np.where(fixed, e + 4, _CLASSES - 1) * 18 + kept
    digits = np.zeros((len(x), _SLOT // 8), _WORD)
    digits[:, 0] = (lead + ord("0")).astype(_WORD) << 56
    digits[:, 1] = t.groups.take(g0) | t.groups.take(g1) << 32
    digits[:, 2] = t.groups.take(g2) | t.groups.take(g3) << 32
    # every slot moved one byte down; byte 0 of each slot is NUL here
    flat = digits.reshape(-1)
    moved = flat >> 8
    moved[:-1] |= flat[1:] << 56
    laid = digits & t.keep.take(layout, axis=0)
    laid |= moved.reshape(digits.shape) & t.move.take(layout, axis=0)
    laid |= t.punct.take(layout + (where & 1) * (_CLASSES * 18), axis=0)
    exponent = np.where(fixed, len(t.sign_exp) // 2 - 1, e - _E_MIN)
    laid |= t.sign_exp.take(exponent * 2 + np.signbit(x), axis=0)
    fallback = np.flatnonzero(~ok)
    strings = [format(v, ".17g") for v in x[fallback].tolist()]
    text = laid.view(np.uint8)
    text[fallback, 1:29] = 0
    text[fallback, 1:25] = np.array(strings, "S24").view(np.uint8).reshape(-1, 24)
    np.put(slots.view(_ROW).reshape(-1), where, laid.view(_ROW).reshape(-1))
    return slots.tobytes().translate(None, b"\0")[:-2]
