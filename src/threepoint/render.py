"""Trace CSV rows rendered in numpy, byte for byte what '%d' and '%.17g' give.

Each value becomes a fixed-width uint8 cell, NUL where unused; a chunk's NULs
are dropped once.  A float's 17 digits are rint(y), y = |x| * 10**(16 - e) in
long double with 10**k rounded by strtold: y is within 2u * y of the exact
product (u the unit roundoff), so rint(y) rounds as Python does unless y is
within 4u * y of a tie.  Those values, zeros and non-finite values go to
format(x, '.17g'), as does every value where long double is double.
"""

from __future__ import annotations

import numpy as np

from .optimizers import BRANCHES

# 10**(16 - e) at _POW10[309 - e], for e from -325 to 309 (doubles span -324 to 308)
_POW10 = np.array([f"1e{k}" for k in range(-293, 342)]).astype(np.longdouble)
_DIGITS = np.ascontiguousarray(48 + np.indices((10,) * 4, np.uint8).reshape(4, -1).T)  # of i
_ZEROS = (_DIGITS[:, ::-1] == 48).cumprod(axis=1).sum(axis=1).astype(np.int8)  # i's trailing
_QUADS = (_DIGITS.astype("<u2") | 0xFF00).view("<u8").ravel()  # as uint16s, 0xFF above each
# the slot masks at 18 * shown + point: the digit alone, or with '.' after it, or nothing
_MASKS = (np.where(np.arange(17) < np.arange(18)[:, None, None], 0xFF, 0)
          | np.where(np.arange(17) == np.arange(18)[:, None], 0x2E00, 0)).reshape(-1, 17).astype("<u2")
# at 635 * negative + e + 325: the sign and the prefix of -4 <= e < 0 before the
# digits, and the exponent of e < -4 or e >= 17 after them
_AFFIXES = np.frombuffer("".join(
    (sign + (f"0.{'0' * (-1 - e)}" if -4 <= e < 0 else "")).ljust(8, "\0")
    + ("" if -4 <= e < 17 else f"e{e:+03d}").ljust(6, "\0")
    for sign in ("", "-") for e in range(-325, 310)).encode(), np.uint8).reshape(-1, 14)
_NAMES = np.array([list(name.encode().ljust(5, b"\0")) for name in BRANCHES], np.uint8)
_WIDTH = 48  # a float's cell: sign and prefix, 17 digit slots from byte 8, exponent


def _split(v: np.ndarray, count: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The last count 4-digit groups of v, most significant first, and what is above them."""
    groups = []
    for _ in range(count):
        above = v // 10**4  # no %: numpy's int64 floor division by a scalar is vectorised
        groups.insert(0, v - above * 10**4)
        v = above
    return groups, v


def floats(x: np.ndarray) -> np.ndarray:
    """(n, _WIDTH) cells of format(v, '.17g') for each v of a float64 array."""
    a = np.abs(x)
    own = np.isfinite(a) & (a > 0.0)
    a[~own] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf power where long double is double
        y = a * _POW10[309 - e]
        d = np.rint(y)
        r = (y - d).astype(float)
        d = d.astype(np.int64)
    # y is within 2u * y of the exact product: its rounding is sure outside
    # 4u * y of a tie, and e the exponent when 10**16 < d < 10**17 (log10 can be one off)
    own &= (d > 10**16) & (d < 10**17) & (np.abs(r) < 0.5 - 4 * float(np.finfo(y.dtype).epsneg) * d)
    groups, first = _split(np.where(own, d, 10**16), 4)
    cells = np.empty((len(x), _WIDTH), np.uint8)
    slots = cells[:, 8:42].view("<u2")
    slots[:, 0] = 0xFF30 + first
    quads, zeros = cells[:, 10:42].view("<u8"), 0
    for at, g in enumerate(groups):
        quads[:, at] = _QUADS.take(g)
        z = _ZEROS.take(g)
        zeros = z + (z == 4) * zeros
    sig = 17 - zeros  # significant digits, trailing zeros stripped
    fixed = (e >= 0) & (e < 17)  # the digits up to the point are all shown
    point = np.where(fixed, e, 0)  # a point follows this digit unless none is shown after it
    shown = np.maximum(sig, fixed * (e + 1))
    point[(sig - 1 <= point) | (e < 0) & (e >= -4)] = 17
    np.bitwise_and(slots, _MASKS.take(18 * shown + point, axis=0), out=slots)
    affix = _AFFIXES.take(635 * np.signbit(x) + e + 325, axis=0)
    cells[:, :8] = affix[:, :8]
    cells[:, 42:] = affix[:, 8:]
    back = np.flatnonzero(~own)
    cells[back] = np.frombuffer(b"".join(format(v, ".17g").encode().ljust(_WIDTH, b"\0")
                                         for v in x[back].tolist()), np.uint8).reshape(-1, _WIDTH)
    return cells


def ints(v: np.ndarray) -> np.ndarray:
    """Cells of '%d' for each v of a non-negative int64 array."""
    count = 1 + (len(str(int(v.max(initial=0)))) - 1) // 4
    cells = np.empty((len(v), count), np.uint32)
    for at, g in enumerate(_split(v, count)[0]):
        cells[:, at] = _DIGITS.view(np.uint32).take(g)
    lead = 4 * count - 1 - np.searchsorted(10 ** np.arange(1, 19), v, side="right")  # zeros
    return cells.view(np.uint8) * (np.arange(4 * count) >= lead[:, None])


def rows(trace, lo: int, hi: int) -> bytes:
    """Rows lo to hi of a trace's CSV (k,f_z,gamma,branch,evals,grad_norm_D)."""
    evals = trace.evals[lo:hi]  # a range
    k, evals = ints(np.r_[lo:hi, evals.start:evals.stop:evals.step]).reshape(2, hi - lo, -1)
    columns = [trace.f_z, trace.gamma] + ([] if trace.grad_norm is None else [trace.grad_norm])
    f_z, gamma, *grad = floats(np.concatenate([np.asarray(c[lo:hi], dtype=float) for c in columns]
                                              )).reshape(len(columns), hi - lo, _WIDTH)
    cells = [k, f_z, gamma, _NAMES.take(np.asarray(trace.branch[lo:hi]), axis=0), evals,
             *(grad or [np.empty((hi - lo, 0), np.uint8)])]
    comma = np.full((hi - lo, 1), 44, np.uint8)
    row = np.concatenate([part for c in cells for part in (c, comma)], axis=1)
    row[:, -1] = 10
    return row.tobytes().translate(None, b"\0")
