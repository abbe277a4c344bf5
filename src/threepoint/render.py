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
# The tables are built from Python bytes: a numpy loop the run has not used
# yet maps its code pages, and after the block those pages set the peak.
# i's four digits, as uint16s with 0xFF above each, and i's trailing zeros
_TEXT = bytearray(4 * 10**4)
for _at in range(4):  # digit _at of i steps every 10**(3 - _at) values of i
    _TEXT[_at::4] = bytes(c for c in b"0123456789" for _ in range(10 ** (3 - _at))) * 10**_at
_QUADS = bytearray(2 * len(_TEXT))
_QUADS[::2], _QUADS[1::2] = _TEXT, b"\xff" * len(_TEXT)
_QUADS = np.frombuffer(_QUADS, "<u8")
_ZEROS = np.frombuffer(bytes(4 - len(_TEXT[i:i + 4].rstrip(b"0")) for i in range(0, 40000, 4)), np.int8)
# uint32 cells: i's four digits, then '%d' % i NUL-padded with 0 as nothing, then with 0 as '0'
_PLAIN = bytearray(_TEXT)
for _at in range(3):  # i < 10**(3 - _at) has no digit _at
    _PLAIN[_at:4 * 10 ** (3 - _at):4] = bytes(10 ** (3 - _at))
_INTS = np.frombuffer(_TEXT + bytes(4) + _PLAIN[4:] + _PLAIN, np.uint32)
# the slot masks at 18 * shown + point: the digit alone, or with '.' after it, or nothing
_MASKS = np.frombuffer(bytes(b for shown in range(18) for point in range(18) for slot in range(17)
                             for b in (0xFF * (slot < shown), 0x2E * (slot == point))), "<u2")
# at 635 * negative + e + 325: the sign and the prefix of -4 <= e < 0 before the
# digits, and the exponent of e < -4 or e >= 17 after them
_AFFIXES = np.frombuffer("".join(
    (sign + (f"0.{'0' * (-1 - e)}" if -4 <= e < 0 else "")).ljust(8, "\0")
    + ("" if -4 <= e < 17 else f"e{e:+03d}").ljust(6, "\0")
    for sign in ("", "-") for e in range(-325, 310)).encode(), np.uint8).reshape(-1, 14)
_NAMES = np.array([list(name.encode().ljust(5, b"\0")) for name in BRANCHES], np.uint8)
_WIDTH = 48  # a float's cell: sign and prefix, 17 digit slots from byte 8, exponent


def floats(x: np.ndarray, cells: np.ndarray) -> None:
    """Fill cells, of shape x.shape + (_WIDTH,), with format(v, '.17g') of each v of x."""
    a = np.abs(x)
    own = np.isfinite(a) & (a > 0.0)
    a[~own] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf power where long double is double
        y = _POW10[309 - e]
        y *= a
        d = np.rint(y)
        r = np.subtract(y, d, out=y).astype(float)
        d = d.astype(np.int64)
    # y is within 2u * y of the exact product: its rounding is sure outside
    # 4u * y of a tie, and e the exponent when 10**16 < d < 10**17 (log10 can be one off)
    own &= (d > 10**16) & (d < 10**17) & (np.abs(r) < 0.5 - 4 * float(np.finfo(y.dtype).epsneg) * d)
    v = np.where(own, d, 10**16)
    del a, y, r, d  # the chunk's working set stays small
    slots = cells[..., 8:42].view("<u2")
    quads, zeros, low = cells[..., 10:42].view("<u8"), 0, True
    for at in range(3, -1, -1):  # the 4-digit groups after the first digit, least significant first
        above = v // 10**4  # no %: numpy's int64 floor division by a scalar is vectorised
        g = v - above * 10**4
        quads[..., at], z = _QUADS.take(g), _ZEROS.take(g)
        zeros, low, v = zeros + low * z, low & (z == 4), above
    slots[..., 0] = 0xFF30 + v
    sig = 17 - zeros  # significant digits, trailing zeros stripped
    fixed = (e >= 0) & (e < 17)  # the digits up to the point are all shown
    point = np.where(fixed, e, 0)  # a point follows this digit unless none is shown after it
    shown = np.maximum(sig, fixed * (e + 1))
    point[(sig - 1 <= point) | (e < 0) & (e >= -4)] = 17
    np.bitwise_and(slots, _MASKS.reshape(-1, 17).take(18 * shown + point, axis=0), out=slots)
    affix = _AFFIXES.take(635 * np.signbit(x) + e + 325, axis=0)
    cells[..., :8] = affix[..., :8]
    cells[..., 42:] = affix[..., 8:]
    back = ~own
    cells[back] = np.frombuffer(b"".join(format(v, ".17g").encode().ljust(_WIDTH, b"\0")
                                         for v in x[back].tolist()), np.uint8).reshape(-1, _WIDTH)


def ints(v: np.ndarray) -> np.ndarray:
    """Cells of '%d' for each v of a non-negative int64 array."""
    count = 1 + (len(str(int(v.max(initial=0)))) - 1) // 4
    cells = np.empty((len(v), count), np.uint32)
    for at in range(count - 1, -1, -1):  # 4-digit groups, least significant first
        above = v // 10**4
        # with nothing above, the group is '%d' of it, and a 0 shows only as the last group
        lead = (above == 0) * (2 * 10**4 if at == count - 1 else 10**4)
        cells[:, at] = _INTS.take(v - above * 10**4 + lead)
        v = above
    return cells.view(np.uint8)


def rows(trace, lo: int, hi: int) -> bytes:
    """Rows lo to hi of a trace's CSV (k,f_z,gamma,branch,evals,grad_norm_D), each
    field's cells and separator filled in place in one uint8 buffer of the rows."""
    n, evals = hi - lo, trace.evals[lo:hi]  # a range
    k, evals = ints(np.arange(lo, hi)), ints(np.arange(evals.start, evals.stop, evals.step))
    grad = trace.grad_norm
    # each field is followed by its separator: k, f_z and gamma as a pair, the name, evals, grad
    widths = (k.shape[1], 2 * _WIDTH + 1, 5, evals.shape[1], 0 if grad is None else _WIDTH)
    ends = np.cumsum(widths) + np.arange(1, 6)
    row = np.empty((n, ends[-1]), np.uint8)
    row[:, ends - 1] = (44, 44, 44, 44, 10)
    row[:, :widths[0]] = k
    pair = row[:, ends[0]:ends[1]].reshape(n, 2, _WIDTH + 1)  # f_z, gamma: each a cell and ','
    pair[:, 0, _WIDTH] = 44
    floats(np.stack((np.asarray(trace.f_z)[lo:hi], np.asarray(trace.gamma)[lo:hi]), axis=1),
           pair[:, :, :_WIDTH])
    row[:, ends[1]:ends[2] - 1] = _NAMES[np.asarray(trace.branch)[lo:hi]]
    row[:, ends[2]:ends[3] - 1] = evals
    if grad is not None:
        floats(np.asarray(grad)[lo:hi], row[:, ends[3]:ends[4] - 1])
    text = row.tobytes()
    del row, pair  # before translate makes its copy
    return text.translate(None, b"\0")
