"""The trace CSV renderer: its bytes are those of '%d' and format(x, '.17g')."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from threepoint import render


def _blob(cells: np.ndarray) -> bytes:
    """The cells one to a line, their NULs dropped, as the writer drops them."""
    lines = np.concatenate([cells, np.full((len(cells), 1), 10, np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0")


def _edges() -> np.ndarray:
    info = np.finfo(float)
    points = [0.0, 5e-324, info.smallest_normal, info.max, 0.5, 1.0, 3.0, 2.0**53, 1e15 + 0.5,
              2.0**-25,  # 2.98023223876953125e-08: its 17-digit rounding is an exact tie
              1e16 - 2.0, 1e16 + 2.0, 1e17 - 16.0, 1e17 + 16.0, 123456789012345680.0]
    points += [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    points = np.array(points)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        points = np.concatenate([points, np.nextafter(points, np.inf),
                                 np.nextafter(points, -np.inf)])
    # integers and short dyadics: 17 digits that end in zeros
    points = np.concatenate([points, np.arange(-2000.0, 2000.0), np.arange(1, 4096) / 1024.0])
    points = points[np.isfinite(points)]
    return np.concatenate([points, -points])


def test_floats_are_format_17g_bytes():
    # whole blobs, compared once: random bit patterns cover every exponent
    bits = np.random.default_rng(20190531).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], _edges(), [np.inf, -np.inf, np.nan]])
    expected = "".join(format(v, ".17g") + "\n" for v in values.tolist()).encode()
    cells = np.empty((len(values), render._WIDTH), np.uint8)
    render.floats(values, cells)
    assert _blob(cells) == expected


def test_ints_are_percent_d_bytes():
    values = np.concatenate([np.arange(0, 20001), 10 ** np.arange(19) - 1, 10 ** np.arange(19),
                             [2**62, 2**63 - 1]])
    assert _blob(render.ints(values)) == "".join("%d\n" % v for v in values.tolist()).encode()


def test_powers_of_ten_are_correctly_rounded():
    # the error bound rests on each 10**k being the long double nearest it
    table = render._POW10
    for k, power in zip(range(-293, 342), table):
        if not np.isfinite(power):  # past the largest double, where long double is double
            continue
        exact = Fraction(10) ** k
        up, down = np.nextafter(power, table.dtype.type(np.inf)), np.nextafter(power, 0)
        error = abs(Fraction(*power.as_integer_ratio()) - exact)
        assert error <= abs(Fraction(*up.as_integer_ratio()) - exact)
        assert error <= abs(Fraction(*down.as_integer_ratio()) - exact)
