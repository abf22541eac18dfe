"""The vectorised `%.15g` formatter against Python's own, byte for byte."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlog.tsv import G15_WIDTH, g15


def formatted(values):
    x = np.array(values, dtype=np.float64)
    out = np.zeros(x.shape + (G15_WIDTH // 8,), np.uint64)
    g15(x, out)
    return [field[field != 0].tobytes() for field in out.view(np.uint8).reshape(len(x), G15_WIDTH)]


def expected(values):
    return [b"%.15g" % v for v in values]


EDGES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-4, 1e-5, 1e15, 1e16, 99999999999999.95, 999999999999999.5,
    1234567890123455.0,  # an exact tie at the 15th digit
    0.3, 2.5, math.inf, -math.inf, math.nan,
]
EDGES += [s * x for k in range(-45, 46) for x in (10.0**k,) for s in (1, -1)]
EDGES += [math.nextafter(10.0**k, d) for k in range(-45, 46) for d in (0.0, math.inf)]
EDGES += [math.nextafter(t, d) for t in (1e-4, 1e-5, 1e15, 1e16) for d in (0.0, math.inf)]
# just below a power of ten, where log10 rounds up to it
EDGES += [(10**15 - k) * 10.0**s for k in (1, 2, 3, 5, 30) for s in (-20, -1, 0, 1, 20)]


def test_edge_values():
    assert formatted(EDGES) == expected(EDGES)


@settings(max_examples=2000)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_double(value):
    assert formatted([value, -value]) == expected([value, -value])


@settings(max_examples=300)
@given(st.lists(st.integers(-(10**16), 10**16), min_size=1, max_size=16), st.integers(-30, 30))
def test_short_decimals(digits, scale):
    # values with few significant digits: trailing zeros, exact integers,
    # and decimals whose 16th digit decides a near-tie
    values = [d * 10.0**scale for d in digits]
    assert formatted(values) == expected(values)


def test_two_dimensional_input():
    # the table formats its (rows, 2) real and imaginary parts in one call
    x = np.array([[1.5, -2e-7], [0.0, 123456789012.5]])
    out = np.zeros(x.shape + (G15_WIDTH // 8,), np.uint64)
    g15(x, out)
    flat = np.zeros((x.size, G15_WIDTH // 8), np.uint64)
    g15(x.ravel(), flat)
    assert (out.reshape(flat.shape) == flat).all()
    assert formatted(x.ravel()) == expected(x.ravel().tolist())
