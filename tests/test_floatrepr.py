"""float_reprs against float.__repr__, on both sides of the kernel's
threshold."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ordelic import _floatrepr
from ordelic._floatrepr import KERNEL_MIN_VALUES, float_reprs


def _reference(values) -> list[str]:
    return list(map(float.__repr__, np.asarray(values, dtype=np.float64).tolist()))


def _edges() -> np.ndarray:
    """Every power of two and ten with its neighbours, both signs; the first
    subnormals, the largest finite doubles; short decimals, integers around
    2**53, doubles from 2**48 to 2**122 (where Ryu's exactness cases live);
    the layout switches at 1e-4 / 1e-5 and 1e16; zeros, infinities and
    NaN."""
    rng = np.random.default_rng(7)
    two = np.ldexp(1.0, np.arange(-1074, 1024))
    ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    subnormal = np.arange(1, 2049, dtype=np.uint64).view(np.float64)
    values = [two, ten, subnormal, np.finfo(np.float64).max - np.arange(4) * 2.0**970,
              rng.integers(-10**6, 10**6, 20000) / 10.0 ** rng.integers(0, 9, 20000),
              2.0**53 + np.arange(-2000, 2000), np.arange(0, 2000.0),
              np.ldexp(rng.integers(2**52, 2**53, 20000), rng.integers(-4, 70, 20000)),
              [1e-4, 1e-5, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e15, 0.1, 0.5,
               1 / 3, 2 / 3, 0.0, -0.0, np.inf, -np.inf, np.nan]]
    bits = np.concatenate([np.asarray(v, dtype=np.float64) for v in values]).view(np.uint64)
    values = np.concatenate([bits, bits - np.uint64(1), bits + np.uint64(1)]).view(np.float64)
    return np.concatenate([values, -values])


def test_random_bit_patterns():
    """A million random doubles of every exponent, through the kernel."""
    values = np.random.default_rng(2018).integers(0, 2**64, 1 << 20, dtype=np.uint64)
    values = values.view(np.float64)
    assert float_reprs(values) == _reference(values)


def test_edge_values():
    values = _edges()
    assert len(values) >= KERNEL_MIN_VALUES
    assert float_reprs(values) == _reference(values)


@pytest.mark.parametrize("size", [0, 1, KERNEL_MIN_VALUES - 1, KERNEL_MIN_VALUES,
                                  KERNEL_MIN_VALUES + 1, 3 * KERNEL_MIN_VALUES + 5])
def test_sizes_around_the_threshold(size, monkeypatch):
    """Inputs below the threshold take repr; from it on, the kernel in even
    slices of at most SLICE_VALUES.  Both give repr's text."""
    slices = []
    kernel = _floatrepr._reprs
    monkeypatch.setattr(_floatrepr, "_reprs", lambda v: slices.append(len(v)) or kernel(v))
    values = np.random.default_rng(size).standard_normal(size) * 1e3
    assert float_reprs(values) == _reference(values)
    assert sum(slices) == (size if size >= KERNEL_MIN_VALUES else 0)
    assert all(n <= _floatrepr.SLICE_VALUES for n in slices)
    assert max(slices, default=0) - min(slices, default=0) <= 1


def test_any_shape_and_dtype():
    """Values are flattened in C order and converted to float64 first."""
    values = np.linspace(-1, 1, 2 * KERNEL_MIN_VALUES, dtype=np.float32).reshape(2, -1)
    assert float_reprs(values) == _reference(values.astype(np.float64).ravel())
    assert float_reprs(values.T) == _reference(values.T.astype(np.float64).ravel())


def _decimals() -> np.ndarray:
    """m * 10**e for m = 1 and a random m of each length 1..17 (last digit
    nonzero), at every e that keeps it a nonzero finite double, with its
    neighbours one ulp away."""
    rng = np.random.default_rng(17)
    mantissas = [1, int(rng.integers(2, 10))]
    for length in range(2, 18):
        mantissas.append(int(rng.integers(10 ** (length - 2), 10 ** (length - 1))) * 10
                         + int(rng.integers(1, 10)))
    values = np.array([float(f"{m}e{e}") for m in mantissas
                       for e in range(-324 - len(str(m)), 309 - len(str(m)) + 1)])
    bits = values[(values != 0) & np.isfinite(values)].view(np.uint64)
    return np.concatenate([bits, bits - np.uint64(1), bits + np.uint64(1)]).view(np.float64)


def test_every_dropped_digit_count(monkeypatch):
    """The kernel removes every count of digits that Ryu can remove from
    the up to 19 of vp, 0 to 18, and gives repr's text for each."""
    counts = []
    removable = _floatrepr._removable
    monkeypatch.setattr(_floatrepr, "_removable",
                        lambda hi, lo: counts.append(removable(hi, lo)) or counts[-1])
    values = _decimals()
    assert len(values) >= KERNEL_MIN_VALUES
    assert float_reprs(values) == _reference(values)
    assert float_reprs(-values) == _reference(-values)
    assert set(np.concatenate(counts).tolist()) == set(range(19))


def _exact_lower_bounds() -> np.ndarray:
    """The doubles whose lower rounding bound, the midpoint to the double
    below, is c * 10**j for a c below 1000.  A midpoint is an integer only
    from 2**54 on, and its odd part, below 2**54, holds 5**j, so j runs
    over 14..23."""
    found = set()
    for c in range(1, 1000):
        for j in range(14, 24):
            bound = c * 10 ** j
            for x in (math.nextafter(float(bound), 0.0), float(bound),
                      math.nextafter(float(bound), math.inf)):
                if Fraction(x) + Fraction(math.nextafter(x, 0.0)) == 2 * bound:
                    found.add(x)
    return np.array(sorted(found))


def test_exact_lower_bounds():
    """Where the mantissa is even the rounding interval is closed, and the
    exact lower bound vm can be the shortest text: 4.75e+21 is repr's text
    of the double above 4.75e21, which the kernel writes as
    4.750000000000001e+21 unless it takes vm as exact (vm_tz).  The 224
    such doubles, and their 223 odd neighbours, repeated past
    KERNEL_MIN_VALUES, both signs."""
    values = _exact_lower_bounds()
    even = (values.view(np.uint64) & np.uint64(1)) == 0
    assert len(values) == 447 and np.count_nonzero(even) == 224
    assert np.array_equal(_floatrepr._bounds(values.view(np.uint64))[4], even)
    assert repr(4.75e21) == "4.75e+21" and 4.75e21 in values.tolist()
    values = np.tile(values, -(-KERNEL_MIN_VALUES // len(values)))
    assert float_reprs(values) == _reference(values)
    assert float_reprs(-values) == _reference(-values)
