"""The tests' truncated Taylor arithmetic against exact rational
coefficients."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import powerseries

coeff = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)
series = st.lists(coeff, min_size=1, max_size=10).map(np.array)


def test_exponential_of_x_is_inverse_factorials():
    a = np.zeros(12, dtype=complex)
    a[1] = 1.0
    g = powerseries.exponential(a)
    for k in range(12):
        assert g[k] == pytest.approx(1.0 / math.factorial(k), rel=1e-13)


def test_inverse_sqrt_of_one_minus_x_is_central_binomials():
    a = np.zeros(14, dtype=complex)
    a[0], a[1] = 1.0, -1.0
    g = powerseries.power(a, -0.5)
    for k in range(14):
        exact = Fraction(math.comb(2 * k, k), 4**k)
        assert g[k] == pytest.approx(float(exact), rel=1e-13)


def test_square_of_inverse_sqrt_recovers_geometric_series():
    a = np.zeros(10, dtype=complex)
    a[0], a[1] = 1.0, -1.0
    g = powerseries.power(a, -0.5)
    # g**2 = 1/(1 - x) = sum_k x**k, and multiplying that by (1 - x)
    # telescopes to the unit series
    square = powerseries.multiply(g, g)
    assert np.allclose(square, np.ones(10), atol=1e-12)
    unit = powerseries.multiply(square, a)
    assert np.allclose(unit, np.eye(10)[0], atol=1e-12)


@given(a=series, b=series)
def test_exponential_is_multiplicative(a, b):
    n = min(a.size, b.size)
    a, b = a[:n].copy(), b[:n].copy()
    a[0] = b[0] = 0.0
    lhs = powerseries.exponential(a + b)
    rhs = powerseries.multiply(powerseries.exponential(a), powerseries.exponential(b))
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(a=series)
def test_integer_power_matches_repeated_product(a):
    a = a.copy()
    a[0] = 1.0 + a[0] / 2.0  # keep the constant term away from zero
    assert np.allclose(powerseries.power(a, 2), powerseries.multiply(a, a), atol=1e-9)


def test_multiply_truncates_to_first_argument():
    out = powerseries.multiply(np.array([1.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    assert out.shape == (2,)
    assert out.tolist() == [1.0, 2.0]


def test_domain_errors():
    with pytest.raises(ValueError, match="constant term"):
        powerseries.exponential(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="constant term"):
        powerseries.power(np.array([0.0, 1.0]), 0.5)
    with pytest.raises(ValueError, match="1-D"):
        powerseries.multiply(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="non-empty"):
        powerseries.exponential(np.array([]))
