"""Polynomial recurrences against exact rational series.

The references below evaluate the defining series in Fraction arithmetic
(complex arguments as exact (re, im) pairs), so a recurrence bug shows up
as a rational mismatch instead of a tolerance judgement call.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from indiboson.specfun import laguerre_half_at_zero, laguerre_half_seq, laguerre_seq

# ---------------------------------------------------------------------------
# exact references: complex numbers as Fraction pairs


def c_num(re, im=0):
    return (Fraction(re), Fraction(im))


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_scale(s, a):
    return (s * a[0], s * a[1])


def c_float(a):
    return complex(float(a[0]), float(a[1]))


def c_powers(a, n):
    out = [c_num(1)]
    for _ in range(n):
        out.append(c_mul(out[-1], a))
    return out


def laguerre_exact(p, x):
    """L_p(x) = sum_k (-1)**k C(p, k) x**k / k!"""
    xk = c_powers(x, p)
    acc = c_num(0)
    for k in range(p + 1):
        coef = Fraction((-1) ** k * math.comb(p, k), math.factorial(k))
        acc = c_add(acc, c_scale(coef, xk[k]))
    return acc


def laguerre_half_exact(p, x):
    """L_p^(-1/2)(x) = sum_k (-1)**k/k! * C(p - 1/2, p - k) x**k with
    C(p - 1/2, p - k) = prod_{j=k+1..p} (2j - 1)/2 / (p - k)!"""
    xk = c_powers(x, p)
    acc = c_num(0)
    for k in range(p + 1):
        binom = Fraction(1)
        for j in range(k + 1, p + 1):
            binom *= Fraction(2 * j - 1, 2)
        binom /= math.factorial(p - k)
        coef = Fraction((-1) ** k, math.factorial(k)) * binom
        acc = c_add(acc, c_scale(coef, xk[k]))
    return acc


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=16
)


# ---------------------------------------------------------------------------
# sanity of the references themselves


def test_reference_spot_values():
    assert laguerre_exact(2, c_num(1)) == c_num(Fraction(-1, 2))
    # zero-argument half-order values are the normalized central binomials
    zeros = [laguerre_half_exact(p, c_num(0))[0] for p in range(5)]
    assert zeros == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(3, 8),
        Fraction(5, 16),
        Fraction(35, 128),
    ]


@given(p=st.integers(0, 12), x=small_fractions)
def test_half_order_convolution_is_plain_laguerre(p, x):
    # product of two (1-u)^{-1/2}-type generating functions is the plain
    # Laguerre one, so the convolution identity holds exactly
    acc = c_num(0)
    for k in range(p + 1):
        acc = c_add(
            acc,
            c_mul(laguerre_half_exact(p - k, c_num(0)), laguerre_half_exact(k, (x, Fraction(0)))),
        )
    assert acc == laguerre_exact(p, (x, Fraction(0)))


# ---------------------------------------------------------------------------
# recurrences vs the exact series


@given(order=st.integers(0, 20), x=small_fractions)
def test_laguerre_matches_series(order, x):
    seq = laguerre_seq(order, float(x))
    for p in (0, order // 2, order):
        exact = c_float(laguerre_exact(p, c_num(x)))
        assert seq[p] == pytest.approx(exact.real, rel=1e-12, abs=1e-12)


@given(order=st.integers(0, 20), re=small_fractions, im=small_fractions)
def test_laguerre_half_matches_series_complex(order, re, im):
    x = complex(float(re), float(im))
    seq = laguerre_half_seq(order, x)
    for p in (0, order // 2, order):
        exact = c_float(laguerre_half_exact(p, c_num(re, im)))
        assert seq[p] == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_recurrences_hold_at_full_order_and_range():
    # orders to 30 and |argument| up to ~10, the regime the overlap series
    # actually exercises; scale-relative 1e-10 per the numerical contract
    rng = np.random.default_rng(11)
    for _ in range(12):
        order = int(rng.integers(20, 31))
        re = Fraction(int(rng.integers(-112, 113)), 16)
        im = Fraction(int(rng.integers(-112, 113)), 16)
        x = complex(float(re), float(im))
        sequences = (
            (laguerre_seq(order, x), laguerre_exact),
            (laguerre_half_seq(order, x), laguerre_half_exact),
        )
        for p in (order // 2, order):
            for seq, exact_fn in sequences:
                exact = c_float(exact_fn(p, (re, im)))
                scale = max(1.0, abs(exact))
                assert abs(seq[p] - exact) <= 1e-10 * scale


def test_addition_identity_at_float_scale():
    # the half-order convolution must still collapse to the plain Laguerre
    # value in floating point for every order the overlap sum may request
    rng = np.random.default_rng(23)
    zero_vals = laguerre_half_seq(30, 0.0)
    bound = 10.0 / math.sqrt(2.0)
    for _ in range(50):
        p = int(rng.integers(0, 31))
        x = complex(*rng.uniform(-bound, bound, size=2))
        half = laguerre_half_seq(p, x)
        acc = complex(np.dot(zero_vals[: p + 1][::-1], half))
        want = complex(laguerre_seq(p, x)[p])
        scale = max(1.0, abs(want), float(np.max(np.abs(half))))
        assert abs(acc - want) <= 1e-9 * scale


def test_sequences_are_full_and_typed():
    assert laguerre_seq(0, 0.3).shape == (1,)
    assert laguerre_seq(5, 0.3).dtype == np.float64
    assert laguerre_half_seq(5, 0.3 + 0.1j).dtype == np.complex128


def test_sequences_accept_array_arguments():
    # shape (order + 1,) + x.shape, each slice the scalar sequence up to
    # roundoff (array complex arithmetic may round differently)
    xs = np.array([[0.3, -1.2], [2.5, 0.0]])
    for fn, arg in ((laguerre_seq, xs), (laguerre_half_seq, xs + 0.7j)):
        seq = fn(7, arg)
        assert seq.shape == (8, 2, 2)
        for idx in np.ndindex(arg.shape):
            assert seq[(slice(None),) + idx] == pytest.approx(fn(7, arg[idx]), rel=1e-14)


def _laguerre_half_indexed(order, x):
    """The half-order recurrence with both previous orders read back out of
    the output array; laguerre_half_seq must match it bit for bit."""
    out = np.empty((order + 1,) + np.shape(x), dtype=np.result_type(x, 1.0))
    out[0] = 1.0
    if order >= 1:
        out[1] = 0.5 - x
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(2, order + 1):
            out[p] = ((2.0 * p - 1.5 - x) * out[p - 1] - (p - 1.5) * out[p - 2]) / p
    return out


def test_half_order_recurrence_equals_the_indexed_recurrence_bitwise():
    rng = np.random.default_rng(2)
    specials = [-0.0, complex(0.0, -0.0), math.inf, complex(math.inf, 1.0), math.nan, 1e200,
                np.array([math.inf, math.nan, -0.0])]
    draws = []
    for i in range(600):
        re, im = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0)
        draws.append([re, complex(re, im), np.float64(re), np.complex128(complex(re, im)),
                      rng.normal(size=3) * re, (rng.normal(size=(2, 2)) + 1j) * im][i % 6])
    for x in specials + draws:
        for order in (0, 1, 2, int(rng.integers(3, 80))):
            want = _laguerre_half_indexed(order, x)
            got = laguerre_half_seq(order, x)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (order, x)


def test_half_order_values_at_zero_are_central_binomials():
    # L^{(-1/2)}_k(0) = C(2k, k)/4**k exactly. The running product rounds
    # twice per order; 10 eps bounds k <= 200 (the largest error, 5 eps,
    # is at k = 200), where the three-term recurrence is 1e-13 off.
    vals = laguerre_half_at_zero(200)
    assert vals.shape == (201,) and vals.dtype == np.float64
    for k, v in enumerate(vals):
        exact = Fraction(math.comb(2 * k, k), 4**k)
        assert abs(Fraction(float(v)) / exact - 1) <= 10 * np.finfo(float).eps, k
    assert laguerre_half_at_zero(0).tolist() == [1.0]


def test_half_order_values_at_zero_are_a_fresh_array_per_call():
    first = laguerre_half_at_zero(6)
    assert first.flags.writeable and first.flags.owndata
    first[:] = -1.0
    second = laguerre_half_at_zero(6)
    assert not np.shares_memory(first, second) and second[0] == 1.0


def test_negative_order_rejected():
    with pytest.raises(ValueError, match="order"):
        laguerre_seq(-1, 0.0)
    with pytest.raises(ValueError, match="order"):
        laguerre_half_seq(-2, 0.0)
    with pytest.raises(ValueError, match="order"):
        laguerre_half_at_zero(-1)
