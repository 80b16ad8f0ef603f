"""Orthogonal-polynomial sequences via upward recurrences.

Each function returns the whole sequence up to the requested order as a
numpy array of shape ``(order + 1,) + np.shape(x)``, so ``seq[p]`` is the
order-p polynomial at every argument; it is real for real arguments and
complex for complex ones. The three-term recurrences are numerically
benign here because the closed forms only ever combine neighbouring orders
of comparable magnitude. Where they are not, a value overflows to inf or
NaN without a floating-point warning, and the caller's magnitude check
refuses it. The values at x = 0 have a product form, which
``laguerre_half_at_zero`` evaluates without a recurrence.
"""

from __future__ import annotations

import numpy as np

__all__ = ["laguerre_half_seq", "laguerre_half_at_zero"]  # laguerre_seq: perfbench and tests only


def _empty_seq(order: int, x):
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return np.empty((order + 1,) + np.shape(x), dtype=np.result_type(x, 1.0))


def laguerre_seq(order: int, x):
    """Laguerre polynomials L_0(x) .. L_order(x)."""
    out = _empty_seq(order, x)
    out[0] = 1.0
    if order >= 1:
        out[1] = 1.0 - x
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(2, order + 1):
            out[p] = ((2.0 * p - 1.0 - x) * out[p - 1] - (p - 1.0) * out[p - 2]) / p
    return out


def laguerre_half_seq(order: int, x):
    """Generalized Laguerre polynomials of order -1/2,
    L^{(-1/2)}_0(x) .. L^{(-1/2)}_order(x)."""
    out = _empty_seq(order, x)
    out[0] = 1.0
    if order >= 1:
        out[1] = 0.5 - x
        # read from out, the two previous orders keep a Python scalar x
        # in numpy's scalar arithmetic, as out's own elements would
        prev, cur = out[0], out[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(2, order + 1):
            prev, cur = cur, ((2.0 * p - 1.5 - x) * cur - (p - 1.5) * prev) / p
            out[p] = cur
    return out


def laguerre_half_at_zero(order: int) -> np.ndarray:
    """L^{(-1/2)}_0(0) .. L^{(-1/2)}_order(0) = C(2k, k)/4**k, as the running
    product prod_{j<=k} (j - 1/2)/j."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    j = np.arange(1.0, order + 1)
    out = np.ones(order + 1)
    out[1:] = (j - 0.5) / j
    return out.cumprod()
