"""Dense truncated Taylor series over complex coefficients.

A series is a plain 1-D numpy array ``a`` with ``a[k]`` the coefficient
of x**k. Operations truncate to the length of their first argument, so a
fixed working order propagates through a computation unchanged.

The tests use this as an independent reference: line weights and return
amplitudes extracted as Taylor coefficients of a generating function,
without the closed forms of the package.
"""

from __future__ import annotations

import numpy as np

__all__ = ["multiply", "exponential", "power"]


def _as_series(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("series must be a non-empty 1-D coefficient array")
    return a


def multiply(a, b) -> np.ndarray:
    """Cauchy product truncated to len(a) coefficients."""
    a = _as_series(a)
    b = _as_series(b)
    return np.convolve(a, b)[: a.size]


def exponential(a) -> np.ndarray:
    """exp of a series with vanishing constant term.

    Uses the recurrence n*g_n = sum_k k*a_k*g_{n-k} obtained from
    g' = a'*g, which avoids any factorial bookkeeping.
    """
    a = _as_series(a)
    if a[0] != 0:
        raise ValueError("exponential requires a vanishing constant term")
    g = np.zeros_like(a)
    g[0] = 1.0
    ka = np.arange(a.size) * a
    for n in range(1, a.size):
        g[n] = (ka[1 : n + 1] @ g[n - 1 :: -1]) / n
    return g


def power(a, alpha) -> np.ndarray:
    """Principal branch of a**alpha for a series with a[0] != 0.

    Recurrence from a*g' = alpha*a'*g:
    n*a_0*g_n = sum_k ((alpha+1)*k - n)*a_k*g_{n-k}.
    """
    a = _as_series(a)
    if a[0] == 0:
        raise ValueError("power requires a nonzero constant term")
    g = np.zeros_like(a)
    g[0] = a[0] ** complex(alpha)
    for n in range(1, a.size):
        k = np.arange(1, n + 1)
        coef = (complex(alpha) + 1.0) * k - n
        g[n] = (coef * a[1 : n + 1]) @ g[n - 1 :: -1] / (n * a[0])
    return g
