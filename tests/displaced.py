"""Displaced-mode closed forms for equal surface frequencies.

With omega_g = omega_e = omega the excited surface only shifts the mode,
and displacement operators alone give

    <p|p(t)> = e^{-lam*conj(lam_t)} e^{-i omega t (p + 1/2)} L_p(|lam_t|**2)
    n_g(t)   = p + 4 lam**2 sin(omega t / 2)**2
    G(t)     = e^{-i omega_eg t} e^{-lam*conj(lam_t)} e^{-nbar |lam_t|**2}

with lam = lambda_g, lam_t = lam (1 - e^{i omega t}) and the Bose
occupation nbar = 1/(e^{beta omega} - 1). The package evaluates the
general frequency-change forms at every coupling; the tests use these as
their independent equal-frequency reference. L_p comes from numpy's
Laguerre series, not from the package's recurrences.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import laguerre

__all__ = ["overlap", "phonon_number", "correlation"]


def _require_equal_frequencies(c):
    if not c.equal_frequencies:
        raise ValueError(f"displaced-mode forms need omega_g == omega_e, got {c}")


def _lam_t(c, t):
    return c.lambda_g * (1.0 - np.exp(1j * c.omega_e * np.asarray(t, dtype=float)))


def overlap(p, c, t):
    """Return amplitude <p|p(t)> at a time or an array of times."""
    _require_equal_frequencies(c)
    lam_t = _lam_t(c, t)
    l_p = laguerre.lagval(np.abs(lam_t) ** 2, [0.0] * p + [1.0])
    return (np.exp(-c.lambda_g * np.conj(lam_t))
            * np.exp(-1j * c.omega_e * np.asarray(t, dtype=float) * (p + 0.5)) * l_p)


def phonon_number(p, c, t):
    """Ground-mode occupation of the evolved number state p."""
    _require_equal_frequencies(c)
    s = np.sin(0.5 * c.omega_e * np.asarray(t, dtype=float))
    return p + 4.0 * c.lambda_g**2 * s * s


def correlation(beta, c, t):
    """Thermal dipole correlation at inverse temperature beta (inf for
    T = 0), electronic phase included."""
    _require_equal_frequencies(c)
    x = beta * c.omega_e
    nbar = math.exp(-x) / -math.expm1(-x)  # 0 at T = 0, no overflow when cold
    lam_t = _lam_t(c, t)
    return (np.exp(-1j * c.omega_eg * np.asarray(t, dtype=float))
            * np.exp(-c.lambda_g * np.conj(lam_t)) * np.exp(-nbar * np.abs(lam_t) ** 2))
