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

The displaced vacuum has the Poisson coefficients of
:func:`vacuum_expansion_linear`, and :func:`polaron_state_check` measures
the displaced-mode identity behind them in a truncated basis.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import laguerre

from indiboson.oracle import TruncatedBasis, destroy

__all__ = ["overlap", "phonon_number", "correlation", "vacuum_expansion_linear",
           "polaron_state_check"]


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


def vacuum_expansion_linear(lam: float, p_max: int) -> np.ndarray:
    """Ground-basis number-state coefficients of the displaced vacuum.

    Coefficient p is exp(-lam**2/2) * lam**p / sqrt(p!); the squared
    coefficients form the Poisson distribution with mean lam**2.
    """
    out = np.empty(p_max + 1)
    amp = math.exp(-0.5 * lam * lam)
    out[0] = amp
    for p in range(1, p_max + 1):
        amp *= lam / math.sqrt(p)
        out[p] = amp
    return out


def polaron_state_check(lam: float, p_max: int, dim: int) -> float:
    """Largest residual of the displaced-mode identity over the levels
    p = 0..p_max in a truncated basis.

    Applying the displacement exp(lam*(b^dag - b)) to ground number state
    p must equal building the p-th excited number state from the displaced
    vacuum with the shifted creation operator (b^dag - lam)/sqrt(p!).
    Each residual is the 2-norm of the difference; truncation noise only.
    """
    if dim < p_max + 2:
        raise ValueError(f"dim must exceed p + 1, got dim={dim}, p={p_max}")
    b = destroy(TruncatedBasis(dim))
    # exp(lam*(b^dag - b)) = exp(-i*g) for the Hermitian generator
    # g = i*lam*(b^dag - b), exponentiated once through its eigenbasis
    energies, modes = np.linalg.eigh(1j * lam * (b.T - b))
    phases = np.exp(-1j * energies)
    shifted_create = b.T - lam * np.eye(dim)
    vec, residuals = vacuum_expansion_linear(lam, dim - 1), []
    for p in range(p_max + 1):
        displaced = modes @ (phases * modes[p].conj())
        residuals.append(np.linalg.norm(displaced - vec / math.sqrt(math.factorial(p))))
        vec = shifted_create @ vec
    return float(np.max(residuals))  # a NaN residual stays NaN
