"""Generating function of the scaled return amplitudes.

K(x) = sum_p x**p T_p with T_p = <p|p(t)> e^{i omega_e t/2} / d**p and
d = time_coeffs(c, t).d_tilde. Closed form, with simple poles at
x = 1 -+ q:

    K(x) = T0 * ((1 - x/(1+q))*(1 - x/(1-q)))**-1/2
              * exp(-x*lam**2/(d*(x-1+q)*(1-q)))

where T0 = K(0) is the vacuum return amplitude without its zero-point
phase. The package uses K only inside the thermal correlation; the tests
use this standalone form as their K(x) reference, built from the public
time coefficients alone.
"""

from __future__ import annotations

import numpy as np

from indiboson.model import time_coeffs

__all__ = ["generating_function"]


def generating_function(x, c, t):
    """K(x) at time t, elementwise over broadcastable x and t; a principal
    square root of the pole product, which stays off its cut inside the
    convergence disk |x| < |1 -+ q|."""
    tc = time_coeffs(c, t)
    d, q, lam = tc.d_tilde, tc.q_tilde, tc.lam_tilde
    z = np.exp(-1j * c.omega_e * np.asarray(t))
    vacuum = (1.0 + c.gamma_minus**2 * (1.0 - z * z)) ** -0.5 * np.exp(
        -c.lambda_g * c.lambda_e * (1.0 - z) / (c.gamma_plus - c.gamma_minus * z)
    )
    poles = (1.0 - x / (1.0 + q)) * (1.0 - x / (1.0 - q))
    return vacuum * poles**-0.5 * np.exp(-x * lam * lam / (d * (x - 1.0 + q) * (1.0 - q)))
