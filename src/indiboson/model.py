"""Parameters and derived couplings for a two-level emitter whose single
vibrational mode changes both equilibrium position and frequency between
the electronic surfaces.

Units: hbar = 1 and unit mass, so frequencies carry energy units and the
mode displacements are the dimensionless lambda_g = shift_l*sqrt(omega_g/2)
and lambda_e = shift_l*sqrt(omega_e/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GAMMA_LINEAR_THRESHOLD",
    "ModelParams",
    "Couplings",
    "ThermalParams",
    "TimeCoeffs",
    "derive_couplings",
    "time_coeffs",
]

# Below this |gamma_minus| the surfaces are treated as sharing one frequency:
# the excited-mode occupation and energy are conserved and defined, and
# validate adds its two equal-frequency rows. Every other closed form is
# the general one, which contains the equal-frequency limit.
GAMMA_LINEAR_THRESHOLD = 1e-9


def _checked_finite(name: str, value) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Bare model parameters.

    Attributes
    ----------
    epsilon_g, epsilon_e : float
        Electronic energies of the two levels.
    omega_g, omega_e : float
        Mode frequencies on the ground and excited surfaces, both > 0.
    shift_l : float
        Displacement of the excited-surface minimum along the mode
        coordinate (may be negative or zero).
    """

    epsilon_g: float
    epsilon_e: float
    omega_g: float
    omega_e: float
    shift_l: float

    def __post_init__(self):
        for name in ("epsilon_g", "epsilon_e", "omega_g", "omega_e", "shift_l"):
            object.__setattr__(self, name, _checked_finite(name, getattr(self, name)))
        for name in ("omega_g", "omega_e"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    @classmethod
    def from_lambda_g(cls, epsilon_g, epsilon_e, omega_g, omega_e, lambda_g):
        """Construct from the dimensionless ground-mode displacement
        instead of the raw coordinate shift."""
        omega_g = _checked_finite("omega_g", omega_g)
        if omega_g <= 0.0:
            raise ValueError(f"omega_g must be > 0, got {omega_g}")
        lambda_g = _checked_finite("lambda_g", lambda_g)
        shift_l = lambda_g * math.sqrt(2.0 / omega_g)
        return cls(epsilon_g, epsilon_e, omega_g, omega_e, shift_l)


@dataclass(frozen=True)
class Couplings:
    """Constants derived from :class:`ModelParams`.

    gamma_plus and gamma_minus mix the annihilation operators of the two
    surface modes (gamma_plus**2 - gamma_minus**2 = 1); lambda1 and lambda2
    are the linear and quadratic coordinate couplings of the excited-surface
    Hamiltonian written in the ground-mode basis, and epsilon_e_prime is the
    excited electronic energy including the lambda_e**2 reorganization term.
    """

    omega_g: float
    omega_e: float
    epsilon_g: float
    epsilon_e: float
    gamma_plus: float
    gamma_minus: float
    lambda_g: float
    lambda_e: float
    lambda1: float
    lambda2: float
    omega_eg: float
    epsilon_e_prime: float

    @property
    def huang_rhys(self) -> float:
        return self.lambda_g**2

    @property
    def equal_frequencies(self) -> bool:
        return abs(self.gamma_minus) < GAMMA_LINEAR_THRESHOLD


def derive_couplings(params: ModelParams) -> Couplings:
    """Derive all coupling constants from the bare parameters; raises
    ValueError when extreme (finite) parameters overflow one of them."""
    try:
        ratio = math.sqrt(params.omega_e / params.omega_g)
        gamma_plus = 0.5 * (ratio + 1.0 / ratio)
        gamma_minus = 0.5 * (ratio - 1.0 / ratio)
        lambda_g = params.shift_l * math.sqrt(params.omega_g / 2.0)
        lambda_e = params.shift_l * math.sqrt(params.omega_e / 2.0)
        lambda1 = lambda_e * ratio
        lambda2 = (params.omega_g**2 - params.omega_e**2) / (4.0 * params.omega_e * params.omega_g)
        epsilon_e_prime = params.epsilon_e + params.omega_e * lambda_e**2
    except ArithmeticError:  # a float ** overflows, or a product underflows to 0
        raise ValueError(f"derived couplings leave the float range for {params}") from None
    c = Couplings(
        omega_g=params.omega_g,
        omega_e=params.omega_e,
        epsilon_g=params.epsilon_g,
        epsilon_e=params.epsilon_e,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        lambda_g=lambda_g,
        lambda_e=lambda_e,
        lambda1=lambda1,
        lambda2=lambda2,
        omega_eg=params.epsilon_e - params.epsilon_g,
        epsilon_e_prime=epsilon_e_prime,
    )
    for name, value in vars(c).items():
        if not math.isfinite(value):
            raise ValueError(f"derived coupling {name} = {value!r} is not finite for {params}")
    return c


@dataclass(frozen=True)
class ThermalParams:
    """Inverse temperature; ``math.inf`` selects zero temperature."""

    beta: float

    def __post_init__(self):
        beta = self.beta
        try:
            beta = float(beta)
        except (TypeError, ValueError):
            raise ValueError(f"beta must be a number, got {beta!r}") from None
        if math.isnan(beta) or beta <= 0.0:
            raise ValueError(f"beta must be > 0 (inf allowed), got {beta!r}")
        object.__setattr__(self, "beta", beta)

    @property
    def is_zero_temperature(self) -> bool:
        return math.isinf(self.beta)

    def boltzmann(self, omega: float) -> float:
        """exp(-beta*omega); exactly 0.0 at zero temperature."""
        if omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {omega}")
        return math.exp(-self.beta * omega)


@dataclass(frozen=True)
class TimeCoeffs:
    """Time-dependent coefficients of the evolved mode operator.

    ``d_tilde_prime``/``q_tilde_prime``/``lam_tilde_prime`` describe the
    Heisenberg-evolved ground-mode annihilation operator as
    d'*b + q'*b^dag + lam'; the unprimed tilde variants carry an extra
    e^{-i omega_e t} phase and are what the overlap closed forms consume.
    |d'|**2 - |q'|**2 = 1 at all times. For an array of times every field
    is an array of the same shape.
    """

    d_tilde_prime: complex | np.ndarray
    q_tilde_prime: complex | np.ndarray
    lam_tilde_prime: complex | np.ndarray
    d_tilde: complex | np.ndarray
    q_tilde: complex | np.ndarray
    lam_tilde: complex | np.ndarray


def time_coeffs(c: Couplings, t) -> TimeCoeffs:
    """Evaluate the evolved-operator coefficients at a time or an ndarray of
    times.

    Written in terms of (1 - e^{i n theta}) so every coefficient lands on
    its t = 0 value exactly in floating point; relies on the identities
    gamma_plus**2 - gamma_minus**2 = 1 and
    lambda_e*(gamma_plus - gamma_minus) = lambda_g, which hold to all
    orders algebraically but not termwise in floats.
    """
    e1 = np.exp(1j * (c.omega_e * t))
    one_m_e1 = 1.0 - e1
    one_m_e2 = 1.0 - e1 * e1
    d_prime = 1.0 + c.gamma_minus**2 * one_m_e2
    q_prime = c.gamma_plus * c.gamma_minus * one_m_e2
    lam_prime = c.lambda_e * c.gamma_minus * one_m_e2 + c.lambda_g * one_m_e1
    phase = np.exp(-1j * c.omega_e * t)
    return TimeCoeffs(
        d_tilde_prime=d_prime,
        q_tilde_prime=q_prime,
        lam_tilde_prime=lam_prime,
        d_tilde=phase * d_prime,
        q_tilde=phase * q_prime,
        lam_tilde=phase * lam_prime,
    )
