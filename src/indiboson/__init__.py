"""Exact vibronic dynamics for a two-level emitter coupled to one
harmonic mode whose frequency and equilibrium position both depend on the
electronic state.

Closed forms live in :mod:`indiboson.analytic`, parameter handling in
:mod:`indiboson.model`, and an independent truncated-basis reference in
:mod:`indiboson.oracle`.
"""

__version__ = "0.1.0"

from .analytic import (
    correlation,
    excited_mean_energy,
    excited_phonon_number,
    overlap,
    phonon_number,
    spectrum_finite_T,
    spectrum_zero_T,
    thermal_lines,
    vacuum_ground_phonon_number,
    windowed_spectrum,
)
from .errors import (
    ConfigError,
    LineListError,
    OracleError,
    PoleError,
    TruncationError,
)
from .model import (
    Couplings,
    ModelParams,
    ThermalParams,
    TimeCoeffs,
    derive_couplings,
    time_coeffs,
)

__all__ = [
    "__version__",
    "Couplings",
    "ModelParams",
    "ThermalParams",
    "TimeCoeffs",
    "ConfigError",
    "LineListError",
    "OracleError",
    "PoleError",
    "TruncationError",
    "correlation",
    "derive_couplings",
    "excited_mean_energy",
    "excited_phonon_number",
    "overlap",
    "phonon_number",
    "spectrum_finite_T",
    "spectrum_zero_T",
    "thermal_lines",
    "time_coeffs",
    "vacuum_ground_phonon_number",
    "windowed_spectrum",
]
