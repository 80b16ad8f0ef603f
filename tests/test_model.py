"""Parameter validation and derived-coupling identities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from indiboson.model import (
    Couplings,
    ModelParams,
    ThermalParams,
    derive_couplings,
    time_coeffs,
)

# supported frequency range; identities carry a few-ulp-of-gamma**2 floor
# at the extreme 1e4 ratio corner
freqs = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False)
# ratios <= 16, where the canonical commutator check is clean at 1e-12
freqs_moderate = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
shifts = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def make(omega_g=1.0, omega_e=1.0, lam=0.0, eps_g=0.0, eps_e=0.0):
    return derive_couplings(
        ModelParams.from_lambda_g(eps_g, eps_e, omega_g, omega_e, lam)
    )


# ---------------------------------------------------------------------------
# constructor validation


def test_parameter_errors_name_the_field():
    with pytest.raises(ValueError, match="omega_g"):
        ModelParams(0.0, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="omega_e"):
        ModelParams(0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="shift_l"):
        ModelParams(0.0, 0.0, 1.0, 1.0, math.nan)
    with pytest.raises(ValueError, match="epsilon_e"):
        ModelParams(0.0, "not a number", 1.0, 1.0, 0.0)


def test_lambda_constructor_roundtrips():
    c = make(omega_g=0.37, omega_e=1.9, lam=1.25)
    assert c.lambda_g == pytest.approx(1.25, rel=1e-15)


def test_thermal_validation():
    with pytest.raises(ValueError, match="beta"):
        ThermalParams(0.0)
    with pytest.raises(ValueError, match="beta"):
        ThermalParams(-2.0)
    with pytest.raises(ValueError, match="beta"):
        ThermalParams(math.nan)
    assert ThermalParams(math.inf).is_zero_temperature
    assert not ThermalParams(1.0).is_zero_temperature


def test_thermal_limits():
    cold = ThermalParams(math.inf)
    assert cold.boltzmann(1.0) == 0.0
    th = ThermalParams(1.0)
    assert th.boltzmann(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert ThermalParams(1000.0).boltzmann(1.0) == 0.0
    with pytest.raises(ValueError, match="omega"):
        th.boltzmann(0.0)
    with pytest.raises(ValueError, match="omega"):
        th.boltzmann(-1.0)


# ---------------------------------------------------------------------------
# derived couplings


@given(omega_g=freqs, omega_e=freqs, lam=shifts)
def test_mixing_identity_and_shift_relation(omega_g, omega_e, lam):
    c = make(omega_g=omega_g, omega_e=omega_e, lam=lam)
    # 2e-12 = four ulps of gamma_plus**2 at the worst-ratio corner; bulk
    # random sampling is pinned to 1e-12 by the acceptance gate
    assert c.gamma_plus**2 - c.gamma_minus**2 == pytest.approx(1.0, abs=2e-12)
    # the two surface displacements come from one coordinate shift
    assert c.lambda_e * (c.gamma_plus - c.gamma_minus) == pytest.approx(
        c.lambda_g, rel=1e-12, abs=1e-12
    )
    assert c.gamma_plus >= 1.0 - 1e-15


def test_frozen_coupling_values():
    c = make(omega_g=1.0, omega_e=2.0, lam=1.0)
    assert c.gamma_plus == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)
    assert c.gamma_minus == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)
    assert c.lambda2 == pytest.approx(-0.375, rel=1e-15)
    assert c.lambda_e == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert c.lambda1 == pytest.approx(2.0, rel=1e-15)
    assert c.epsilon_e_prime == pytest.approx(4.0, rel=1e-15)
    assert c.huang_rhys == pytest.approx(1.0, rel=1e-15)


def test_equal_frequency_dispatch_flag():
    assert make(omega_e=1.0).equal_frequencies
    assert not make(omega_e=2.0).equal_frequencies
    assert make(omega_e=1.0).gamma_minus == 0.0


def test_gap_and_reorganization():
    c = make(omega_g=1.0, omega_e=1.0, lam=0.5, eps_g=0.25, eps_e=1.75)
    assert c.omega_eg == 1.5
    assert c.epsilon_e_prime == pytest.approx(1.75 + 0.25, rel=1e-15)


# ---------------------------------------------------------------------------
# time-dependent coefficients


def test_coefficients_start_exactly_at_identity(displaced, squeezed, mixed):
    for c in (displaced, squeezed, mixed):
        tc = time_coeffs(c, 0.0)
        assert tc.d_tilde_prime == 1.0 + 0.0j
        assert tc.q_tilde_prime == 0.0 + 0.0j
        assert tc.lam_tilde_prime == 0.0 + 0.0j
        assert tc.d_tilde == 1.0 + 0.0j


@given(
    omega_g=freqs_moderate, omega_e=freqs_moderate, lam=shifts, t=st.floats(0.0, 50.0)
)
def test_evolved_operator_stays_canonical(omega_g, omega_e, lam, t):
    # |d'|**2 - |q'|**2 = 1 is the bosonic commutator of the evolved mode
    c = make(omega_g=omega_g, omega_e=omega_e, lam=lam)
    tc = time_coeffs(c, t)
    assert abs(tc.d_tilde_prime) ** 2 - abs(tc.q_tilde_prime) ** 2 == pytest.approx(
        1.0, abs=1e-12
    )
    # tilde variants differ from primed by a pure phase
    assert abs(tc.d_tilde) == pytest.approx(abs(tc.d_tilde_prime), rel=1e-15)


def test_frozen_time_coefficient_values():
    # pure quadratic coupling, quarter period of the excited-surface mode:
    # the squeeze terms hit gamma_plus**2 + gamma_minus**2 and 2 g+ g-
    c = make(omega_g=1.0, omega_e=2.0, lam=0.0)
    tc = time_coeffs(c, math.pi / 4.0)
    assert abs(tc.q_tilde_prime) ** 2 == pytest.approx(0.5625, abs=1e-14)
    assert tc.d_tilde_prime == pytest.approx(1.25, abs=1e-14)
    # equal frequencies, half period: the displacement doubles
    lin = make(omega_g=1.0, omega_e=1.0, lam=1.0)
    assert time_coeffs(lin, math.pi).lam_tilde_prime == pytest.approx(
        2.0, abs=1e-14
    )


def test_coefficient_periodicity(mixed):
    period = 2.0 * math.pi / mixed.omega_e
    a = time_coeffs(mixed, 0.7)
    b = time_coeffs(mixed, 0.7 + period)
    assert b.d_tilde_prime == pytest.approx(a.d_tilde_prime, abs=1e-12)
    assert b.q_tilde_prime == pytest.approx(a.q_tilde_prime, abs=1e-12)
    assert b.lam_tilde_prime == pytest.approx(a.lam_tilde_prime, abs=1e-12)


def test_couplings_is_frozen(displaced):
    with pytest.raises(AttributeError):
        displaced.omega_g = 2.0
    assert isinstance(displaced, Couplings)
