"""Closed-form overlaps, generating function, and thermal correlation.

Frozen expected values were computed by hand from the stated closed forms
(Laguerre spot values, Poisson factors, squeeze factors at quarter and
half periods) and are asserted at float precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from indiboson import analytic
from indiboson.analytic import (
    OverlapValue,
    correlation,
    excited_mean_energy,
    excited_phonon_number,
    overlap,
    overlap_quadratic,
    phonon_number,
    phonon_number_quadratic,
    vacuum_ground_phonon_number,
)
from indiboson.errors import PoleError
from indiboson.model import ModelParams, ThermalParams, derive_couplings, time_coeffs
from indiboson.oracle import Propagator, TruncatedBasis, build_excited_hamiltonian
from indiboson.validation import polaron_state_check, vacuum_expansion_linear

import displaced as displaced_form  # the tests' equal-frequency reference
import powerseries  # the tests' independent series reference
from generating import generating_function  # the tests' K(x) reference

T_ZERO = ThermalParams(math.inf)


def make(omega_g=1.0, omega_e=1.0, lam=0.0, eps_e=0.0):
    return derive_couplings(ModelParams.from_lambda_g(0.0, eps_e, omega_g, omega_e, lam))


def overlap_quadratic_series(p_max, c, t):
    """Return amplitudes for p = 0..p_max via Taylor extraction from the
    generating function.

    Independent of the partial-fraction closed form: the two square-root
    factors enter through the central-binomial series for (1-u)**-1/2 and
    the essential-singularity factor through a power-series exponential.
    The vacuum factor is the z-series form
    (gamma_plus**2 - gamma_minus**2 z**2)**-1/2
    * exp(-lambda_g*lambda_e*(1 - z)/(gamma_plus - gamma_minus*z))
    at z = e^{-i omega_e t}.
    """
    tc = time_coeffs(c, t)
    d, q, lam = tc.d_tilde, tc.q_tilde, tc.lam_tilde
    n = p_max + 1

    def binom_factor(pole):
        # (1 - x/pole)^{-1/2} = sum_k C(2k, k) (x / (4 pole))^k
        out = np.empty(n, dtype=complex)
        out[0] = 1.0
        for k in range(1, n):
            out[k] = out[k - 1] * (2.0 * k - 1.0) / (2.0 * k) / pole
        return out

    core = powerseries.multiply(binom_factor(1.0 + q), binom_factor(1.0 - q))
    expo = np.zeros(n, dtype=complex)
    term = lam * lam / (d * (1.0 - q))
    for k in range(1, n):
        term = term / (1.0 - q)
        expo[k] = term
    z = np.exp(-1j * c.omega_e * t)
    vacuum = (c.gamma_plus**2 - c.gamma_minus**2 * z * z) ** -0.5 * np.exp(
        -c.lambda_g * c.lambda_e * (1.0 - z) / (c.gamma_plus - c.gamma_minus * z)
    )
    coeffs = vacuum * powerseries.multiply(core, powerseries.exponential(expo))
    phases = np.exp(-0.5j * c.omega_e * t) * d ** np.arange(n)
    return phases * coeffs


ratios = st.floats(min_value=0.3, max_value=3.0, allow_nan=False)
lambdas = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


# ---------------------------------------------------------------------------
# result containers


def test_result_containers_reject_unphysical_magnitudes(monkeypatch, displaced):
    with pytest.raises(ValueError, match="overlap magnitude"):
        OverlapValue(value=1.1 + 0.0j)
    assert abs(OverlapValue(value=0.6j).value) ** 2 == pytest.approx(0.36)
    # the values at an array of times are checked as a whole: one bad
    # entry is enough
    ts = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="overlap magnitude"):
        OverlapValue(value=np.array([1.0, 0.3j, 1.1]))
    ok = OverlapValue(value=np.array([1.0, 0.6j, -0.5]))
    assert abs(ok.value) ** 2 == pytest.approx([1.0, 0.36, 0.25])
    # the correlation carries the same whole-array guard
    monkeypatch.setattr(
        analytic, "_correlation_quadratic_values", lambda th, c, ts: np.full(ts.shape, -1.2 + 0j)
    )
    with pytest.raises(ValueError, match="correlation magnitude"):
        correlation(T_ZERO, displaced, ts)


# ---------------------------------------------------------------------------
# stationary quantities


def test_vacuum_expansion_spot_values():
    assert vacuum_expansion_linear(0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]
    coeffs = vacuum_expansion_linear(1.0, 40)
    assert coeffs[0] == pytest.approx(math.exp(-0.5), rel=1e-15)
    # squared coefficients are Poisson with mean 1
    for p in range(8):
        assert coeffs[p] ** 2 == pytest.approx(
            math.exp(-1.0) / math.factorial(p), rel=1e-12
        )
    assert float(np.sum(coeffs**2)) == pytest.approx(1.0, abs=1e-12)


def test_vacuum_phonon_number(displaced, squeezed, mixed):
    assert vacuum_ground_phonon_number(displaced) == pytest.approx(1.0, abs=1e-12)
    assert vacuum_ground_phonon_number(squeezed) == pytest.approx(0.125, abs=1e-12)
    assert vacuum_ground_phonon_number(mixed) == pytest.approx(1.125, abs=1e-12)


def test_phonon_number_spot(displaced):
    # p = 2, lambda = 1, omega*t = pi/3: 2 + 4*sin(pi/6)**2 = 3
    assert phonon_number(2, displaced, [math.pi / 3.0])[0] == pytest.approx(3.0, abs=1e-14)
    assert phonon_number(0, displaced, [0.0])[0] == 0.0


def test_phonon_number_routes_agree(displaced):
    # the general form against p + 4*lambda**2*sin(omega*t/2)**2
    ts = np.array([0.0, 0.4, 1.3, 2.9, 6.1])
    for p in (0, 1, 5):
        assert phonon_number(p, displaced, ts) == pytest.approx(
            displaced_form.phonon_number(p, displaced, ts), abs=1e-12
        )


def test_phonon_number_from_operator_coefficients(mixed):
    # recompute p*|d|**2 + (p+1)*|q|**2 + |lam|**2 from the normal-mode
    # transform written the textbook way, gamma_plus**2 terms and all
    c = mixed
    for t in (0.3, 1.7, 4.4):
        th = c.omega_e * t
        d = c.gamma_plus**2 * np.exp(-1j * th) - c.gamma_minus**2 * np.exp(1j * th)
        q = c.gamma_plus * c.gamma_minus * (np.exp(-1j * th) - np.exp(1j * th))
        lam = c.lambda_g * (1.0 - np.exp(-1j * th)) - c.lambda_e * c.gamma_minus * (
            np.exp(-1j * th) - np.exp(1j * th)
        )
        for p in (0, 3):
            expect = p * abs(d) ** 2 + (p + 1) * abs(q) ** 2 + abs(lam) ** 2
            assert phonon_number_quadratic(p, c, t) == pytest.approx(expect, rel=1e-12)


def test_time_coefficients_match_normal_mode_transform(mixed):
    # same transform as above, as a direct check on time_coeffs; the
    # displacement coefficient is only fixed up to a global sign
    c = mixed
    for t in (0.5, 2.2):
        th = c.omega_e * t
        tc = time_coeffs(c, t)
        d = c.gamma_plus**2 * np.exp(-1j * th) - c.gamma_minus**2 * np.exp(1j * th)
        q = c.gamma_plus * c.gamma_minus * (np.exp(-1j * th) - np.exp(1j * th))
        lam = c.lambda_g * (1.0 - np.exp(-1j * th)) - c.lambda_e * c.gamma_minus * (
            np.exp(-1j * th) - np.exp(1j * th)
        )
        assert tc.d_tilde == pytest.approx(d, abs=1e-13)
        assert tc.q_tilde == pytest.approx(q, abs=1e-13)
        assert min(abs(tc.lam_tilde - lam), abs(tc.lam_tilde + lam)) < 1e-13


def test_excited_surface_constants(displaced, mixed):
    assert excited_phonon_number(2, displaced) == pytest.approx(3.0, rel=1e-15)
    assert excited_mean_energy(0, displaced) == pytest.approx(1.5, rel=1e-15)
    with pytest.raises(ValueError, match="omega_g == omega_e"):
        excited_phonon_number(0, mixed)
    with pytest.raises(ValueError, match="omega_g == omega_e"):
        excited_mean_energy(0, mixed)
    with pytest.raises(ValueError, match="phonon index"):
        phonon_number(-1, displaced, [0.0])


# ---------------------------------------------------------------------------
# return amplitudes, equal frequencies


def test_overlap_linear_spots(displaced):
    # p = 1, omega*t = pi: lam_t = 2, L_1(4) = -3, |amp| = 3 e^{-2}
    v = overlap(1, displaced, [math.pi])[0]
    assert abs(v) ** 2 == pytest.approx(9.0 * math.exp(-4.0), rel=1e-12)
    # p = 0 at the same point decays as e^{-2 lam_t**2 / 2} = e^{-2}
    v0 = overlap(0, displaced, [math.pi])[0]
    assert abs(v0) ** 2 == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert v0 == pytest.approx(math.exp(-2.0) * -1j, abs=1e-14)


def test_overlap_starts_at_unity(displaced, squeezed, mixed):
    for p in range(11):
        for c in (displaced, squeezed, mixed):
            assert overlap_quadratic(p, c, 0.0).value == 1.0 + 0.0j


@given(lam=lambdas, t=times, p=st.integers(0, 6))
def test_overlap_linear_magnitude_bounded(lam, t, p):
    c = make(lam=lam)
    v = overlap_quadratic(p, c, t)  # the container itself enforces |v| <= 1
    assert abs(v.value) ** 2 <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# return amplitudes, general case


def test_overlap_quadratic_spot(squeezed):
    # quarter period of the omega_e = 2*omega_g squeeze: |amp|**2 =
    # 1/(1 + 2*gamma_minus**2) = 0.8
    v = overlap_quadratic(0, squeezed, math.pi / 4.0)
    assert abs(v.value) ** 2 == pytest.approx(0.8, rel=1e-12)


def test_overlap_quadratic_reduces_to_linear(displaced):
    for t in (0.3, 1.1, 2.9, 5.0):
        for p in range(9):
            quad = overlap_quadratic(p, displaced, t).value
            lin = displaced_form.overlap(p, displaced, t)
            assert quad == pytest.approx(lin, abs=1e-11)
    # strong displacements and deep levels, short of where L_p overflows
    ts = np.linspace(0.0, 2.0 * math.pi, 101)
    for lam, p_max in ((0.5, 1000), (3.0, 1000), (10.0, 1000), (40.0, 60)):
        c = make(lam=lam)
        for p in (5, 60, 300, 1000):
            if p <= p_max:
                got = np.abs(overlap(p, c, ts)) ** 2
                want = np.abs(displaced_form.overlap(p, c, ts)) ** 2
                assert np.max(np.abs(got - want)) <= 1e-11, (lam, p)


def test_overlap_series_route_matches_closed_form(squeezed, mixed):
    for c in (squeezed, mixed):
        for t in (0.35, 0.9, 2.0, 3.1):
            seq = overlap_quadratic_series(12, c, t)
            for p in range(13):
                assert seq[p] == pytest.approx(
                    overlap_quadratic(p, c, t).value, abs=1e-12
                )


def test_overlap_at_high_order_matches_series_and_oracle():
    # p = 60 with a frequency change and a displacement, where the k-sum
    # has 61 terms of the running products
    c = make(omega_e=1.4, lam=1.5)
    ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 400)
    got = overlap_quadratic(60, c, ts).value
    for i in range(0, ts.size, 40):
        seq = overlap_quadratic_series(60, c, ts[i])
        assert seq[60] == pytest.approx(got[i], abs=1e-12)
    basis = TruncatedBasis(256)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    ref = prop.return_amplitude(60, ts, energy_offset=c.epsilon_e)
    assert np.max(np.abs(got - ref)) <= 1e-6


def test_overlap_antiperiodic_over_one_mode_period(mixed):
    # e^{-i omega_e t/2} zero-point phase flips sign after a full period
    period = 2.0 * math.pi / mixed.omega_e
    for p in (0, 2):
        a = overlap_quadratic(p, mixed, 0.8)
        b = overlap_quadratic(p, mixed, 0.8 + period)
        assert b.value == pytest.approx(-a.value, abs=1e-12)


@given(ratio=ratios, lam=lambdas, t=times)
def test_overlap_quadratic_magnitude_bounded(ratio, lam, t):
    c = make(omega_e=ratio, lam=lam)
    v = overlap_quadratic(1, c, t)
    assert abs(v.value) ** 2 <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# array paths


@pytest.mark.parametrize("p", [0, 5, 60])
@pytest.mark.parametrize("name", ["displaced", "squeezed", "mixed"])
def test_array_paths_equal_per_time_calls(request, name, p):
    c = request.getfixturevalue(name)
    ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 400)
    amp = overlap(p, c, ts)
    assert amp.shape == ts.shape
    assert np.max(np.abs(amp - [overlap_quadratic(p, c, t).value for t in ts])) <= 1e-13
    phon = phonon_number(p, c, ts)
    assert np.max(np.abs(phon - [phonon_number_quadratic(p, c, t) for t in ts])) <= 1e-13
    th = ThermalParams(0.5)
    g = correlation(th, c, ts)
    assert np.max(np.abs(g - [correlation(th, c, [t])[0] for t in ts])) <= 1e-13


def test_scalar_kernels_keep_scalar_types(mixed):
    v = overlap_quadratic(2, mixed, 0.3)
    assert isinstance(v.value, complex)
    assert isinstance(phonon_number_quadratic(2, mixed, 0.3), float)
    arr = overlap_quadratic(2, mixed, np.array([0.3, 0.4]))
    assert arr.value.shape == (2,)
    assert arr.value[0] == pytest.approx(v.value, abs=1e-14)


# ---------------------------------------------------------------------------
# generating function


def taylor_by_contour(c, t, order, radius=0.5, samples=64):
    """Taylor coefficients of the generating function by evaluating it on a
    circle and projecting with the FFT; independent of the series route."""
    ring = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    values = generating_function(ring, c, t)
    return np.fft.fft(values)[: order + 1] / samples / radius ** np.arange(order + 1)


def test_generating_function_at_origin_is_vacuum_amplitude(mixed):
    for t in (0.35, 1.4):
        k0 = generating_function(0.0, mixed, t)
        vac = overlap_quadratic(0, mixed, t).value
        assert k0 == pytest.approx(vac * np.exp(0.5j * mixed.omega_e * t), abs=1e-14)


def test_generating_function_at_t_zero_is_geometric(mixed):
    for x in (0.3, -0.45, 0.2 + 0.3j):
        assert generating_function(x, mixed, 0.0) == pytest.approx(
            1.0 / (1.0 - x), rel=1e-13
        )


def test_taylor_coefficients_match_series_route(squeezed, mixed):
    for c in (squeezed, mixed):
        t = 0.35  # omega_e * t = 0.7
        contour = taylor_by_contour(c, t, 10)
        seq = overlap_quadratic_series(10, c, t)
        d = time_coeffs(c, t).d_tilde
        strip = np.exp(0.5j * c.omega_e * t) / d ** np.arange(11)
        assert np.allclose(contour, seq * strip, atol=1e-10)


def test_generating_function_sums_its_own_series(mixed):
    t = 1.2
    x = 0.2 + 0.1j
    seq = overlap_quadratic_series(40, mixed, t)
    d = time_coeffs(mixed, t).d_tilde
    coeffs = seq * np.exp(0.5j * mixed.omega_e * t) / d ** np.arange(41)
    total = np.sum(coeffs * x ** np.arange(41))
    assert total == pytest.approx(generating_function(x, mixed, t), abs=1e-10)


# ---------------------------------------------------------------------------
# thermal correlation


def test_correlation_starts_exactly_at_one(displaced, squeezed, mixed):
    assert correlation(ThermalParams(1.0), displaced, [0.0])[0] == 1.0 + 0.0j
    for c in (squeezed, mixed):
        for th in (T_ZERO, ThermalParams(0.5)):
            assert correlation(th, c, [0.0])[0] == 1.0 + 0.0j


def test_correlation_linear_frozen_magnitudes(displaced):
    # T = 0 at omega*t = pi: |G| = e^{-2 lambda**2}
    g_cold = correlation(T_ZERO, displaced, [math.pi])[0]
    assert abs(g_cold) == pytest.approx(math.exp(-2.0), rel=1e-12)
    # beta*omega = 1 adds the occupation factor e^{-4*nbar}
    nbar = 1.0 / (math.e - 1.0)
    g_warm = correlation(ThermalParams(1.0), displaced, [math.pi])[0]
    assert abs(g_warm) == pytest.approx(
        math.exp(-2.0) * math.exp(-4.0 * nbar), rel=1e-12
    )


def test_correlation_linear_is_periodic(displaced):
    th = ThermalParams(1.0)
    period = 2.0 * math.pi / displaced.omega_e
    ts = np.array([0.0, 0.37, 1.9, 3.3])
    a = correlation(th, displaced, ts)
    b = correlation(th, displaced, ts + period)
    assert np.abs(b) == pytest.approx(np.abs(a), abs=1e-12)


@pytest.mark.parametrize("beta", [1e-8, 1e-3, 0.3, 1.0, 4.0, math.inf])
def test_equal_frequency_correlation_matches_displaced_form(beta):
    # e^{-i omega_eg t} e^{-lam*conj(lam_t)} e^{-nbar*|lam_t|**2}
    c = make(lam=1.0, eps_e=1.5)
    ts = np.linspace(0.0, 4.0 * math.pi, 400)
    got = correlation(ThermalParams(beta), c, ts)
    assert np.max(np.abs(got - displaced_form.correlation(beta, c, ts))) <= 1e-13


def test_cold_correlation_is_vacuum_overlap_with_gap_phase(mixed):
    # at T = 0 only the vacuum contributes; the correlation adds the
    # electronic gap phase and refers phases to the ground zero point
    for t in (0.45, 1.8, 2.6):
        g = correlation(T_ZERO, mixed, [t])[0]
        vac = overlap_quadratic(0, mixed, t).value
        expected = vac * np.exp(-1j * mixed.omega_eg * t) * np.exp(
            0.5j * mixed.omega_g * t
        )
        assert g == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("beta", [0.3, 1.0, 4.0, math.inf])
def test_correlation_is_generating_function_at_thermal_argument(squeezed, mixed, beta):
    # G(t) = (1 - e^{-beta omega_g}) e^{-i omega_eg t} e^{i(omega_g - omega_e)t/2} K(x)
    # at x = e^{-beta omega_g} e^{i(omega_g - omega_e)t} d'
    ts = np.linspace(0.0, 7.0, 57)
    for c in (squeezed, mixed, make(omega_e=0.6, lam=1.3, eps_e=1.5)):
        boltz = math.exp(-beta * c.omega_g)
        half = np.exp(0.5j * (c.omega_g - c.omega_e) * ts)
        x = boltz * half * half * time_coeffs(c, ts).d_tilde_prime
        phases = np.exp(-1j * c.omega_eg * ts) * half
        expect = (1.0 - boltz) * phases * generating_function(x, c, ts)
        got = correlation(ThermalParams(beta), c, ts)
        assert np.max(np.abs(got - expect)) <= 1e-13


@pytest.mark.filterwarnings("error")
def test_correlation_quadratic_near_infinite_temperature_hits_pole(mixed):
    # 1 - e^{-beta omega_g} below the pole tolerance is refused on any time
    # grid, not only where t = 0 puts the thermal argument on the pole
    for beta in (1e-13, 1e-17):
        for ts in ([0.0], [1.0, 1.3]):
            with pytest.raises(PoleError, match="thermal"):
                correlation(ThermalParams(beta), mixed, ts)


@given(ratio=ratios, lam=lambdas, t=times, beta=st.floats(0.2, 5.0))
def test_correlation_magnitude_bounded(ratio, lam, t, beta):
    c = make(omega_e=ratio, lam=lam)
    g = correlation(ThermalParams(beta), c, [t])[0]
    assert abs(g) <= 1.0 + 1e-9


def test_correlation_carries_electronic_gap(displaced):
    c = make(lam=1.0, eps_e=1.5)
    t = 0.7
    with_gap = correlation(ThermalParams(1.0), c, [t])[0]
    no_gap = correlation(ThermalParams(1.0), displaced, [t])[0]
    assert with_gap == pytest.approx(no_gap * np.exp(-1.5j * t), abs=1e-13)


# ---------------------------------------------------------------------------
# displaced-mode identity check


def test_polaron_identity_residual_is_truncation_noise():
    assert polaron_state_check(1.0, 0, dim=40) < 1e-10
    assert polaron_state_check(1.0, 2, dim=60) < 1e-8
    assert polaron_state_check(0.0, 3, dim=20) < 1e-14
    with pytest.raises(ValueError, match="dim"):
        polaron_state_check(1.0, 5, dim=6)
