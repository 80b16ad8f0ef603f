"""Line lists and damped-transform spectra.

The independent reference here expands the vacuum return amplitude as a
Taylor series in z = e^{-i omega_e t}; its coefficients are the line
weights over 2*pi, so the weights of the Franck-Condon recursion can be
checked against plain series arithmetic.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from indiboson import analytic
from indiboson.analytic import (
    broadened_lines,
    spectrum_finite_T,
    spectrum_zero_T,
)
from indiboson.errors import InsufficientDecayWarning, LineListError, ResolutionWarning
from indiboson.model import ModelParams, ThermalParams, derive_couplings
from indiboson.oracle import TruncatedBasis, franck_condon_weights, thermal_line_list

import powerseries  # the tests' independent series reference

T_ZERO = ThermalParams(math.inf)


def make(omega_g=1.0, omega_e=1.0, lam=0.0, eps_e=0.0):
    return derive_couplings(ModelParams.from_lambda_g(0.0, eps_e, omega_g, omega_e, lam))


def weights_by_series(c, count):
    """Line weights over 2*pi from the z-series of the vacuum amplitude:
    (gamma_plus**2 - gamma_minus**2 z**2)**-1/2
    * exp(-lambda_g*lambda_e*(1 - z)/(gamma_plus - gamma_minus*z))."""
    sq = np.zeros(count, dtype=complex)
    sq[0] = c.gamma_plus**2
    if count > 2:
        sq[2] = -c.gamma_minus**2
    root = powerseries.power(sq, -0.5)
    geo = (c.gamma_minus / c.gamma_plus) ** np.arange(count) / c.gamma_plus
    one_minus_z_geo = geo - np.concatenate([[0.0], geo[:-1]])
    arg = -c.lambda_g * c.lambda_e * one_minus_z_geo
    head, arg[0] = arg[0], 0.0  # exponential needs a vanishing constant term
    expo = math.exp(head.real) * powerseries.exponential(arg)
    coeffs = powerseries.multiply(root, expo)
    assert np.max(np.abs(coeffs.imag)) < 1e-13
    return coeffs.real


# ---------------------------------------------------------------------------
# zero-temperature line lists


def test_displaced_lines_are_poisson(displaced):
    lines = spectrum_zero_T(displaced)
    assert lines[0].offset == 0.0
    for n, ln in enumerate(lines):
        assert ln.offset == pytest.approx(float(n), abs=1e-15)
        assert ln.weight == pytest.approx(
            2.0 * math.pi * math.exp(-1.0) / math.factorial(n), rel=1e-12
        )


def test_squeezed_lines_even_only(squeezed):
    lines = spectrum_zero_T(squeezed)
    assert lines[0].offset == pytest.approx(0.5, abs=1e-15)
    for n, ln in enumerate(lines):
        assert ln.offset == pytest.approx(0.5 + 2.0 * n, abs=1e-12)
        assert ln.weight >= 0.0
        if n % 2 == 1:
            assert ln.weight == 0.0
    assert lines[0].weight / (2.0 * math.pi) == pytest.approx(
        2.0 * math.sqrt(2.0) / 3.0, rel=1e-12
    )
    assert lines[2].weight / (2.0 * math.pi) == pytest.approx(
        math.sqrt(2.0) / 27.0, rel=1e-12
    )


def test_sum_rule(displaced, squeezed, mixed):
    for c in (displaced, squeezed, mixed):
        total = sum(ln.weight for ln in spectrum_zero_T(c))
        assert total == pytest.approx(2.0 * math.pi, abs=1e-9)


@given(ratio=st.floats(0.25, 4.0), lam=st.floats(0.0, 6.0))
@example(ratio=1.0, lam=1.0)  # the three presets
@example(ratio=2.0, lam=0.0)
@example(ratio=2.0, lam=1.0)
@example(ratio=2.0, lam=5.0)
@example(ratio=0.25, lam=6.0)
@example(ratio=4.0, lam=6.0)
def test_weights_match_series_expansion(ratio, lam):
    c = make(omega_e=ratio, lam=lam)
    lines = spectrum_zero_T(c)
    assert sum(ln.weight for ln in lines) == pytest.approx(2.0 * math.pi, abs=1e-9)
    count = min(len(lines), 16)
    expect = weights_by_series(c, count)
    for n in range(count):
        assert lines[n].weight == pytest.approx(2.0 * math.pi * expect[n], abs=1e-12)


@pytest.mark.parametrize("ratio, lam", [(1.5, 6.0), (2.0, 5.0), (2.0, 6.0), (3.0, 4.0)])
def test_frequency_change_with_large_displacement_reaches_sum_rule(ratio, lam):
    # lists of 125 to 167 lines whose unnormalised Hermite factors would
    # overflow a double; the normalised recursion never leaves [-1, 1]*sqrt(2*pi)
    c = make(omega_e=ratio, lam=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lines = spectrum_zero_T(c)
    weights = np.array([ln.weight for ln in lines])
    assert weights.sum() == pytest.approx(2.0 * math.pi, abs=1e-9)
    expect = 2.0 * math.pi * weights_by_series(c, 60)
    assert np.max(np.abs(weights[:60] - expect)) < 1e-12
    reference = franck_condon_weights(c, TruncatedBasis(512), len(weights))
    assert np.max(np.abs(weights - reference)) < 1e-8


def test_near_degenerate_frequencies_stay_continuous():
    # just above the dispatch threshold the squeeze weights must already
    # look Poissonian; the two branches meet smoothly
    c = make(omega_e=1.0 + 2e-8, lam=1.0)
    assert not c.equal_frequencies
    lines = spectrum_zero_T(c)
    for n in range(7):
        assert lines[n].weight == pytest.approx(
            2.0 * math.pi * math.exp(-1.0) / math.factorial(n), abs=1e-6
        )


def test_line_cap_guards_runaway_lists():
    # e^{-lambda**2} underflows, so the stream cannot reach the sum rule
    with pytest.raises(RuntimeError, match="sum rule"):
        spectrum_zero_T(make(lam=50.0))
    with pytest.raises(LineListError, match="sum rule"):
        spectrum_zero_T(make(omega_e=1.5, lam=50.0))


def test_line_list_names_the_weight_that_fails():
    # an underflowed first weight is named instead of running into the
    # line cap, and no numpy warning escapes on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # (2*pi/gamma_plus)*exp(-lambda_e*lambda_g/gamma_plus) underflows
        with pytest.raises(LineListError, match="spectral weight 0 underflows"):
            spectrum_zero_T(make(omega_e=1.5, lam=50.0))
        # exp(-S) underflows for the Poisson weights
        with pytest.raises(LineListError, match="spectral weight 0 underflows"):
            spectrum_zero_T(make(lam=50.0))


# ---------------------------------------------------------------------------
# Lorentzian broadening


def test_broadened_single_line_peak_height():
    from indiboson.analytic import SpectralLine

    lines = [SpectralLine(offset=0.0, weight=2.0 * math.pi)]
    w = np.array([-0.3, 0.0, 0.3])
    a = broadened_lines(w, lines, eta=0.1)
    assert a[1] == pytest.approx(2.0 / 0.1, rel=1e-12)
    assert a[0] == pytest.approx(a[2], rel=1e-12)
    with pytest.raises(ValueError, match="eta"):
        broadened_lines(w, lines, eta=0.0)


# ---------------------------------------------------------------------------
# damped transform


def test_zero_coupling_spectrum_is_a_lorentzian_at_the_gap():
    c = make(eps_e=1.5)
    w = np.linspace(0.5, 2.5, 401)
    a = spectrum_finite_T(T_ZERO, c, w, eta=0.02)
    expect = 2.0 * 0.02 / ((w - 1.5) ** 2 + 0.02**2)
    assert np.max(np.abs(a - expect)) < 2e-3 * np.max(expect)
    assert w[int(np.argmax(a))] == pytest.approx(1.5, abs=0.01)


def test_displaced_spectrum_recovers_poisson_windows(displaced):
    w = np.linspace(-0.5, 6.5, 1401)
    a = spectrum_finite_T(T_ZERO, displaced, w, eta=0.02)
    model = broadened_lines(w, spectrum_zero_T(displaced), eta=0.02)
    assert np.max(np.abs(a - model)) < 2e-3 * np.max(model)
    # window-integrated weight around each peak matches the Poisson line
    # content pushed through the same Lorentzian windows
    h = w[1] - w[0]
    for n in range(5):
        win = np.abs(w - float(n)) <= 0.5
        got = np.trapezoid(a[win], dx=h)
        want = np.trapezoid(model[win], dx=h)
        assert got == pytest.approx(want, rel=1e-3)


def test_thermal_spectrum_matches_broadened_reference_lines(mixed):
    th = ThermalParams(0.5)
    w = np.linspace(-3.0, 13.0, 401)
    a = spectrum_finite_T(th, mixed, w, eta=0.04)
    lines = thermal_line_list(th, mixed, TruncatedBasis(128))
    model = broadened_lines(w, lines, eta=0.04)
    assert np.max(np.abs(a - model)) < 2e-3 * np.max(model)


def test_transform_is_deterministic(squeezed):
    th = ThermalParams(0.5)
    w = np.linspace(-3.0, 13.0, 201)
    first = spectrum_finite_T(th, squeezed, w)
    second = spectrum_finite_T(th, squeezed, w)
    assert np.array_equal(first, second)


def test_short_window_warns(squeezed):
    w = np.linspace(-1.0, 5.0, 11)
    with pytest.warns(InsufficientDecayWarning, match="decays"):
        spectrum_finite_T(ThermalParams(0.5), squeezed, w, eta=0.04, t_max=50.0)


def test_transform_parameter_guards(squeezed):
    w = np.linspace(-1.0, 5.0, 11)
    with pytest.raises(ValueError, match="eta"):
        spectrum_finite_T(T_ZERO, squeezed, w, eta=-0.1)
    with pytest.raises(ValueError, match="t_max"):
        spectrum_finite_T(T_ZERO, squeezed, w, eta=0.1, t_max=0.0)


def _benchmark_style_grid(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return np.array([lo + k * step for k in range(n - 1)] + [hi])


def _jittered_grid():
    w = np.linspace(-3.0, 13.0, 61)
    return w + np.random.default_rng(7).uniform(-0.05, 0.05, w.size)


def _nudged_grid():
    # one point off by 1e-9: a phase of 4e-8 rad over t_max = 40
    w = np.linspace(-3.0, 13.0, 401)
    w[200] += 1e-9
    return w


@pytest.mark.parametrize(
    "w, fast",
    [
        (np.linspace(-1.0, 3.0, 2), True),
        (np.linspace(-3.0, 13.0, 401), True),
        (np.linspace(-3.0, 13.0, 400), True),
        (np.linspace(13.0, -3.0, 401), True),
        (_benchmark_style_grid(-3.0, 13.0, 333), True),
        (np.array([2.0]), False),
        (_jittered_grid(), False),
        (_nudged_grid(), False),
    ],
    ids=["two-point", "odd", "even", "descending", "lo+k*step", "one-point",
         "jittered", "nudged"],
)
def test_chirp_z_transform_matches_horner(monkeypatch, w, fast):
    # a nonzero gap puts roundoff into the offsets w - omega_eg, which the
    # uniform grids must tolerate
    c = make(omega_e=2.0, lam=1.0, eps_e=0.7)
    th = ThermalParams(0.5)
    calls = []
    chirp_z = analytic._chirp_z_sum

    def spy(*args):
        calls.append(args)
        return chirp_z(*args)

    monkeypatch.setattr(analytic, "_chirp_z_sum", spy)
    got = spectrum_finite_T(th, c, w, eta=0.2)
    assert bool(calls) == fast
    monkeypatch.setattr(analytic, "_uniform_step", lambda delta, t_span: None)
    want = spectrum_finite_T(th, c, w, eta=0.2)
    assert len(calls) == int(fast)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_sample_cap_warns_with_the_steps_and_error():
    # narrow lines on a stiff excited mode: the curvature target asks for
    # about 640,000 samples over t_max = 4000
    c = make(omega_e=5.0, lam=1.0)
    w = np.linspace(-10.0, 40.0, 201)
    with pytest.warns(ResolutionWarning, match="400,001-sample cap") as record:
        a = spectrum_finite_T(T_ZERO, c, w, eta=0.002)
    found = re.search(
        r"time step (\S+) needed .* using step (\S+), estimated interpolation "
        r"error (\S+)$",
        str(record[0].message),
    )
    asked, used, error = (float(v) for v in found.groups())
    assert used == 0.01  # t_max / 400,000
    assert asked < used
    # curvature * h**2 / 8 with the curvature the asked-for step was set from
    assert error == pytest.approx(1e-5 * (used / asked) ** 2, rel=5e-3)
    assert np.all(np.isfinite(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)
        spectrum_finite_T(T_ZERO, c, w, eta=0.1)
