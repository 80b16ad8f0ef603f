"""Line lists and windowed spectra.

The independent reference here expands the vacuum return amplitude as a
Taylor series in z = e^{-i omega_e t}; its coefficients are the line
weights over 2*pi, so the weights of the Franck-Condon recursion can be
checked against plain series arithmetic. Thermal spectra are checked
against the oracle's line list through the same finite window.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indiboson import analytic
from indiboson.analytic import (
    spectrum_finite_T,
    spectrum_zero_T,
    thermal_lines,
    windowed_spectrum,
)
from indiboson.errors import LineListError
from indiboson.model import ModelParams, ThermalParams, derive_couplings
from indiboson.oracle import (
    TruncatedBasis,
    franck_condon_weights,
    thermal_line_list,
    window_broadened,
)

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


def broadened_lines(w_offsets, lines, eta):
    """Lorentzian-broadened line list (the infinite-window limit) sampled at
    offsets from the gap."""
    if eta <= 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    w = np.asarray(w_offsets, dtype=float)[:, None]
    off, wt = lines.offset[None, :], lines.weight[None, :]
    return np.sum(wt / math.pi * eta / ((w - off) ** 2 + eta**2), axis=1)


def scalar_zero_T(c):
    """The zero-temperature list as one scalar loop over Python floats,
    in the recursion's order of operations."""
    gp, gm, lam = c.gamma_plus, c.gamma_minus, c.lambda_g
    a_prev = 0.0
    a_cur = math.sqrt(2.0 * math.pi / gp) * math.exp(-0.5 * c.lambda_e * lam / gp)
    lines, total = [], 0.0
    for n in range(2000):
        w = a_cur * a_cur
        lines.append((0.5 * (c.omega_e - c.omega_g) + n * c.omega_e, w))
        total += w
        if total >= 2.0 * math.pi * (1.0 - 1e-10):
            return lines
        a_next = (gm * math.sqrt(n) * a_prev - lam * a_cur) / (gp * math.sqrt(n + 1))
        a_prev, a_cur = a_cur, a_next
    raise AssertionError("no sum rule within 2000 lines")


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


@pytest.mark.parametrize(
    "ratio, lam", [(1.0, 1.0), (2.0, 0.0), (2.0, 1.0), (1.5, 6.0), (2.0, 5.0)]
)
def test_zero_T_list_is_bitwise_the_scalar_recursion(ratio, lam):
    # the three presets and two long lists: the shared vectorised sweep
    # reproduces the scalar recursion's lines bit for bit
    got = [(ln.offset, ln.weight) for ln in spectrum_zero_T(make(omega_e=ratio, lam=lam))]
    assert got == scalar_zero_T(make(omega_e=ratio, lam=lam))


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
# Lorentzian broadening (test reference)


def test_broadened_single_line_peak_height():
    lines = np.rec.fromarrays([[0.0], [2.0 * math.pi]], names="offset,weight")
    w = np.array([-0.3, 0.0, 0.3])
    a = broadened_lines(w, lines, eta=0.1)
    assert a[1] == pytest.approx(2.0 / 0.1, rel=1e-12)
    assert a[0] == pytest.approx(a[2], rel=1e-12)
    with pytest.raises(ValueError, match="eta"):
        broadened_lines(w, lines, eta=0.0)


# ---------------------------------------------------------------------------
# thermal line lists and windowed spectra


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


@pytest.mark.parametrize(
    "ratio, lam, beta",
    [(1.0, 2.0, 0.3), (3.0, 2.0, 0.3), (0.5, 2.0, 0.3), (2.0, 2.0, 0.3), (3.0, 2.0, 5.0)],
)
def test_thermal_spectrum_matches_oracle_lines_in_the_same_window(ratio, lam, beta):
    # the hottest and most strongly coupled corners of the benchmark box,
    # where the line list has the most rows and columns
    c = make(omega_e=ratio, lam=lam)
    th = ThermalParams(beta)
    w = np.linspace(-2.0 * ratio, 8.0 * ratio, 801)
    eta = 0.01 * ratio
    got = spectrum_finite_T(th, c, w, eta=eta)
    ref = window_broadened(w, thermal_line_list(th, c, TruncatedBasis(512)), eta, 8.0 / eta)
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(ref)


def test_hot_spectrum_matches_oracle_lines_in_the_same_window():
    # hotter than the benchmark box: ~490 Boltzmann columns, ~65,000 oracle
    # lines; the oracle drops lines below 1e-12, dims 1024 and 1536 agree
    c = make(omega_e=1.0, lam=3.0)
    th = ThermalParams(0.05)
    w = np.linspace(-2.0, 8.0, 201)
    eta = 0.01
    got = spectrum_finite_T(th, c, w, eta=eta)
    ref = window_broadened(w, thermal_line_list(th, c, TruncatedBasis(1024)), eta, 8.0 / eta)
    assert np.max(np.abs(got - ref)) <= 5e-9 * np.max(ref)


@settings(max_examples=30)
@given(ratio=st.floats(0.5, 3.0), lam=st.floats(0.0, 2.0), beta=st.floats(0.3, 5.0))
@example(ratio=3.0, lam=2.0, beta=0.3)
@example(ratio=0.5, lam=2.0, beta=0.3)
def test_thermal_lines_meet_first_moment_and_sum_rule(ratio, lam, beta):
    lines, residual = thermal_lines(ThermalParams(beta), make(omega_e=ratio, lam=lam))
    assert residual <= 1e-9
    # only the Boltzmann tail below the 1e-12 floor is missing
    assert lines.weight.sum() == pytest.approx(2.0 * math.pi, abs=1e-10)
    assert np.all(np.diff(lines.offset) > 0.0)


def test_rational_ratio_merges_equal_offsets(mixed):
    # omega_e = 2*omega_g puts many (n, p) pairs on one offset
    offsets = thermal_lines(ThermalParams(0.5), mixed)[0].offset
    assert np.array_equal(offsets, np.unique(offsets))
    assert np.allclose(offsets, np.round(offsets * 2.0) / 2.0, atol=1e-12)


def test_thermal_line_list_is_the_zero_T_list_when_cold(mixed):
    lines = thermal_lines(T_ZERO, mixed)[0]
    cold = spectrum_zero_T(mixed)
    n = len(cold)
    assert np.allclose(lines.offset[:n], cold.offset, atol=1e-12)
    assert np.allclose(lines.weight[:n], cold.weight, atol=1e-12)


def test_every_line_list_has_one_record_shape(mixed):
    th = ThermalParams(0.5)
    lists = [spectrum_zero_T(mixed), thermal_lines(th, mixed)[0],
             thermal_line_list(th, mixed, TruncatedBasis(128))]
    for lines in lists:
        assert isinstance(lines, np.recarray) and lines.ndim == 1
        assert lines.dtype == lists[0].dtype
        assert lines.dtype.names == ("offset", "weight")
        # read by column or line by line
        assert lines[1].offset == lines.offset[1] and lines[1].weight == lines.weight[1]


def test_thermal_line_list_refuses_what_it_cannot_reach():
    # b**N_p <= 1e-16 at beta*omega_g = 1e-3 needs ~37,000 columns
    with pytest.raises(LineListError, match=r"grid of more than 4194304 points"):
        thermal_lines(ThermalParams(1e-3), make(omega_e=2.0, lam=1.0))
    # a Huang-Rhys factor of 900 needs ~1300 levels; off the time line the
    # thermal exponent alone reaches ~970, past exp's range
    lines, residual = thermal_lines(ThermalParams(1.0), make(lam=30.0))
    assert residual <= 1e-9
    assert lines.weight.sum() == pytest.approx(2.0 * math.pi, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_thermal_grid_past_the_cap_is_refused_unevaluated(monkeypatch):
    # ~1900 hot columns at a Huang-Rhys factor of 83: the first row count
    # tried already passes the cap, and the grid is named unevaluated
    torus = analytic._thermal_torus

    def rows_only(boltz, c, t, phi):
        assert np.ndim(t) <= 1, "a 2-D grid was evaluated"
        return torus(boltz, c, t, phi)

    monkeypatch.setattr(analytic, "_thermal_torus", rows_only)
    c = make(omega_e=2.6448321811154014, lam=9.088184001853248)
    with pytest.raises(LineListError, match=r"grid of more than 4194304 points \(\d+ x 1875\)"):
        thermal_lines(ThermalParams(0.019804782243742554), c)


def test_transform_is_deterministic(squeezed):
    th = ThermalParams(0.5)
    w = np.linspace(-3.0, 13.0, 201)
    first = spectrum_finite_T(th, squeezed, w)
    second = spectrum_finite_T(th, squeezed, w)
    assert np.array_equal(first, second)


def test_transform_parameter_guards(squeezed):
    w = np.linspace(-1.0, 5.0, 11)
    with pytest.raises(ValueError, match="eta"):
        spectrum_finite_T(T_ZERO, squeezed, w, eta=-0.1)


def _benchmark_style_grid(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return np.array([lo + k * step for k in range(n - 1)] + [hi])


def _jittered_grid():
    w = np.linspace(-3.0, 13.0, 61)
    return w + np.random.default_rng(7).uniform(-0.05, 0.05, w.size)


def _nudged_grid():
    w = np.linspace(-3.0, 13.0, 401)
    w[200] += 1e-9
    return w


@pytest.mark.parametrize(
    "w",
    [
        np.linspace(-1.0, 3.0, 2),
        np.linspace(-3.0, 13.0, 401),
        np.linspace(-3.0, 13.0, 400),
        np.linspace(13.0, -3.0, 401),
        _benchmark_style_grid(-3.0, 13.0, 333),
        np.array([2.0]),
        _jittered_grid(),
        _nudged_grid(),
    ],
    ids=["two-point", "odd", "even", "descending", "lo+k*step", "one-point",
         "jittered", "nudged"],
)
def test_window_sum_matches_direct_line_sum(w):
    # every grid takes one path; the reference sums each line's window
    # 2*Re[(e^{sT} - 1)/s] in complex arithmetic, one line at a time, and a
    # nonzero gap puts roundoff into the offsets w - omega_eg
    c = make(omega_e=2.0, lam=1.0, eps_e=0.7)
    th = ThermalParams(0.5)
    eta, t_max = 0.2, 40.0
    lines = thermal_lines(th, c)[0]
    got = spectrum_finite_T(th, c, w, eta=eta)
    delta = w - c.omega_eg
    want = np.zeros(w.size)
    for off, weight in lines:
        s = 1j * (delta - off) - eta
        want += weight / math.pi * ((np.exp(s * t_max) - 1.0) / s).real
    assert got.shape == w.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(windowed_spectrum(lines, delta, eta, t_max), got)
