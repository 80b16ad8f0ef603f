"""Acceptance gate: one test per headline guarantee, in order.

Run ``pytest tests/test_acceptance.py -v`` to get a single pass/fail line
per criterion. Each test prints a summary line with the measured worst
case so failures carry their margin with them.
"""

import math
import time

import numpy as np
import pytest

from indiboson.analytic import (
    correlation,
    excited_mean_energy,
    overlap,
    overlap_quadratic,
    phonon_number,
    spectrum_finite_T,
    spectrum_zero_T,
    vacuum_ground_phonon_number,
)
from indiboson.model import ModelParams, ThermalParams, derive_couplings
from indiboson.oracle import (
    OracleState,
    Propagator,
    TruncatedBasis,
    build_excited_hamiltonian,
    excited_vacuum,
    franck_condon_weights,
    observable,
    thermal_correlation,
)

import displaced  # the tests' equal-frequency reference

_T0 = time.perf_counter()


def _report(index, name, detail):
    print(f"[{index}/9] {name}: PASS ({detail})")


def _couplings(name):
    from conftest import params_for

    return derive_couplings(params_for(name))


def _preset_times(name, points=400):
    from indiboson.presets import PRESETS

    return np.linspace(PRESETS[name]["t_min"], PRESETS[name]["t_max"], points)


PRESET_NAMES = ("fig2-linear", "fig2-quadratic", "fig2-both")


def test_1_frequency_mixing_identity_in_bulk():
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        omega_g, omega_e = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        c = derive_couplings(ModelParams(0.0, 0.0, omega_g, omega_e, 0.0))
        worst = max(worst, abs(c.gamma_plus**2 - c.gamma_minus**2 - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"identity residual {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _report(1, "frequency-mixing identity, 1000 random pairs", f"worst {worst:.2e}")


def test_2_excited_vacuum_occupation_matches_reference():
    start = time.perf_counter()
    basis = TruncatedBasis(128)
    num_op = np.diag(np.arange(128, dtype=float))
    expected = {"fig2-linear": 1.0, "fig2-quadratic": 0.125, "fig2-both": 1.125}
    worst = 0.0
    for name in PRESET_NAMES:
        c = _couplings(name)
        analytic = vacuum_ground_phonon_number(c)
        reference = observable(excited_vacuum(c, basis), num_op)
        worst = max(worst, abs(analytic - reference))
        assert abs(analytic - reference) <= 1e-8, name
        assert analytic == pytest.approx(expected[name], abs=1e-12), name
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _report(2, "excited-vacuum phonon number vs reference", f"worst {worst:.2e}")


def test_3_displaced_return_probability_vs_reference():
    start = time.perf_counter()
    c = _couplings("fig2-linear")
    ts = np.linspace(0.0, 4.0 * math.pi, 400)
    basis = TruncatedBasis(128)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    reference = np.abs(prop.return_amplitude(0, ts, energy_offset=c.epsilon_e)) ** 2
    analytic = np.abs(overlap(0, c, ts)) ** 2
    worst = float(np.max(np.abs(analytic - reference)))
    assert worst <= 1e-8, f"max deviation {worst:.3e}"
    # half-period spot value: |<0|0_t>|**2 = e^{-4 lambda**2 sin^2} = e^{-4}
    spot = abs(overlap(0, c, [math.pi])[0]) ** 2
    assert spot == pytest.approx(math.exp(-4.0), abs=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    _report(3, "displaced return probability vs reference", f"worst {worst:.2e}")


def test_4_general_return_amplitude_vs_reference():
    worst = 0.0
    for name in ("fig2-quadratic", "fig2-both"):
        c = _couplings(name)
        ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 400)
        basis = TruncatedBasis(128)
        prop = Propagator(build_excited_hamiltonian(c, basis), basis)
        reference = prop.return_amplitude(0, ts, energy_offset=c.epsilon_e)
        analytic = np.array([overlap_quadratic(0, c, t).value for t in ts])
        worst = max(worst, float(np.max(np.abs(analytic - reference))))
    assert worst <= 1e-6, f"max deviation {worst:.3e}"
    # quarter-period squeeze spot: 1/(1 + 2*gamma_minus**2) = 0.8
    c2 = _couplings("fig2-quadratic")
    spot = abs(overlap_quadratic(0, c2, math.pi / (2.0 * c2.omega_e)).value) ** 2
    assert spot == pytest.approx(0.8, abs=1e-6)
    # with equal frequencies the general route must collapse to the
    # displaced-mode closed form
    lin = _couplings("fig2-linear")
    red = 0.0
    for t in (0.3, 1.1, 2.9, 5.0, 9.7):
        for p in range(21):
            diff = abs(overlap_quadratic(p, lin, t).value - displaced.overlap(p, lin, t))
            red = max(red, diff)
    assert red <= 1e-10, f"reduction mismatch {red:.3e}"
    _report(4, "general return amplitude vs reference", f"worst {worst:.2e}")


def test_5_phonon_numbers_vs_reference():
    worst = 0.0
    for name in PRESET_NAMES:
        c = _couplings(name)
        basis = TruncatedBasis(128)
        prop = Propagator(build_excited_hamiltonian(c, basis), basis)
        num_op = np.diag(np.arange(128, dtype=float))
        state = OracleState.number_state(basis, 0)
        ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 100)
        for t, got in zip(ts, phonon_number(0, c, ts)):
            ref = observable(prop.evolve(state, t), num_op)
            worst = max(worst, abs(got - ref))
    assert worst <= 1e-7, f"max deviation {worst:.3e}"

    # the mean excited-surface energy stays put at every coupling
    basis = TruncatedBasis(128)
    state = OracleState.number_state(basis, 0)
    for name in ("fig2-linear", "fig2-both"):
        c = _couplings(name)
        h = build_excited_hamiltonian(c, basis)
        prop = Propagator(h, basis)
        ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 161)
        energies = np.array([observable(prop.evolve(state, t), h) for t in ts])
        assert np.max(np.abs(energies - excited_mean_energy(0, c))) <= 1e-8, name

    # equal frequencies: the ground-mode occupation swings by 4*lambda**2
    c = _couplings("fig2-linear")
    ts = np.linspace(0.0, 4.0 * math.pi, 161)
    phonons = phonon_number(0, c, ts)
    assert np.max(np.abs(phonons - displaced.phonon_number(0, c, ts))) <= 1e-12
    assert np.max(phonons) - np.min(phonons) == pytest.approx(
        4.0 * c.huang_rhys, abs=1e-7
    )
    _report(5, "phonon numbers vs reference", f"worst {worst:.2e}")


def test_6_thermal_correlation_vs_reference():
    basis = TruncatedBasis(256)
    worst = 0.0
    for name in PRESET_NAMES:
        c = _couplings(name)
        beta = 1.0 / c.omega_e  # beta * omega_e = 1 on every setup
        th = ThermalParams(beta)
        ts = _preset_times(name)
        analytic = correlation(th, c, ts)
        reference = thermal_correlation(th, c, basis, ts)
        worst = max(worst, float(np.max(np.abs(analytic - reference))))
    assert worst <= 1e-6, f"max deviation {worst:.3e}"

    # exact unit start on every setup
    for name in PRESET_NAMES:
        c = _couplings(name)
        th = ThermalParams(1.0 / c.omega_e)
        assert correlation(th, c, [0.0])[0] == 1.0 + 0.0j

    # pure displacement repeats after one mode period
    c = _couplings("fig2-linear")
    th = ThermalParams(1.0)
    period = 2.0 * math.pi / c.omega_e
    ts = np.linspace(0.0, period, 40)
    drift = np.max(
        np.abs(np.abs(correlation(th, c, ts + period)) - np.abs(correlation(th, c, ts)))
    )
    assert drift <= 1e-9, f"displaced-period drift {drift:.3e}"

    # with both couplings the excited-mode period is NOT a recurrence of
    # |G|; the beat only closes after a full ground-mode period
    c = _couplings("fig2-both")
    th = ThermalParams(0.5)
    ts = np.linspace(0.0, 2.0 * math.pi / c.omega_g, 200)
    g_abs = np.abs(correlation(th, c, ts))
    shifted_e = np.abs(correlation(th, c, ts + 2.0 * math.pi / c.omega_e))
    shifted_g = np.abs(correlation(th, c, ts + 2.0 * math.pi / c.omega_g))
    assert np.max(np.abs(shifted_e - g_abs)) > 1e-3
    assert np.max(np.abs(shifted_g - g_abs)) <= 1e-12
    _report(6, "thermal correlation vs reference", f"worst {worst:.2e}")


def test_7_zero_temperature_line_lists():
    # pure displacement: Poisson weights
    c = _couplings("fig2-linear")
    lines = spectrum_zero_T(c)
    worst = max(
        abs(ln.weight / (2.0 * math.pi) - math.exp(-1.0) / math.factorial(n))
        for n, ln in enumerate(lines)
    )
    assert worst <= 1e-10, f"Poisson deviation {worst:.3e}"

    # pure frequency change: real nonnegative weights, odd lines dark
    c = _couplings("fig2-quadratic")
    lines = spectrum_zero_T(c)
    assert all(isinstance(ln.weight, float) and ln.weight >= 0.0 for ln in lines)
    assert all(ln.weight == 0.0 for n, ln in enumerate(lines) if n % 2 == 1)
    assert lines[0].offset == pytest.approx(
        0.5 * (c.omega_e - c.omega_g), abs=1e-15
    )
    assert lines[0].weight / (2.0 * math.pi) == pytest.approx(
        2.0 * math.sqrt(2.0) / 3.0, rel=1e-9
    )
    reference = franck_condon_weights(c, TruncatedBasis(128), len(lines))
    fc = max(abs(ln.weight - reference[n]) for n, ln in enumerate(lines))
    assert fc <= 1e-8, f"reference deviation {fc:.3e}"

    # sum rule on every setup
    for name in PRESET_NAMES:
        total = sum(ln.weight for ln in spectrum_zero_T(_couplings(name)))
        assert total == pytest.approx(2.0 * math.pi, abs=1e-9), name
    _report(7, "zero-temperature line lists", f"Poisson worst {worst:.2e}")


def test_8_displaced_identity_residual():
    worst = displaced.polaron_state_check(1.0, 3, dim=60)  # the worst of p = 0..3
    assert worst < 1e-8, f"residual {worst:.3e}"
    _report(8, "displaced-mode identity residual", f"worst {worst:.2e}")


def test_9_reference_figure_shape():
    # (a) the pure-frequency-change return probability has half the period
    # of the pure-displacement one
    sq = _couplings("fig2-quadratic")
    shift = 2.0 * math.pi / sq.omega_e  # = pi for omega_e = 2
    ts = np.linspace(0.0, shift, 50)
    p_sq = np.abs(overlap(0, sq, ts)) ** 2
    p_sq_shift = np.abs(overlap(0, sq, ts + shift)) ** 2
    assert np.max(np.abs(p_sq_shift - p_sq)) < 1e-12
    lin = _couplings("fig2-linear")
    p_lin = np.abs(overlap(0, lin, ts)) ** 2
    p_lin_shift = np.abs(overlap(0, lin, ts + shift)) ** 2
    assert np.max(np.abs(p_lin_shift - p_lin)) > 0.1

    # (b) adding the frequency change on top of the displacement pushes the
    # deepest return-probability minima below the pure-displacement floor
    # (and shifts them off the half period)
    both = _couplings("fig2-both")
    tgrid = np.linspace(0.0, 4.0 * math.pi, 2001)
    p_both = np.abs(overlap(0, both, tgrid)) ** 2
    p_blue = np.abs(overlap(0, lin, tgrid)) ** 2
    assert p_both.min() < p_blue.min()
    assert abs(tgrid[p_both.argmin()] - math.pi) > 0.5

    # (c) warming up populates hot bands: absorption appears one ground
    # quantum below the coldest line, where the T = 0 spectrum only has
    # Lorentzian tail leakage
    w = np.linspace(-3.0, 13.0, 801)
    warm = spectrum_finite_T(ThermalParams(0.5), both, w, eta=0.04)
    cold = spectrum_finite_T(ThermalParams(math.inf), both, w, eta=0.04)
    hot = int(np.argmin(np.abs(w - (-0.5))))
    assert warm[hot] > 10.0 * cold[hot]
    assert warm[hot] > 0.5
    cold_lines = spectrum_zero_T(both)
    assert min(ln.offset for ln in cold_lines) == pytest.approx(0.5, abs=1e-12)
    _report(9, "reference-figure shape checks", "period halving + hot bands")


def test_suite_runtime_budget():
    elapsed = time.perf_counter() - _T0
    assert elapsed < 100.0, f"acceptance module took {elapsed:.1f} s"
