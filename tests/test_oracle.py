"""Behavior of the truncated-basis reference machinery itself.

The point of these tests is that the reference is trustworthy: operators
have the right matrix elements, propagation is unitary, and truncation
contamination is detected instead of averaged away.
"""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from indiboson.analytic import (excited_mean_energy, excited_phonon_number, overlap,
                                spectrum_zero_T)
from indiboson.cli import build_run_config, main, parse_config_text
from indiboson.errors import OracleError, TruncationError
from indiboson.model import ModelParams, ThermalParams, derive_couplings
from indiboson.presets import preset_config, preset_names
from indiboson import oracle
from indiboson.oracle import (
    BUFFER_TOL,
    OracleState,
    Propagator,
    TruncatedBasis,
    build_excited_hamiltonian,
    destroy,
    excited_vacuum,
    franck_condon_weights,
    observable,
    thermal_correlation,
    thermal_line_list,
    vibrational_hamiltonian,
    window_broadened,
    _real_matvec,
    _refuse_leak,
    _thermal_weights,
)
from displaced import vacuum_expansion_linear  # the tests' displaced-vacuum reference
from nullvector import annihilator, null_vector  # the tests' excited-vacuum reference


def make(omega_g=1.0, omega_e=1.0, lam=0.0, eps_e=0.0):
    return derive_couplings(ModelParams.from_lambda_g(0.0, eps_e, omega_g, omega_e, lam))


# ---------------------------------------------------------------------------
# basis and operators


def test_basis_reserves_top_eighth_as_buffer():
    assert TruncatedBasis(16).buffer_start == 14
    assert TruncatedBasis(128).buffer_start == 112
    assert TruncatedBasis(7).buffer_start == 6
    with pytest.raises(ValueError, match="dim"):
        TruncatedBasis(1)
    with pytest.raises(ValueError, match="dim"):
        TruncatedBasis(2.5)


def test_destroy_matrix_elements():
    b = destroy(TruncatedBasis(5))
    for p in range(1, 5):
        assert b[p - 1, p] == pytest.approx(math.sqrt(p), rel=1e-15)
    assert np.count_nonzero(b) == 4


def test_uncoupled_hamiltonian_is_the_bare_ladder():
    c = make(eps_e=0.75)
    h = build_excited_hamiltonian(c, TruncatedBasis(6))
    expect = 0.75 + np.arange(6) + 0.5
    assert np.allclose(h, np.diag(expect), atol=1e-15)


@pytest.mark.parametrize("couplings", [
    dict(lam=1e16),  # the coupling vanishes below the rounding of the diagonal
])
def test_hamiltonian_beyond_float_resolution_is_refused(couplings):
    with pytest.raises(OracleError, match="cannot resolve the couplings"):
        Propagator.of(make(**couplings), TruncatedBasis(16))


def test_the_oracle_energy_origin_is_the_electronic_energy():
    # H_e - eps_e does not depend on eps_e, so neither does its eigenbasis
    basis = TruncatedBasis(64)
    near = Propagator.of(make(omega_e=1.5, lam=1.0), basis)
    far = Propagator.of(make(omega_e=1.5, lam=1.0, eps_e=1e8), basis)
    assert np.array_equal(far.energies, near.energies)
    assert np.array_equal(far.modes, near.modes)


def test_a_large_electronic_energy_is_served_within_validate_tolerances():
    # in the matrix, eps_e = 1e8 would put eps*max|H| at 2.2e-8, twice the
    # resolution limit
    c = make(lam=1.0, eps_e=1e8)
    prop = Propagator.of(c, TruncatedBasis(256))
    assert np.max(np.abs(prop.energies[:64] - c.omega_e * (np.arange(64) + 0.5))) <= 1e-8
    ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 160)
    assert np.max(np.abs(prop.return_amplitude(0, ts) - overlap(0, c, ts))) <= 1e-8
    energy = c.epsilon_e + prop.expectation(0, ts[::20], prop.hamiltonian)
    assert np.max(np.abs(energy - excited_mean_energy(0, c))) <= 1e-8 * abs(c.epsilon_e)


@pytest.mark.parametrize("couplings, dim", [
    (dict(lam=1.0, eps_e=1e7), 256),  # eps_e stays out of the matrix
    (dict(lam=4.0), 256),
    (dict(omega_e=1e2, lam=40.0), 512),  # the worst corner of test_extremes' box
])
def test_hamiltonian_within_float_resolution_is_built(couplings, dim):
    h = vibrational_hamiltonian(make(**couplings), TruncatedBasis(dim))
    assert h.shape == (dim, dim)


def test_eigenvalues_form_excited_ladder():
    # interior eigenvalues must be eps_e + omega_e*(n + 1/2) despite the
    # Hamiltonian being assembled in the ground basis
    c = make(omega_e=2.0, lam=1.0, eps_e=0.3)
    basis = TruncatedBasis(96)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    expect = 0.3 + 2.0 * (np.arange(24) + 0.5)
    assert np.max(np.abs(prop.energies[:24] - expect)) < 1e-9


# ---------------------------------------------------------------------------
# states and propagation


def test_number_state_and_norm_guard():
    basis = TruncatedBasis(8)
    s = OracleState.number_state(basis, 3)
    assert s.amplitudes[3] == 1.0
    with pytest.raises(ValueError, match="norm"):
        OracleState(np.ones(8), basis)
    with pytest.raises(ValueError, match="p must lie"):
        OracleState.number_state(basis, 8)


def test_state_is_a_read_only_copy_of_its_input():
    basis = TruncatedBasis(8)
    amps = np.zeros(8, dtype=complex)
    amps[2] = 1.0
    for given in (amps, amps.real):
        state = OracleState(given, basis)
        assert given.flags.writeable and not np.shares_memory(given, state.amplitudes)
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[2] = 0.5
    amps[2], amps[3] = 0.6, 0.8  # the caller's array stays the caller's
    assert state.amplitudes[2] == 1.0 and state.amplitudes[3] == 0.0
    frozen = np.ones(8, dtype=complex) / math.sqrt(8.0)
    frozen.flags.writeable = False
    assert not np.shares_memory(frozen, OracleState(frozen, basis).amplitudes)


def test_evolve_matches_a_fresh_propagator_whatever_it_evolved_before(mixed):
    basis = TruncatedBasis(128)
    h = build_excited_hamiltonian(mixed, basis)
    prop = Propagator(h, basis)
    a = OracleState.number_state(basis, 2)
    b = OracleState(np.sqrt(0.5) * (np.eye(128)[1] + 1j * np.eye(128)[4]), basis)
    twin = OracleState(a.amplitudes, basis)  # A's values in a new state
    for state in (a, b, a, twin, b):
        fresh = Propagator(h, basis)
        assert np.array_equal(fresh.modes, prop.modes)
        for t in (0.0, 0.9, 3.1):
            got = prop.evolve(state, t).amplitudes
            assert np.array_equal(got, fresh.evolve(state, t).amplitudes)


def test_propagation_is_unitary_and_returns_home():
    # truncation-edge leakage from |1> sits near 1e-6 at dim 64, so give
    # the buffer guard real headroom
    c = make(omega_e=2.0, lam=1.0)
    basis = TruncatedBasis(128)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    state = OracleState.number_state(basis, 1)
    out = prop.evolve(state, 2.31)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # one full mode period of the excited surface restores the populations
    back = prop.evolve(state, 2.0 * math.pi / c.omega_e)
    assert np.allclose(np.abs(back.amplitudes), np.abs(state.amplitudes), atol=1e-9)


def test_return_amplitude_agrees_with_explicit_evolution():
    c = make(omega_e=2.0, lam=1.0, eps_e=0.4)
    basis = TruncatedBasis(96)
    h = build_excited_hamiltonian(c, basis)
    prop = Propagator(h, basis)
    ts = np.array([0.0, 0.6, 1.9])
    amp = prop.return_amplitude(2, ts, energy_offset=c.epsilon_e)
    for k, t in enumerate(ts):
        state = Propagator(h, basis).evolve(OracleState.number_state(basis, 2), t)
        direct = state.amplitudes[2] * np.exp(1j * c.epsilon_e * t)
        assert amp[k] == pytest.approx(direct, abs=1e-12)


def test_return_amplitude_refuses_levels_outside_the_trusted_basis():
    c = make(omega_e=1.7, lam=0.5)
    basis = TruncatedBasis(16)  # buffer starts at level 14
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    # level 13 lies below the buffer, but its eigenstates put 0.27 of their
    # weight in it; 128 levels hold them (8e-15)
    with pytest.raises(TruncationError, match=r"p=13 put weighted buffer population 2\.669e-01"):
        prop.return_amplitude(13, [0.0])
    wide = TruncatedBasis(128)
    amp = Propagator(build_excited_hamiltonian(c, wide), wide).return_amplitude(13, [0.0])
    assert amp[0] == pytest.approx(1.0, abs=1e-12)
    for p in (14, 15, 16):
        with pytest.raises(TruncationError, match=f"level p={p} .* increase the basis"):
            prop.return_amplitude(p, [0.0])
    with pytest.raises(ValueError, match="p must be >= 0"):
        prop.return_amplitude(-1, [0.0])


@pytest.mark.parametrize("ratio, lam, p", [(0.5, 1.5, 0), (2.0, 1.0, 3), (1.3, 0.0, 3),
                                           (0.7, 0.8, 1)])
def test_excited_mode_occupation_and_energy_are_conserved_at_unequal_frequencies(
        ratio, lam, p):
    # H_e = epsilon_e + omega_e (B^dag B + 1/2) with
    # B = gamma_plus b + gamma_minus b^dag - lambda_e, at every coupling
    c = make(omega_e=ratio, lam=lam, eps_e=0.7)
    basis = TruncatedBasis(256)
    b = destroy(basis)
    big_b = c.gamma_plus * b + c.gamma_minus * b.T - c.lambda_e * np.eye(basis.dim)
    occupation = big_b.T @ big_b
    h = build_excited_hamiltonian(c, basis)
    prop = Propagator(h, basis)
    state = OracleState.number_state(basis, p)
    n_e, energy = excited_phonon_number(p, c), excited_mean_energy(p, c)
    for t in np.linspace(0.0, 4.0 * math.pi / c.omega_e, 9):
        evolved = prop.evolve(state, t)
        assert abs(observable(evolved, occupation) - n_e) <= 1e-12
        assert abs(observable(evolved, h) - energy) <= 1e-12


def test_buffer_contamination_raises():
    # lambda = 2 pushes ~16 quanta of excursion into a 12-level box
    c = make(lam=2.0)
    basis = TruncatedBasis(12)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    with pytest.raises(TruncationError, match="buffer"):
        prop.evolve(OracleState.number_state(basis, 0), math.pi)


@pytest.mark.parametrize("p", [0, 5])
@pytest.mark.parametrize("setup", ["displaced", "squeezed", "mixed"])
def test_expectation_equals_per_time_observables(setup, p, request):
    c = request.getfixturevalue(setup)
    basis = TruncatedBasis(128)
    h = build_excited_hamiltonian(c, basis)
    prop = Propagator(h, basis)
    ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 41)
    number = np.arange(basis.dim, dtype=float)
    b = destroy(basis)
    state = OracleState.number_state(basis, p)
    # a diagonal given as a vector, and two dense ops
    for op, dense in ((number, np.diag(number)), (h, h), (b + b.T, b + b.T)):
        got = prop.expectation(p, ts, op)
        ref = np.array([observable(prop.evolve(state, t), dense) for t in ts])
        assert got.shape == ts.shape
        assert np.max(np.abs(got - ref)) <= 1e-13


def test_expectation_refuses_a_buffer_crossing_at_any_time():
    # lambda = 2 pushes ~16 quanta of excursion into a 12-level box
    c = make(lam=2.0)
    basis = TruncatedBasis(12)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    state = OracleState.number_state(basis, 0)
    number = np.arange(12.0)
    ts = np.linspace(0.0, math.pi, 25)
    crossed = []
    for t in ts:  # Propagator.evolve is the per-time reference
        try:
            prop.evolve(state, t)
            crossed.append(False)
        except TruncationError:
            crossed.append(True)
    assert not crossed[0] and crossed[-1]
    for t, bad in zip(ts, crossed):
        if bad:
            with pytest.raises(TruncationError, match=r"evolved state put weighted buffer "
                                                      r"population .* \(dim=12\); "
                                                      r"increase the basis"):
                prop.expectation(0, [0.0, t, 0.0], number)
        else:
            assert prop.expectation(0, [t], number)[0] == pytest.approx(
                observable(prop.evolve(state, t), np.diag(number)), abs=1e-13)
    for p in (11, 12, 40):  # in the buffer (from 11), or past the basis
        with pytest.raises(TruncationError, match=f"level p={p} lies in the truncation buffer"):
            prop.expectation(p, [0.0], number)
    with pytest.raises(ValueError, match="p must be >= 0"):
        prop.expectation(-1, [0.0], number)
    with pytest.raises(ValueError, match="operator is complex"):
        prop.expectation(0, [0.0], number.astype(complex))
    # the operators observable refuses: a NaN on a diagonal given as a vector,
    # and an asymmetric matrix
    nan_diagonal = number.copy()
    nan_diagonal[5] = math.nan
    with pytest.raises(ValueError, match="operator is not finite"):
        prop.expectation(0, [0.0], nan_diagonal)
    asym = np.diag(number)
    asym[0, 1] = 5.0
    with pytest.raises(ValueError, match="operator is not Hermitian"):
        prop.expectation(0, [0.0], asym)


def test_observable_guards():
    basis = TruncatedBasis(4)
    state = OracleState.number_state(basis, 2)
    num = np.diag(np.arange(4.0))
    assert observable(state, num) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError, match="Hermitian"):
        observable(state, destroy(basis))
    # a complex operator is refused before any other check, even a
    # Hermitian one such as the momentum i(b^dag - b)
    b = destroy(basis)
    for op in (num + 1j * num, 1j * (b.T - b), num.astype(complex)):
        with pytest.raises(ValueError, match="operator is complex"):
            observable(state, op)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_observable_rejects_non_finite_operators(bad, dtype):
    basis = TruncatedBasis(6)
    state = OracleState.number_state(basis, 1)
    op = np.diag(np.arange(6.0)).astype(dtype)
    op[5, 5] = bad  # off the state's support
    # a complex operator is refused as complex, whatever its entries
    match = "operator is complex" if dtype is complex else "not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            observable(state, op)
        op[5, 5] = 0.0
        op[4, 3] = op[3, 4] = bad  # symmetric and off the diagonal
        with pytest.raises(ValueError, match=match):
            observable(state, op)
    amps = state.amplitudes.copy()
    amps[0] = math.nan
    with pytest.raises(ValueError, match="norm"):
        OracleState(amps, basis)


# ---------------------------------------------------------------------------
# observable's one-read check of a diagonal operator


def _diagonal_setup():
    """A random state with levels 6 and 7 empty, and a positive diagonal."""
    basis = TruncatedBasis(8)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps[6:] = 0.0
    return OracleState(amps / np.linalg.norm(amps), basis), rng.uniform(0.5, 3.0, size=8)


def test_observable_of_a_diagonal_operator_is_a_weighted_population():
    state, d = _diagonal_setup()
    op = np.diag(d)
    value = observable(state, op)
    want = math.fsum(d * np.abs(state.amplitudes) ** 2)
    assert abs(value - want) <= 1e-15 * want
    # a symmetric entry between the two empty levels adds nothing to the
    # value but sends the op through the full op - op.T check
    dense = op.copy()
    dense[6, 7] = dense[7, 6] = 1.0
    assert abs(observable(state, dense) - value) <= 1e-15 * value
    layouts = {"fortran": np.asfortranarray(op), "transposed view": dense.T}
    for name, view in layouts.items():
        assert abs(observable(state, view) - value) <= 1e-15 * value, name
    with pytest.raises(ValueError, match="operator is complex"):
        observable(state, op.astype(complex))


def test_diagonal_operator_value_equals_the_dense_product_bitwise():
    basis = TruncatedBasis(256)
    rng = np.random.default_rng(5)
    for seed in range(10):
        a = _random_state(basis, seed)
        state = OracleState(a, basis)
        for op in (np.diag(np.arange(256.0)), np.diag(rng.uniform(-3.0, 3.0, 256))):
            value = observable(state, op)
            assert value == complex(np.vdot(a, op @ a)).real
            assert value == complex(np.vdot(a, _real_matvec(op, a))).real


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("entry, accepted", [
    (math.nan, False), (math.inf, False), (-math.inf, False), (-0.0, True), (5e-324, True),
])
def test_observable_off_diagonal_special_values(entry, accepted, symmetric):
    state, d = _diagonal_setup()
    op = np.diag(d)
    op[1, 4] = entry
    if symmetric:
        op[4, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if accepted:
            want = observable(state, np.diag(d))
            assert observable(state, op) == pytest.approx(want, rel=1e-15)
        else:
            with pytest.raises(ValueError, match="not finite"):
                observable(state, op)


def test_observable_rejects_asymmetric_operators_in_any_layout():
    state, d = _diagonal_setup()
    lone = np.zeros((8, 8))
    lone[0, 3] = 1.0  # the only nonzero entry, off the diagonal
    upper = np.diag(d)
    upper[2, 5] = 0.5
    for op in (lone, upper, destroy(state.basis)):
        for view in (op, np.asfortranarray(op), op.T):
            with pytest.raises(ValueError, match="Hermitian"):
                observable(state, view)
        with pytest.raises(ValueError, match="operator is complex"):
            observable(state, op.astype(complex))


@pytest.mark.parametrize("shape", [(8, 9), (7, 8)])
def test_observable_rejects_non_square_operators(shape):
    state, _ = _diagonal_setup()
    with pytest.raises(ValueError, match="broadcast"):
        observable(state, np.zeros(shape))


# ---------------------------------------------------------------------------
# real arithmetic on the real eigenbasis


def _random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return amps / np.linalg.norm(amps)


def _eigenbasis_product(prop, a, t):
    """The real eigenbasis product behind Propagator.evolve, without its
    buffer guard: a random state always fills the buffer."""
    phases = np.exp(-1j * prop.energies * t)
    return _real_matvec(prop.modes, phases * _real_matvec(prop.modes.T, a))


@pytest.mark.parametrize("dim", [64, 256])
@pytest.mark.parametrize("setup", ["displaced", "squeezed", "mixed"])
def test_real_arithmetic_equals_complex_promotion(setup, dim, request):
    c = request.getfixturevalue(setup)
    basis = TruncatedBasis(dim)
    h = build_excited_hamiltonian(c, basis)
    prop = Propagator(h, basis)
    modes = prop.modes.astype(complex)
    b = destroy(basis)
    ops = [np.diag(np.arange(dim, dtype=float)), h, b + b.T]
    # the buffer guard is about physics; here only the arithmetic is compared
    starts = [OracleState.number_state(basis, 3).amplitudes, _random_state(basis, dim)]
    for a in starts:
        for t in (0.0, 0.37, 2.9, 11.0):
            phases = np.exp(-1j * prop.energies * t)
            expect = modes @ (phases * (modes.T @ a))
            got = _eigenbasis_product(prop, a, t)
            assert np.max(np.abs(got - expect)) <= 1e-13
            if OracleState(got, basis).buffer_population <= BUFFER_TOL:
                evolved = prop.evolve(OracleState(a, basis), t).amplitudes
                assert np.array_equal(evolved, got)
            for op in ops:
                ref = complex(np.vdot(got, op.astype(complex) @ got)).real
                value = observable(OracleState(got, basis), op)
                assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))


def test_real_arithmetic_accepts_any_complex_vector(mixed):
    basis = TruncatedBasis(64)
    prop = Propagator(build_excited_hamiltonian(mixed, basis), basis)
    a = _random_state(basis, 7)
    num = np.diag(np.arange(64.0))
    expect = _eigenbasis_product(prop, a, 1.3)
    ref = observable(OracleState(a, basis), num)

    strided = np.zeros(3 * basis.dim, dtype=complex)
    strided[::3] = a
    reversed_ = np.ascontiguousarray(a[::-1])[::-1]
    column = np.zeros((basis.dim, 2), dtype=complex)
    column[:, 1] = a
    offset = np.concatenate([[0.5j], a])[1:]
    frozen = a.copy()
    frozen.setflags(write=False)
    views = {"strided": strided[::3], "reversed": reversed_, "column": column[:, 1],
             "offset": offset, "read-only": frozen}
    for name, view in views.items():
        assert np.array_equal(view, a), name
        state = OracleState(view, basis)
        got = _eigenbasis_product(prop, state.amplitudes, 1.3)
        assert np.max(np.abs(got - expect)) <= 1e-15, name
        assert observable(state, num) == pytest.approx(ref, abs=1e-13), name
        assert np.array_equal(view, a), name  # the input is never written


# ---------------------------------------------------------------------------
# excited vacuum


def test_excited_vacuum_matches_displacement_closed_form():
    c = make(lam=1.0)
    state = excited_vacuum(c, TruncatedBasis(48))
    expect = vacuum_expansion_linear(1.0, 47)
    assert np.max(np.abs(state.amplitudes.real - expect)) < 1e-12
    assert np.max(np.abs(state.amplitudes.imag)) == 0.0
    assert state.amplitudes[0].real > 0.0


def test_excited_vacuum_of_squeeze_has_even_parity():
    c = make(omega_e=2.0)
    state = excited_vacuum(c, TruncatedBasis(32))
    assert np.max(np.abs(state.amplitudes[1::2])) < 1e-13
    num = np.diag(np.arange(32.0))
    assert observable(state, num) == pytest.approx(0.125, abs=1e-10)


def test_excited_vacuum_rejects_undersized_basis():
    with pytest.raises(TruncationError):
        excited_vacuum(make(lam=3.0), TruncatedBasis(12))


# the presets at 128 levels, and a soft, strongly displaced set at 256
VACUUM_SETS = [pytest.param(derive_couplings(build_run_config(preset_config(name)).params),
                            128, id=name) for name in preset_names()]
VACUUM_SETS.append(pytest.param(make(omega_e=0.5, lam=3.0), 256, id="soft-displaced"))


@pytest.mark.parametrize("c, dim", VACUUM_SETS)
def test_excited_vacuum_is_the_null_vector_of_the_annihilator(c, dim):
    # the eigenbasis route against the SVD route, which never calls eigh
    amps = excited_vacuum(c, TruncatedBasis(dim)).amplitudes
    assert np.max(np.abs(amps - null_vector(c, dim))) <= 1e-12


@pytest.mark.parametrize("c, dim", VACUUM_SETS)
def test_the_annihilator_leaves_the_excited_vacuum_off_the_buffer(c, dim):
    # B v vanishes wherever B's rows do not reach the truncated level
    basis = TruncatedBasis(dim)
    amps = excited_vacuum(c, basis).amplitudes
    assert np.max(np.abs(annihilator(c, dim) @ amps)[: basis.buffer_start]) <= 1e-12


# ---------------------------------------------------------------------------
# thermal reference


def test_thermal_correlation_starts_near_one_and_matches_closed_form():
    from indiboson.analytic import correlation

    c = make(lam=1.0)
    th = ThermalParams(1.0)
    basis = TruncatedBasis(96)
    ts = np.linspace(0.0, 4.0 * math.pi, 25)
    g = thermal_correlation(th, c, basis, ts)
    # weights below the 1e-12 floor are dropped, so G(0) is 1 minus dust
    assert abs(g[0] - 1.0) < 5e-12
    assert g == pytest.approx(correlation(th, c, ts), abs=1e-9)


# omega_e/omega_g = 0.5, lambda_g = 5, beta*omega_g = 1: at 256 levels the
# thermal mixture passes BUFFER_TOL at few of the CLI's 400 times and at
# none of every eighth (1.8e-10 at most there, 1.6e-8 at the worst time),
# so a check on sampled times would miss it
BETWEEN_SAMPLES = "omega_g = 1\nomega_e = 0.5\nlambda_g = 5\nbeta = 1\n"


def _per_time_mixture_buffer(prop, weights, ts):
    """Buffer population of sum_p w_p |p><p| evolved to each t, one time at
    a time: sum_p w_p sum_{k in buffer} |<k| e^{-iHt} |p>|**2."""
    v_buf = prop.modes[prop.basis.buffer_start :]
    v_p = prop.modes[: weights.size]
    return np.array([
        weights @ np.sum(np.abs((v_buf * np.exp(-1j * prop.energies * t)) @ v_p.T) ** 2, axis=0)
        for t in ts
    ])


@pytest.mark.parametrize("source", [*preset_names(),
                                    "omega_g = 1\nomega_e = 1\nlambda_g = 4\nbeta = 2\n",
                                    BETWEEN_SAMPLES])
def test_thermal_buffer_population_is_exact_at_every_time(source):
    raw = preset_config(source) if source in preset_names() else parse_config_text(source)
    cfg = build_run_config(raw)
    c = derive_couplings(cfg.params)
    prop = Propagator.of(c, TruncatedBasis(256))
    weights = _thermal_weights(cfg.thermal, c, prop.basis)
    ts = cfg.times()
    # a common phase cancels, so the phases may carry any energy offset
    got = prop._mixture_buffer(weights, np.exp(-1j * np.outer(prop.energies - 0.3, ts)))
    ref = _per_time_mixture_buffer(prop, weights, ts)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_thermal_correlation_refuses_a_crossing_between_samples(tmp_path, capsys):
    cfg = tmp_path / "between.cfg"
    cfg.write_text(BETWEEN_SAMPLES)
    assert main(["correlation", "--config", str(cfg), "--oracle"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(r"thermal mixture put weighted buffer population 1\.6\d\de-08 ", err)
    assert main(["validate", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if " FAIL  " in line]
    assert len(rows) == 1 and rows[0].startswith("thermal_correlation    config ")
    assert "FAIL  [TruncationError: the thermal mixture put weighted buffer population" in rows[0]
    assert out.splitlines()[-1] == "overall: FAIL (oracle dim 256)"


@pytest.mark.parametrize("path, coupling, dim, what", [
    # lambda = 2 pushes ~16 quanta of excursion into a 12-level box
    ("evolve", dict(lam=2.0), 12, "the evolved state"),
    ("expectation", dict(lam=2.0), 12, "the evolved state"),
    ("thermal_correlation", dict(lam=2.0), 12, "the thermal mixture"),
    ("excited_vacuum", dict(lam=2.0), 12, "the excited vacuum"),
    ("return_amplitude", dict(omega_e=1.7, lam=0.5), 16, "the eigenstates of level p=13"),
    ("franck_condon_weights", dict(omega_e=1.5, lam=6.0), 128, "line weights"),
])
def test_every_buffer_refusal_shares_one_wording(path, coupling, dim, what):
    c = make(**coupling)
    basis = TruncatedBasis(dim)
    prop = Propagator.of(c, basis)
    calls = {
        "evolve": lambda: prop.evolve(OracleState.number_state(basis, 0), math.pi),
        "expectation": lambda: prop.expectation(0, [0.0, math.pi], np.arange(dim, dtype=float)),
        "thermal_correlation": lambda: prop.thermal_correlation(ThermalParams(5.0), c,
                                                                [0.0, math.pi]),
        "excited_vacuum": lambda: excited_vacuum(c, basis),
        "return_amplitude": lambda: prop.return_amplitude(13, [0.0]),
        "franck_condon_weights": lambda: prop.franck_condon_weights(60),
    }
    wording = (rf"^{re.escape(what)} put weighted buffer population \d\.\d{{3}}e[-+]\d\d "
               rf"past the basis edge \(dim={dim}\); increase the basis$")
    with pytest.raises(TruncationError, match=wording):
        calls[path]()


def test_a_nan_buffer_population_is_refused():
    with pytest.raises(TruncationError, match="population nan past the basis edge"):
        _refuse_leak(math.nan, "the evolved state", TruncatedBasis(8))


def test_thermal_weights_overflow_small_basis():
    c = make(lam=0.5)
    with pytest.raises(TruncationError, match="levels"):
        thermal_correlation(ThermalParams(0.01), c, TruncatedBasis(32), [0.0])


def test_thermal_weights_refuse_a_ground_level_below_the_floor():
    # at beta*omega_g = 1e-13 even the ground weight 1 - e^{-beta omega_g}
    # is below 1e-12: no level is kept, which would give G(0) = 0 and an
    # empty line list instead of a refusal
    c = make(omega_e=2.0, lam=1.0)
    th = ThermalParams(1e-13)
    with pytest.raises(TruncationError, match="ground level"):
        thermal_correlation(th, c, TruncatedBasis(64), [0.0])
    with pytest.raises(TruncationError, match="ground level"):
        thermal_line_list(th, c, TruncatedBasis(64))


def test_franck_condon_weights_are_poisson_for_pure_displacement():
    c = make(lam=1.0)
    w = franck_condon_weights(c, TruncatedBasis(64), 12)
    expect = 2.0 * math.pi * np.exp(-1.0) / np.array(
        [math.factorial(n) for n in range(12)], dtype=float
    )
    assert np.max(np.abs(w - expect)) < 1e-10
    with pytest.raises(TruncationError, match="count"):
        franck_condon_weights(c, TruncatedBasis(8), 9)


@pytest.mark.parametrize("ratio, lam", [(1.5, 6.0), (2.0, 5.0)])
def test_franck_condon_weights_check_their_buffer(tmp_path, capsys, ratio, lam):
    # at dim 128 these lists lean on eigenstates that live in the buffer
    # (one printed weight of the first was off by 0.248), and both have
    # more lines than the levels below the buffer
    c = make(omega_e=ratio, lam=lam)
    count = len(spectrum_zero_T(c))
    with pytest.raises(TruncationError, match="weighted buffer population"):
        franck_condon_weights(c, TruncatedBasis(128), 60)
    with pytest.raises(TruncationError, match=f"count={count}"):
        franck_condon_weights(c, TruncatedBasis(128), count)
    assert franck_condon_weights(c, TruncatedBasis(512), count).shape == (count,)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"omega_g = 1\nomega_e = {ratio}\nlambda_g = {lam}\nbeta = inf\n")
    assert main(["spectrum", "--config", str(cfg), "--oracle"]) == 3
    assert "increase the basis" in capsys.readouterr().err


def test_oracle_imports_nothing_from_analytic():
    # the split: no formula and no container crosses from analytic
    names = []
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.extend(alias.name for alias in node.names)
    assert names and not [name for name in names if "analytic" in name]


def test_thermal_line_list_is_the_pruned_double_loop():
    # the masked product keeps the lines, their order (ground level, then
    # eigenstate) and their bits of one loop over every transition
    c = make(omega_e=2.0, lam=1.0)
    th, basis = ThermalParams(0.5), TruncatedBasis(64)
    prop = Propagator.of(c, basis)
    want = []
    for p, w_p in enumerate(_thermal_weights(th, c, basis)):
        amps = prop.modes[p, :] ** 2
        want += [(prop.energies[n] - c.omega_g * (p + 0.5), 2.0 * np.pi * (w_p * amps[n]))
                 for n in range(basis.dim) if w_p * amps[n] >= 1e-12]
    got = thermal_line_list(th, c, basis)
    assert len(want) < 5000  # pruned: not every transition
    assert [(ln.offset, ln.weight) for ln in got] == want


def test_cold_line_list_agrees_with_analytic_lines():
    # at T = 0 only p = 0 contributes, so the list must reduce to the
    # analytic vacuum line list; index lines by their ladder position to
    # stay independent of pruning order
    c = make(omega_e=2.0, lam=1.0)
    ref = thermal_line_list(ThermalParams(math.inf), c, TruncatedBasis(128))
    got = {round((ln.offset - 0.5) / c.omega_e): ln for ln in ref}
    for n, want in enumerate(spectrum_zero_T(c)):
        if want.weight / (2.0 * math.pi) < 1e-8:
            continue
        assert got[n].offset == pytest.approx(want.offset, abs=1e-8)
        assert got[n].weight == pytest.approx(want.weight, abs=1e-8)


def test_window_broadened_line_shape():
    # at its own offset a line's window integrates to 2*(1 - e^{-eta T})/eta;
    # off the line it approaches the Lorentzian as the window lengthens
    lines = np.rec.fromarrays([[0.5], [2.0 * math.pi]], names="offset,weight")
    a = window_broadened([0.5, 0.8], lines, eta=0.1, t_max=80.0)
    assert a[0] == pytest.approx(2.0 * (1.0 - math.exp(-8.0)) / 0.1, rel=1e-12)
    long = window_broadened([0.8], lines, eta=0.1, t_max=800.0)
    assert long[0] == pytest.approx(2.0 * 0.1 / (0.3**2 + 0.1**2), rel=1e-12)
    assert abs(a[1] - long[0]) < 2.0 * math.exp(-8.0) / 0.1
