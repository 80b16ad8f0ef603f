"""Closed forms against the truncated-basis reference, one row per check.

Each parameter set gets the same table of checks: algebraic identities,
the eigenvalue ladder, vacuum occupation, return amplitudes, phonon
numbers, thermal correlation, the zero-temperature line list, and (for
equal frequencies) energy conservation and the displaced-state identity.
Each check returns its analytic and reference samples; one reducer turns
them into a row that reports the worst sample, and turns a numerical
failure inside the check into a failed row, so one bad configuration
cannot hide the rest of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .analytic import (
    correlation,
    excited_mean_energy,
    overlap,
    phonon_number,
    spectrum_zero_T,
    vacuum_ground_phonon_number,
)
from .model import ModelParams, ThermalParams, derive_couplings, time_coeffs
from .oracle import (
    OracleState,
    Propagator,
    TruncatedBasis,
    build_excited_hamiltonian,
    destroy,
    excited_vacuum,
    observable,
)

__all__ = ["THERMAL_ORACLE_DIM", "ValidationRow", "ValidationReport", "run_validation"]

# Thermal comparisons need the deeper basis: Boltzmann tails at the preset
# temperatures reach p ~ 54 and a 128-level basis contaminates the sum at
# the 3e-6 level, above the 1e-6 contract. Every thermal oracle of the
# command line uses this many levels unless an oracle_dim key pins them.
THERMAL_ORACLE_DIM = 256


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


@dataclass(frozen=True)
class ValidationRow:
    check: str
    label: str
    analytic: float
    reference: float
    diff: float
    tol: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple
    oracle_dim: int
    thermal_dim: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_text(self) -> str:
        head = (
            f"{'check':<22} {'set':<16} {'analytic':>18} {'reference':>18} "
            f"{'|diff|':>10} {'tol':>8}  status"
        )
        lines = [head, "-" * len(head)]
        for r in self.rows:
            status = "pass" if r.passed else "FAIL"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(
                f"{r.check:<22} {r.label:<16} {r.analytic:>18.11g} "
                f"{r.reference:>18.11g} {r.diff:>10.3e} {r.tol:>8.0e}  {status}{note}"
            )
        verdict = "PASS" if self.all_passed else "FAIL"
        lines.append(
            f"overall: {verdict} "
            f"(oracle dim {self.oracle_dim}, thermal dim {self.thermal_dim})"
        )
        return "\n".join(lines)

    def columns(self) -> dict:
        return {
            "check": [r.check for r in self.rows],
            "set": [r.label for r in self.rows],
            "analytic": [r.analytic for r in self.rows],
            "reference": [r.reference for r in self.rows],
            "diff": [r.diff for r in self.rows],
            "tolerance": [r.tol for r in self.rows],
            "status": ["pass" if r.passed else "fail" for r in self.rows],
            "note": [r.note for r in self.rows],
        }


def _row(check: str, label: str, tol: float, fn) -> ValidationRow:
    """One table row from ``fn() -> (analytic, reference, note)``.

    The two sides are scalars or arrays that broadcast together; the row
    reports the first sample with the largest |analytic - reference|,
    complex samples as magnitudes, and passes when that difference is at
    most ``tol`` (a NaN fails). A numerical failure inside the check
    becomes a failed row whose note is ``Type: message``.
    """
    try:
        analytic, reference, note = fn()
        ana, ref = (np.ravel(x) for x in np.broadcast_arrays(analytic, reference))
        diffs = np.abs(ana - ref)
        k = int(np.argmax(diffs))  # the first maximum; a NaN counts as one
    except (RuntimeError, ValueError) as exc:  # every numerical error of the package
        return ValidationRow(check, label, math.nan, math.nan, math.nan, tol, False,
                             f"{type(exc).__name__}: {exc}")
    a, r = (float(abs(x[k]) if np.iscomplexobj(x) else x[k]) for x in (ana, ref))
    return ValidationRow(check, label, a, r, float(diffs[k]), tol, bool(diffs[k] <= tol), note)


def _rows_for(label: str, params: ModelParams, beta: float, p0: int,
              dim: int, thermal_dim: int) -> list[ValidationRow]:
    c = derive_couplings(params)
    th = ThermalParams(beta)
    ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 160)
    basis = TruncatedBasis(dim)
    number = np.diag(np.arange(dim, dtype=float))

    @cache
    def oracle(size):
        # one diagonalisation per parameter set and basis size; a failure
        # here raises inside each row that asks, as that row's failure
        sized = TruncatedBasis(size)
        h = build_excited_hamiltonian(c, sized)
        return h, Propagator(h, sized)

    @cache
    def zero_T_lines():  # one line list per parameter set, like oracle()
        return spectrum_zero_T(c)

    def evolved(op, times):
        """<op> in number state p0 evolved by the oracle to each time."""
        prop = oracle(dim)[1]
        state = OracleState.number_state(basis, p0)
        return np.array([observable(prop.evolve(state, t), op) for t in times])

    def coeff_identity():
        tc = time_coeffs(c, ts)
        return np.abs(tc.d_tilde_prime) ** 2 - np.abs(tc.q_tilde_prime) ** 2, 1.0, ""

    def ladder():
        n_chk = max(2, dim // 4)
        expected = c.epsilon_e + c.omega_e * (np.arange(n_chk) + 0.5)
        return expected, oracle(dim)[1].energies[:n_chk], f"n <= {n_chk - 1}"

    def return_amplitude():
        ref = oracle(dim)[1].return_amplitude(p0, ts, energy_offset=c.epsilon_e)
        return overlap(p0, c, ts), ref, f"p={p0}, {ts.size} times"

    def thermal():
        ref = oracle(thermal_dim)[1].thermal_correlation(th, c, ts)
        return correlation(th, c, ts), ref, f"dim={thermal_dim}"

    def line_weights():
        lst = zero_T_lines()
        count = min(len(lst), basis.buffer_start)
        ref = oracle(dim)[1].franck_condon_weights(count)
        note = f"{count} lines" + ("" if count == len(lst) else f" of {len(lst)}")
        return lst.weight[:count], ref, note

    equal_frequency_checks = [
        ("excited_energy", 1e-8,
         lambda: (excited_mean_energy(p0, c), evolved(oracle(dim)[0], ts[::20]), "conserved")),
        ("polaron_identity", 1e-8,
         lambda: (polaron_state_check(c.lambda_g, 3, dim), 0.0, f"p <= 3, dim {dim}")),
    ]
    checks = [
        ("coupling_identity", 1e-12, lambda: (c.gamma_plus**2 - c.gamma_minus**2, 1.0, "")),
        ("evolved_op_identity", 1e-12, coeff_identity),
        ("eigenvalue_ladder", 1e-8, ladder),
        ("vacuum_phonons", 1e-8, lambda: (vacuum_ground_phonon_number(c),
                                          observable(excited_vacuum(c, basis), number), "")),
        ("return_amplitude", 1e-8 if c.equal_frequencies else 1e-6, return_amplitude),
        ("phonon_number", 1e-7,
         lambda: (phonon_number(p0, c, ts[::4]), evolved(number, ts[::4]), f"p={p0}")),
        *(equal_frequency_checks if c.equal_frequencies else []),
        ("thermal_correlation", 1e-6, thermal),
        ("line_weights", 1e-8, line_weights),
        # sequential, not numpy's pairwise sum
        ("line_sum_rule", 1e-9, lambda: (sum(zero_T_lines().weight), 2.0 * math.pi, "")),
    ]
    return [_row(check, label, tol, fn) for check, tol, fn in checks]


def run_validation(specs, oracle_dim: int, thermal_dim: int) -> ValidationReport:
    """Run the full battery for each (label, params, beta, initial_p) spec.

    ``oracle_dim`` is used everywhere except the thermal row, which uses
    ``thermal_dim`` levels (failures included, if that is too few).
    """
    rows: list[ValidationRow] = []
    for label, params, beta, p0 in specs:
        rows.extend(_rows_for(label, params, beta, p0, oracle_dim, thermal_dim))
    return ValidationReport(rows=tuple(rows), oracle_dim=oracle_dim,
                            thermal_dim=thermal_dim)
