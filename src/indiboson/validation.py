"""Closed forms against the truncated-basis reference, one row per check.

Each parameter set gets the same battery: algebraic identities, the
eigenvalue ladder, vacuum occupation, return amplitudes, phonon numbers,
thermal correlation, the zero-temperature line list, and (for equal
frequencies) energy conservation and the displaced-state identity.
Failures inside a check are caught and reported as failed rows so one
bad configuration cannot hide the rest of the table.
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
from .errors import TruncationError
from .model import ModelParams, ThermalParams, derive_couplings, time_coeffs
from .oracle import (
    OracleState,
    Propagator,
    TruncatedBasis,
    build_excited_hamiltonian,
    excited_vacuum,
    franck_condon_weights,
    observable,
    thermal_correlation,
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


def polaron_state_check(lam: float, p_max: int, dim: int = 60) -> float:
    """Largest residual of the displaced-mode identity over the levels
    p = 0..p_max in a truncated basis.

    Applying the displacement exp(lam*(b^dag - b)) to ground number state
    p must equal building the p-th excited number state from the displaced
    vacuum with the shifted creation operator (b^dag - lam)/sqrt(p!).
    Each residual is the 2-norm of the difference; truncation noise only.
    """
    if dim < p_max + 2:
        raise ValueError(f"dim must exceed p + 1, got dim={dim}, p={p_max}")
    b = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
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


def _rows_for(label: str, params: ModelParams, beta: float, p0: int,
              dim: int, thermal_dim: int) -> list[ValidationRow]:
    c = derive_couplings(params)
    th = ThermalParams(beta)
    ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 160)
    rows: list[ValidationRow] = []

    def guarded(check: str, tol: float, fn):
        try:
            analytic, reference, diff, note = fn()
            rows.append(
                ValidationRow(check, label, float(analytic), float(reference),
                              float(diff), tol, float(diff) <= tol, note)
            )
        except (TruncationError, RuntimeError, ValueError) as exc:
            rows.append(
                ValidationRow(check, label, math.nan, math.nan, math.nan, tol,
                              False, f"{type(exc).__name__}: {exc}")
            )

    def coupling_identity():
        val = c.gamma_plus**2 - c.gamma_minus**2
        return val, 1.0, abs(val - 1.0), ""

    guarded("coupling_identity", 1e-12, coupling_identity)

    def coeff_identity():
        tc = time_coeffs(c, ts)
        ident = np.abs(tc.d_tilde_prime) ** 2 - np.abs(tc.q_tilde_prime) ** 2
        k = int(np.argmax(np.abs(ident - 1.0)))
        return ident[k], 1.0, abs(ident[k] - 1.0), ""

    guarded("evolved_op_identity", 1e-12, coeff_identity)

    basis = TruncatedBasis(dim)

    @cache
    def oracle():
        # one diagonalisation per parameter set; a failure here raises
        # inside each row that asks, so it becomes that row's failure
        h = build_excited_hamiltonian(c, basis)
        return h, Propagator(h, basis)

    def ladder():
        _, prop = oracle()
        n_chk = max(2, dim // 4)
        expected = c.epsilon_e + c.omega_e * (np.arange(n_chk) + 0.5)
        diffs = np.abs(prop.energies[:n_chk] - expected)
        k = int(np.argmax(diffs))
        return expected[k], prop.energies[k], diffs[k], f"n <= {n_chk - 1}"

    guarded("eigenvalue_ladder", 1e-8, ladder)

    def vacuum_phonons():
        val = vacuum_ground_phonon_number(c)
        vac = excited_vacuum(c, basis)
        ref = observable(vac, np.diag(np.arange(dim, dtype=float)))
        return val, ref, abs(val - ref), ""

    guarded("vacuum_phonons", 1e-8, vacuum_phonons)

    linear = c.equal_frequencies
    overlap_tol = 1e-8 if linear else 1e-6

    def return_amplitude():
        _, prop = oracle()
        ref = prop.return_amplitude(p0, ts, energy_offset=c.epsilon_e)
        ana = overlap(p0, c, ts)
        diffs = np.abs(ana - ref)
        k = int(np.argmax(diffs))
        return abs(ana[k]), abs(ref[k]), diffs[k], f"p={p0}, {ts.size} times"

    guarded("return_amplitude", overlap_tol, return_amplitude)

    def phonons():
        _, prop = oracle()
        state = OracleState.number_state(basis, p0)
        num_op = np.diag(np.arange(dim, dtype=float))
        sub = ts[::4]
        ana = phonon_number(p0, c, sub)
        ref = np.array([observable(prop.evolve(state, t), num_op) for t in sub])
        diffs = np.abs(ana - ref)
        k = int(np.argmax(diffs))
        return ana[k], ref[k], diffs[k], f"p={p0}"

    guarded("phonon_number", 1e-7, phonons)

    if linear:

        def energy():
            h, prop = oracle()
            state = OracleState.number_state(basis, p0)
            val = excited_mean_energy(p0, c)
            worst = (val, math.nan, -1.0)
            for t in ts[::20]:
                ref = observable(prop.evolve(state, t), h)
                if abs(val - ref) > worst[2]:
                    worst = (val, ref, abs(val - ref))
            return worst[0], worst[1], worst[2], "conserved"

        guarded("excited_energy", 1e-8, energy)

        def polaron():
            res = polaron_state_check(c.lambda_g, 3, 60)
            return res, 0.0, res, "p <= 3, dim 60"

        guarded("polaron_identity", 1e-8, polaron)

    def thermal():
        tb = TruncatedBasis(thermal_dim)
        ref = thermal_correlation(th, c, tb, ts)
        ana = correlation(th, c, ts)
        diffs = np.abs(ana - ref)
        k = int(np.argmax(diffs))
        return abs(ana[k]), abs(ref[k]), diffs[k], f"dim={thermal_dim}"

    guarded("thermal_correlation", 1e-6, thermal)

    @cache
    def zero_T_lines():  # one line list per parameter set, like oracle()
        return spectrum_zero_T(c)

    def lines():
        lst = zero_T_lines()
        count = min(len(lst), basis.buffer_start)
        ref = franck_condon_weights(c, basis, count)
        wts = lst.weight[:count]
        diffs = np.abs(wts - ref)
        k = int(np.argmax(diffs))
        note = f"{count} lines" + ("" if count == len(lst) else f" of {len(lst)}")
        return wts[k], ref[k], diffs[k], note

    guarded("line_weights", 1e-8, lines)

    def sum_rule():
        total = sum(zero_T_lines().weight)  # sequential, not numpy's pairwise sum
        return total, 2.0 * math.pi, abs(total - 2.0 * math.pi), ""

    guarded("line_sum_rule", 1e-9, sum_rule)

    return rows


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
