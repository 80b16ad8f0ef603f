"""Closed forms against the truncated-basis reference, one row per check.

Each parameter set gets the same table of checks: algebraic identities,
the eigenvalue ladder, vacuum occupation, return amplitudes, phonon
numbers, energy conservation, thermal correlation and the
zero-temperature line list. Each check returns its analytic and
reference samples; one reducer turns them into a row that reports the
worst sample, and turns a numerical failure inside the check into a
failed row, so one bad configuration cannot hide the rest of the table.
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
from .oracle import Propagator, TruncatedBasis

__all__ = ["ValidationRow", "ValidationReport", "run_validation"]


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

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_text(self) -> str:
        head = (
            f"{'check':<22} {'set':<16} {'analytic':>18} {'reference':>18} "
            f"{'|diff|':>10} {'tol':>9}  status"
        )
        lines = [head, "-" * len(head)]
        for r in self.rows:
            status = "pass" if r.passed else "FAIL"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(
                f"{r.check:<22} {r.label:<16} {r.analytic:>18.11g} "
                f"{r.reference:>18.11g} {r.diff:>10.3e} {r.tol:>9.2e}  {status}{note}"
            )
        verdict = "PASS" if self.all_passed else "FAIL"
        lines.append(f"overall: {verdict} (oracle dim {self.oracle_dim})")
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
              dim: int) -> list[ValidationRow]:
    c = derive_couplings(params)
    th = ThermalParams(beta)
    ts = np.linspace(0.0, 4.0 * math.pi / c.omega_e, 160)
    basis = TruncatedBasis(dim)
    number = np.arange(dim, dtype=float)  # the number operator's diagonal

    @cache
    def oracle():
        # one diagonalisation per parameter set; a failure here raises
        # inside each row that asks, as that row's failure
        return Propagator.of(c, basis)

    @cache
    def zero_T_lines():  # one line list per parameter set, like oracle()
        return spectrum_zero_T(c)

    def coeff_identity():
        tc = time_coeffs(c, ts)
        return np.abs(tc.d_tilde_prime) ** 2 - np.abs(tc.q_tilde_prime) ** 2, 1.0, ""

    def ladder():
        n_chk = max(2, dim // 4)
        energies = oracle().ladder(n_chk)
        count = energies.size
        expected = c.omega_e * (np.arange(count) + 0.5)
        note = f"{count} levels" + ("" if count == n_chk else f" of {n_chk}")
        return expected, energies, note

    def return_amplitude():
        return overlap(p0, c, ts), oracle().return_amplitude(p0, ts), f"p={p0}, {ts.size} times"

    def thermal():
        ref = oracle().thermal_correlation(th, c, ts)
        return correlation(th, c, ts), ref, f"dim={dim}"

    def line_weights():
        lst = zero_T_lines()
        count = min(len(lst), basis.buffer_start)
        ref = oracle().franck_condon_weights(count)
        note = f"{count} lines" + ("" if count == len(lst) else f" of {len(lst)}")
        return lst.weight[:count], ref, note

    energy = excited_mean_energy(p0, c)
    checks = [
        ("coupling_identity", 1e-12, lambda: (c.gamma_plus**2 - c.gamma_minus**2, 1.0, "")),
        ("evolved_op_identity", 1e-12, coeff_identity),
        ("eigenvalue_ladder", 1e-8, ladder),
        ("vacuum_phonons", 1e-8,
         lambda: (vacuum_ground_phonon_number(c), number @ oracle().vacuum() ** 2, "")),
        ("return_amplitude", 1e-8 if c.equal_frequencies else 1e-6, return_amplitude),
        ("phonon_number", 1e-7, lambda: (phonon_number(p0, c, ts[::4]),
                                         oracle().phonon_number(p0, ts[::4]), f"p={p0}")),
        # an absolute energy, eps_e plus the oracle's: its rounding grows with its size
        ("excited_energy", 1e-8 * max(1.0, abs(energy)),
         lambda: (energy, c.epsilon_e + oracle().mean_energy(p0), "conserved")),
        ("thermal_correlation", 1e-6, thermal),
        ("line_weights", 1e-8, line_weights),
        # sequential, not numpy's pairwise sum
        ("line_sum_rule", 1e-9, lambda: (sum(zero_T_lines().weight), 2.0 * math.pi, "")),
    ]
    return [_row(check, label, tol, fn) for check, tol, fn in checks]


def run_validation(specs, oracle_dim: int) -> ValidationReport:
    """Run the full battery for each (label, params, beta, initial_p) spec,
    every oracle row from one ``oracle_dim``-level eigenbasis per spec."""
    rows: list[ValidationRow] = []
    for label, params, beta, p0 in specs:
        rows.extend(_rows_for(label, params, beta, p0, oracle_dim))
    return ValidationReport(rows=tuple(rows), oracle_dim=oracle_dim)
