"""The three workloads: how each request runs, and how its output is checked.

Requests go through the package's public calls only: the ``indiboson``
entry point (``cli.main``) for cli-mix, and ``analytic`` / ``oracle`` for
the in-process workloads. Every output is compared after the timed loop
with a reference built from ``oracle`` alone, so no formula from
``analytic`` enters a reference. Tolerances are the ones ``validate``
applies to the same comparison.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from indiboson.analytic import (
    overlap_linear,
    overlap_quadratic,
    phonon_number_linear,
    phonon_number_quadratic,
    spectrum_finite_T,
)
from indiboson.cli import build_run_config, main as cli_main
from indiboson.errors import TruncationError
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
    thermal_line_list,
)
from indiboson.presets import preset_config

import inputs

# validate's tolerances for the same comparisons
TOL_OVERLAP_LINEAR = 1e-8
TOL_OVERLAP_QUADRATIC = 1e-6
TOL_PHONONS = 1e-7
TOL_THERMAL_CORRELATION = 1e-6
TOL_LINE_WEIGHTS = 1e-8
TOL_SUM_RULE = 1e-9
TOL_VACUUM_PHONONS = 1e-8
TOL_LADDER = 1e-8

# spectrum_finite_T documents an interpolation error near 1e-5 of the peak
# but misses it where its sample cap binds (up to ~7e-5 at the pinned
# corners). The check catches wrong physics; max_rel_err reports accuracy.
TOL_SPECTRUM = 1e-3
# Two oracle dimensions must give the same reference to this share of its
# peak before the reference is trusted.
TOL_REFERENCE_CONFIRM = 1e-6
REFERENCE_DIMS = (256, 384, 512)

DYNAMICS_DIM = 256
CLI_REFERENCE_DIM = 256
# Two double-precision evaluations of the same quantity (closed form, and an
# oracle summing up to 256 eigenstates) differ by up to ~2e-12 of scale from
# rounding alone, and by a different amount for every seeded draw. Smaller
# deviations are reported as this floor so that max_rel_err moves only when
# accuracy does; it is 100 times below validate's tightest tolerance.
REL_ERR_FLOOR = 1e-10

ENTRY = "import sys; from indiboson.cli import main; sys.exit(main())"


def rel_dev(values, reference) -> float:
    """Largest deviation as a share of the reference's largest magnitude,
    floored at 1 so that near-zero arrays are compared in absolute terms."""
    values = np.asarray(values)
    reference = np.asarray(reference)
    scale = max(float(np.max(np.abs(reference))), 1.0)
    return float(np.max(np.abs(values - reference))) / scale


@dataclass
class Outcome:
    """What one request produced; ``error`` marks a failed request."""

    item: object
    latency: float
    output: object = None
    error: str | None = None
    refusal: bool = False     # a documented refusal (exit 3 on an --oracle run)
    out_bytes: int = 0


@dataclass
class Verdict:
    ok: bool
    rel_err: float = 0.0
    note: str = ""


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


class Checks:
    """Accumulates per-request verdicts into the run's correctness figures."""

    def __init__(self):
        self.failed = 0
        self.wrong = []           # notes of outputs that disagreed or broke
        self.max_rel_err = 0.0
        self.worst = ""           # note of the request with the largest deviation

    def add(self, outcome: Outcome, verdict: Verdict | None):
        if outcome.error is not None:
            self.failed += 1
            if not outcome.refusal:
                self.wrong.append(outcome.error)
            return
        if verdict.rel_err > self.max_rel_err:
            self.max_rel_err = verdict.rel_err
            self.worst = verdict.note
        if not verdict.ok:
            self.failed += 1
            self.wrong.append(verdict.note)


# ---------------------------------------------------------------------------
# thermal-spectra


@dataclass
class ThermalItem:
    draw: inputs.ThermalDraw
    couplings: object
    thermal: ThermalParams
    w: np.ndarray


def thermal_items(seed: int) -> list[ThermalItem]:
    items = []
    for d in inputs.thermal_draws(seed):
        c = derive_couplings(ModelParams.from_lambda_g(0.0, 0.0, 1.0, d.ratio, d.lambda_g))
        items.append(ThermalItem(d, c, ThermalParams(d.beta), np.array(d.w)))
    return items


def thermal_request(item: ThermalItem):
    return spectrum_finite_T(item.thermal, item.couplings, item.w, eta=item.draw.eta)


def _window_lorentzians(th, c, w, eta: float, dim: int) -> np.ndarray:
    """Oracle lines, each with its exact finite-window line shape
    2 Re[(e^{sT} - 1)/s], s = i(delta - w_n) - eta, T = 8/eta."""
    lines = thermal_line_list(th, c, TruncatedBasis(dim))
    offsets = np.array([ln.offset for ln in lines])
    weights = np.array([ln.weight for ln in lines]) / (2.0 * math.pi)
    t_win = 8.0 / eta
    delta = np.asarray(w, dtype=float) - c.omega_eg
    rot_w = math.exp(-eta * t_win) * np.exp(1j * delta * t_win)
    out = np.zeros(delta.size)
    for start in range(0, offsets.size, 256):
        off = offsets[start:start + 256]
        s = 1j * (delta[:, None] - off[None, :]) - eta
        num = rot_w[:, None] * np.exp(-1j * off * t_win)[None, :] - 1.0
        out += 2.0 * (num / s).real @ weights[start:start + 256]
    return out


def thermal_reference(item: ThermalItem):
    """Reference on the request's grid plus the peak height on the CLI's
    default uniform grid (the scale errors are quoted against). Returns
    None when no two successive oracle dimensions agree."""
    d = item.draw
    lo, hi = inputs.cli_default_band(d.ratio)
    grid = np.concatenate([item.w, np.linspace(lo, hi, 1201)])
    prev = None
    for dim in REFERENCE_DIMS:
        cur = _window_lorentzians(item.thermal, item.couplings, grid, d.eta, dim)
        if prev is not None:
            peak = float(np.max(np.abs(cur[item.w.size:])))
            if float(np.max(np.abs(cur - prev))) <= TOL_REFERENCE_CONFIRM * peak:
                return cur[: item.w.size], peak
        prev = cur
    return None


def thermal_check(outcome: Outcome, ref) -> Verdict:
    a = outcome.output
    if ref is None:
        return Verdict(False, 0.0, "thermal reference did not converge in the oracle dimension")
    r, peak = ref
    if a.shape != r.shape or not _finite(a):
        return Verdict(False, 0.0, "spectrum has the wrong shape or is not finite")
    err = float(np.max(np.abs(a - r))) / peak
    d = outcome.item.draw
    return Verdict(err <= TOL_SPECTRUM, err,
                   f"spectrum ratio={d.ratio:.4g} lambda_g={d.lambda_g:.4g} beta={d.beta:.4g} "
                   f"eta={d.eta:.4g} n_w={len(d.w)}: {err:.3e} of its peak")


# ---------------------------------------------------------------------------
# dynamics


@dataclass
class DynamicsItem:
    draw: inputs.DynamicsDraw
    couplings: object
    ts: np.ndarray


def dynamics_items(seed: int) -> list[DynamicsItem]:
    items = []
    for d in inputs.dynamics_draws(seed):
        c = derive_couplings(ModelParams.from_lambda_g(0.0, 0.0, 1.0, d.ratio, d.lambda_g))
        items.append(DynamicsItem(d, c, np.linspace(0.0, d.t_max, inputs.DYNAMICS_TIMES)))
    return items


def dynamics_request(item: DynamicsItem):
    """What `evolve --oracle` computes, at the oracle dimension `validate`
    uses for thermal rows."""
    c, ts, p = item.couplings, item.ts, item.draw.p
    if c.equal_frequencies:
        amp = np.array([overlap_linear(p, c, t).value for t in ts])
        phon = np.array([phonon_number_linear(p, c, t) for t in ts])
    else:
        amp = np.array([overlap_quadratic(p, c, t).value for t in ts])
        phon = np.array([phonon_number_quadratic(p, c, t) for t in ts])
    basis = TruncatedBasis(DYNAMICS_DIM)
    prop = Propagator(build_excited_hamiltonian(c, basis), basis)
    ref_amp = prop.return_amplitude(p, ts, energy_offset=c.epsilon_e)
    state = OracleState.number_state(basis, p)
    num_op = np.diag(np.arange(basis.dim, dtype=float))
    ref_phon = np.array([observable(prop.evolve(state, t), num_op) for t in ts])
    return amp, phon, ref_amp, ref_phon


def dynamics_check(outcome: Outcome, item: DynamicsItem) -> Verdict:
    amp, phon, ref_amp, ref_phon = outcome.output
    if not _finite(amp, phon, ref_amp, ref_phon):
        return Verdict(False, 0.0, "dynamics output is not finite")
    tol = TOL_OVERLAP_LINEAR if item.couplings.equal_frequencies else TOL_OVERLAP_QUADRATIC
    d_amp = float(np.max(np.abs(amp - ref_amp)))
    d_phon = float(np.max(np.abs(phon - ref_phon)))
    err = max(rel_dev(amp, ref_amp), rel_dev(phon, ref_phon))
    ok = d_amp <= tol and d_phon <= TOL_PHONONS
    return Verdict(ok, err, f"dynamics {item.draw}: |d amp| {d_amp:.3e}, |d phonons| {d_phon:.3e}")


# ---------------------------------------------------------------------------
# cli-mix


def parse_output(text: str, fmt: str) -> tuple[dict, dict]:
    """(meta, columns) from the CLI's CSV or JSON rendering."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["meta"], payload["data"]
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    columns = {}
    for i, name in enumerate(header):
        cells = [row[i] for row in rows]
        try:
            columns[name] = [float(v) for v in cells]
        except ValueError:
            columns[name] = cells
    return meta, columns


@dataclass
class CliSetup:
    workdir: Path
    configs: list
    paths: list = field(default_factory=list)

    def write(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, cfg in enumerate(self.configs):
            path = self.workdir / f"config-{i}.txt"
            path.write_text(inputs.config_text(cfg))
            self.paths.append(path)

    def remove(self):
        for path in self.paths:
            path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            self.workdir.rmdir()


def _is_refusal(req: inputs.CliRequest, code: int, err: str) -> bool:
    """The oracle's documented refusal: exit 3 on a TruncationError."""
    return req.oracle and code == 3 and "increase the basis" in err


def cli_subprocess(req: inputs.CliRequest, setup: CliSetup, env: dict) -> Outcome:
    """One fresh `indiboson` process."""
    argv = [sys.executable, "-c", ENTRY] + req.argv(setup.paths)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=setup.workdir)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Outcome(req, time.perf_counter() - t0, error=f"{req.argv(setup.paths)}: timed out")
    latency = time.perf_counter() - t0
    return _cli_outcome(req, setup, latency, proc.returncode, out.decode(), err.decode())


def cli_inprocess(req: inputs.CliRequest, setup: CliSetup) -> Outcome:
    """The same argv through ``cli.main`` in this process (traced runs)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(req.argv(setup.paths))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what a fresh process would report as a traceback
            traceback.print_exc()
            code = 1
    latency = time.perf_counter() - t0
    return _cli_outcome(req, setup, latency, code, out.getvalue(), err.getvalue())


def _cli_outcome(req, setup, latency, code, out, err) -> Outcome:
    o = Outcome(req, latency, output=out, out_bytes=len(out.encode()))
    if code != 0:
        o.error = f"{' '.join(req.argv(setup.paths))}: exit {code}: {err.strip()[-200:]}"
        o.refusal = _is_refusal(req, code, err)
    return o


def _run_config(req: inputs.CliRequest, configs: list):
    raw = preset_config(req.source) if isinstance(req.source, str) else dict(configs[req.source])
    if req.command == "spectrum":
        raw["beta"] = "inf"
    return build_run_config(raw)


def cli_reference(req: inputs.CliRequest, configs: list) -> dict:
    """Oracle values for the analytic columns of one (command, source)."""
    cfg = _run_config(req, configs)
    c = derive_couplings(cfg.params)
    basis = TruncatedBasis(CLI_REFERENCE_DIM)
    if req.command == "couplings":
        vac = excited_vacuum(c, basis)
        num_op = np.diag(np.arange(basis.dim, dtype=float))
        return {"vacuum_phonons": observable(vac, num_op)}
    if req.command == "evolve":
        ts = cfg.times()
        prop = Propagator(build_excited_hamiltonian(c, basis), basis)
        p0 = cfg.initial_p
        ret = prop.return_amplitude(p0, ts, energy_offset=c.epsilon_e)
        amps = prop.modes @ (np.exp(-1j * np.outer(prop.energies, ts)) * prop.modes[p0, :, None])
        pops = np.abs(amps) ** 2
        if float(np.max(np.sum(pops[basis.buffer_start:], axis=0))) > 1e-8:
            raise TruncationError("evolve reference reaches the truncation buffer")
        return {"overlap_sq": np.abs(ret) ** 2,
                "ground_phonons": np.arange(basis.dim) @ pops}
    if req.command == "correlation":
        g = thermal_correlation(cfg.thermal, c, basis, cfg.times())
        return {"g_real": g.real, "g_imag": g.imag}
    if req.command == "spectrum":
        prop = Propagator(build_excited_hamiltonian(c, basis), basis)
        count = basis.buffer_start
        return {"weight": franck_condon_weights(c, basis, count),
                "offset": prop.energies[: basis.dim // 4] - c.epsilon_e - 0.5 * c.omega_g}
    return {}


def _compare(pairs) -> Verdict:
    """pairs: (label, values, reference, absolute tolerance, counts toward
    max_rel_err). Comparisons with the oracle count; exact identities such
    as the sum rule are pass/fail checks only."""
    worst, worst_label = 0.0, ""
    for label, values, reference, tol, counts in pairs:
        values = np.asarray(values, dtype=float)
        reference = np.asarray(reference, dtype=float)
        if values.shape != reference.shape or not _finite(values):
            return Verdict(False, worst, f"{label}: shape or finiteness")
        dev = rel_dev(values, reference)
        if counts and dev >= worst:
            worst, worst_label = dev, label
        diff = float(np.max(np.abs(values - reference))) if values.size else 0.0
        if diff > tol:
            return Verdict(False, worst, f"{label}: |diff| {diff:.3e} > {tol:g}")
    return Verdict(True, worst, worst_label)


def cli_check(outcome: Outcome, configs: list, ref: dict | None) -> Verdict:
    req: inputs.CliRequest = outcome.item
    text = outcome.output
    if req.command == "validate":
        ok = "overall: PASS" in text
        return Verdict(ok, 0.0, "" if ok else f"validate did not pass: {text[-300:]}")
    if ref is None:
        return Verdict(False, 0.0, f"{req}: no oracle reference")
    try:
        return _compare(_cli_pairs(req, configs, ref, parse_output(text, req.fmt)[1]))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(False, 0.0, f"{req}: unreadable output: {type(exc).__name__}: {exc}")


def _cli_pairs(req: inputs.CliRequest, configs: list, ref: dict, col: dict) -> list:
    c = derive_couplings(_run_config(req, configs).params)
    label = f"{req.command} {req.source}"
    tol_amp = TOL_OVERLAP_LINEAR if c.equal_frequencies else TOL_OVERLAP_QUADRATIC
    pairs = []

    def add(name, values, reference, tol, counts=True):
        pairs.append((f"{label} {name}", values, reference, tol, counts))

    if req.command == "couplings":
        values = dict(zip(col["quantity"], col["value"]))
        add("vacuum_phonons", [values["vacuum_phonons"]], [ref["vacuum_phonons"]],
            TOL_VACUUM_PHONONS)
        add("huang_rhys", [values["huang_rhys"]], [values["lambda_g"] ** 2], 1e-12, False)
        add("identity", [values["gamma_plus"] ** 2 - values["gamma_minus"] ** 2], [1.0],
            1e-12, False)
    elif req.command == "evolve":
        add("overlap_sq", col["overlap_sq"], ref["overlap_sq"], 2 * tol_amp)
        add("ground_phonons", col["ground_phonons"], ref["ground_phonons"], TOL_PHONONS)
        if req.oracle:
            add("oracle_overlap_sq", col["overlap_sq"], col["oracle_overlap_sq"], 2 * tol_amp)
            add("oracle_ground_phonons", col["ground_phonons"], col["oracle_ground_phonons"],
                TOL_PHONONS)
    elif req.command == "correlation":
        add("g_real", col["g_real"], ref["g_real"], TOL_THERMAL_CORRELATION)
        add("g_imag", col["g_imag"], ref["g_imag"], TOL_THERMAL_CORRELATION)
        if req.oracle:
            add("oracle_g_real", col["g_real"], col["oracle_g_real"], TOL_THERMAL_CORRELATION)
            add("oracle_g_imag", col["g_imag"], col["oracle_g_imag"], TOL_THERMAL_CORRELATION)
    elif req.command == "spectrum":
        weights = np.asarray(col["weight"], dtype=float)
        n = min(weights.size, ref["weight"].size)
        n_off = min(weights.size, ref["offset"].size)
        add("weight", weights[:n], ref["weight"][:n], TOL_LINE_WEIGHTS)
        add("offset", np.asarray(col["offset"], dtype=float)[:n_off], ref["offset"][:n_off],
            TOL_LADDER)
        add("sum_rule", [float(np.sum(weights))], [2.0 * math.pi], TOL_SUM_RULE, False)
        if req.oracle:
            add("oracle_weight", weights, col["oracle_weight"], TOL_LINE_WEIGHTS)
    return pairs
