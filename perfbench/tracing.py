"""Spans around the calls between layers, recorded from the benchmark only.

The program is not edited: :func:`install` swaps, for the length of a
traced phase, the names one module imports from another (for example
``analytic.laguerre_half_seq`` or ``cli.spectrum_finite_T``) for wrappers
that record a span. Spans stay in memory as
``[name, start, end, parent index, request id, attrs]`` and are written
when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

import indiboson.analytic as analytic
import indiboson.cli as cli
import indiboson.oracle as oracle
import indiboson.validation as validation
from indiboson.errors import TruncationError

import workloads

SAMPLE_CAP = 400_001  # spectrum_finite_T's sample cap at this commit


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span; ``note(attrs, args, kwargs, result)`` runs
        after the span has ended, so its cost is not charged to the layer."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(rec)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = time.perf_counter()
                stack.pop()
                # the innermost span an exception leaves is where it arose
                rec[5] = {"error": type(exc).__name__,
                          "origin": not getattr(exc, "_perfbench_seen", False)}
                exc._perfbench_seen = True
                raise
            rec[2] = time.perf_counter()
            stack.pop()
            if note is not None:
                rec[5] = {}
                note(rec[5], args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, note=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, note))

    def patch_value(self, module, attr: str, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path, meta: dict):
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start", "end", "parent", "request", "attrs"],
                       "spans": self.spans}, fh)


def _note_samples(attrs, args, kwargs, result):
    attrs["samples"] = len(args[2])


def _note_spectrum(attrs, args, kwargs, result):
    w = args[2]
    attrs["n_w"] = len(w)
    steps = [b - a for a, b in zip(w[:-1], w[1:])]
    attrs["uniform"] = bool(max(steps) - min(steps) <= 1e-9 * max(abs(s) for s in steps))


def _note_lines(attrs, args, kwargs, result):
    attrs["lines"] = len(result)


def _note_validation(attrs, args, kwargs, result):
    attrs["failed_rows"] = sum(1 for r in result.rows if not r.passed)


def _traced_propagator(tracer: Tracer, base):
    class TracedPropagator(base):
        __init__ = tracer.wrap("oracle.eigh", base.__init__)
        evolve = tracer.wrap("oracle.evolve", base.evolve)
        return_amplitude = tracer.wrap("oracle.return_amplitude", base.return_amplitude)

    return TracedPropagator


def install(tracer: Tracer):
    """Wrap every cross-module call on the workloads' paths."""
    analytic_names = {
        "overlap_linear": ("analytic.overlap", None),
        "overlap_quadratic": ("analytic.overlap", None),
        "phonon_number_linear": ("analytic.phonon_number", None),
        "phonon_number_quadratic": ("analytic.phonon_number", None),
        "_correlation_linear_values": ("analytic.correlator", _note_samples),
        "_correlation_quadratic_values": ("analytic.correlator", _note_samples),
        "spectrum_zero_T": ("analytic.spectrum_zero_T", _note_lines),
        "spectrum_finite_T": ("analytic.spectrum_finite_T", _note_spectrum),
    }
    oracle_names = {
        "thermal_correlation": "oracle.thermal_correlation",
        "franck_condon_weights": "oracle.franck_condon_weights",
        "thermal_line_list": "oracle.thermal_line_list",
        "excited_vacuum": "oracle.excited_vacuum",
        "observable": "oracle.observable",
    }
    for module in (workloads, cli, validation):
        for attr, (name, note) in analytic_names.items():
            if hasattr(module, attr):
                tracer.patch(module, attr, name, note)
        for attr, name in oracle_names.items():
            if hasattr(module, attr):
                tracer.patch(module, attr, name)
    # calls inside analytic: the correlator behind spectrum_finite_T and
    # the model/specfun helpers behind the per-time closed forms
    tracer.patch(analytic, "_correlation_linear_values", "analytic.correlator", _note_samples)
    tracer.patch(analytic, "_correlation_quadratic_values", "analytic.correlator", _note_samples)
    tracer.patch(analytic, "time_coeffs", "model.time_coeffs")
    tracer.patch(analytic, "laguerre_seq", "specfun.laguerre_seq")
    tracer.patch(analytic, "laguerre_half_seq", "specfun.laguerre_half_seq")
    tracer.patch(cli, "_load_config", "cli.config")
    tracer.patch(cli, "render_csv", "cli.render")
    tracer.patch(cli, "render_json", "cli.render")
    tracer.patch(cli, "run_validation", "validation.run_validation", _note_validation)
    traced = _traced_propagator(tracer, oracle.Propagator)
    for module in (workloads, cli, validation, oracle):
        tracer.patch_value(module, "Propagator", traced)


# ---------------------------------------------------------------------------
# per-layer figures


class Layers:
    """Per-name call counts and total time from a span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            self.calls[name] += 1
            self.total[name] += end - start
            if parent >= 0:
                self.child_time[parent] += end - start

    def truncation_errors(self) -> int:
        """TruncationErrors raised inside an oracle span, each counted once."""
        return sum(1 for name, _, _, _, _, attrs in self.spans
                   if name.startswith("oracle.") and attrs and attrs.get("origin")
                   and attrs["error"] == TruncationError.__name__)

    def spectra(self):
        """(self time, uniform, n_w, final sample count) per spectrum_finite_T span.

        The last correlator call inside a spectrum evaluates the samples the
        damped transform then runs over."""
        last_samples = {}
        for name, _, _, parent, _, attrs in self.spans:
            if name == "analytic.correlator" and parent >= 0:
                last_samples[parent] = attrs["samples"]
        out = []
        for i, (name, start, end, _, _, attrs) in enumerate(self.spans):
            if name == "analytic.spectrum_finite_T":
                out.append((end - start - self.child_time[i], attrs["uniform"], attrs["n_w"],
                            last_samples.get(i, 0)))
        return out

    def attr_sum(self, name: str, key: str) -> float:
        return sum(a[key] for n, _, _, _, _, a in self.spans if n == name and a)


def per_layer(layers: Layers, requests: int, out_bytes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json (those a run can fill)."""
    r = max(requests, 1)
    spectra = layers.spectra()
    n_spec = len(spectra)
    return {
        "cli.config_s": layers.total["cli.config"] / r,
        "cli.render_s": layers.total["cli.render"] / r,
        "cli.output_bytes": out_bytes / r,
        "model.time_coeffs.calls": layers.calls["model.time_coeffs"] / r,
        "model.time_coeffs_s": layers.total["model.time_coeffs"] / r,
        "specfun.laguerre_half_seq.calls": layers.calls["specfun.laguerre_half_seq"] / r,
        "specfun.laguerre_seq.calls": layers.calls["specfun.laguerre_seq"] / r,
        "specfun.seq_s": (layers.total["specfun.laguerre_half_seq"]
                          + layers.total["specfun.laguerre_seq"]) / r,
        "analytic.overlap.calls": layers.calls["analytic.overlap"] / r,
        "analytic.overlap_s": layers.total["analytic.overlap"] / r,
        "analytic.phonon_number_s": layers.total["analytic.phonon_number"] / r,
        "analytic.correlator_samples": layers.attr_sum("analytic.correlator", "samples") / r,
        "analytic.correlator_s": layers.total["analytic.correlator"] / r,
        "analytic.spectrum_finite_T.self_s": sum(s[0] for s in spectra) / r,
        "analytic.spectrum_finite_T.self_s.uniform": sum(s[0] for s in spectra if s[1]) / r,
        "analytic.spectrum_finite_T.self_s.nonuniform": sum(s[0] for s in spectra if not s[1]) / r,
        "analytic.transform_points": sum(s[2] * s[3] for s in spectra) / r,
        "analytic.capped_share": (sum(1 for s in spectra if s[3] == SAMPLE_CAP) / n_spec
                                  if n_spec else 0.0),
        "analytic.spectrum_zero_T_s": layers.total["analytic.spectrum_zero_T"] / r,
        "analytic.zero_T_lines": layers.attr_sum("analytic.spectrum_zero_T", "lines") / r,
        "oracle.eigh_s": layers.total["oracle.eigh"] / r,
        "oracle.return_amplitude_s": layers.total["oracle.return_amplitude"] / r,
        "oracle.evolve.calls": layers.calls["oracle.evolve"] / r,
        "oracle.evolve_s": layers.total["oracle.evolve"] / r,
        "oracle.observable_s": layers.total["oracle.observable"] / r,
        "oracle.thermal_correlation_s": layers.total["oracle.thermal_correlation"] / r,
        "oracle.truncation_errors": layers.truncation_errors() / r,
        "validation.run_validation_s": layers.total["validation.run_validation"] / r,
        "validation.failed_rows": layers.attr_sum("validation.run_validation", "failed_rows") / r,
    }
