"""The benchmark harness under ``perfbench/`` runs against this package.

The harness imports and wraps package names that the package itself no
longer calls, and reads fields of the containers it gets back. One traced
dynamics request goes through all of that, so a trimmed name or field
fails here in seconds rather than only in the traced benchmark smokes.
The reference shims the harness checks outputs against run here too.
"""

import importlib
from pathlib import Path

import numpy as np

from indiboson.analytic import vacuum_ground_phonon_number
from indiboson.cli import build_run_config
from indiboson.model import derive_couplings
from indiboson.presets import preset_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_dynamics_request_runs_and_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    item = workloads.dynamics_items(1)[0]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        out = workloads.dynamics_request(item)
    finally:
        tracer.restore()
    assert tracer.spans  # the request ran through the wrappers
    assert workloads.dynamics_check(workloads.Outcome(item, 0.0, output=out), item).ok


def test_cli_references_of_one_pass_are_finite(monkeypatch):
    # every reference shim the cli-mix check calls, excited_vacuum included,
    # and the thermal-spectra reference that steps through oracle sizes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = importlib.import_module("inputs")
    workloads = importlib.import_module("workloads")
    configs = inputs.cli_configs(1)
    seen = set()
    for req in inputs.cli_requests(1, 1):
        # a reference depends on the command and the source, not on --oracle
        if req.command == "validate" or (req.command, req.source) in seen:
            continue
        seen.add((req.command, req.source))
        ref = workloads.cli_reference(req, configs)
        assert ref and all(np.all(np.isfinite(v)) for v in ref.values()), req
        if req.command == "couplings":
            raw = preset_config(req.source) if isinstance(req.source, str) else configs[req.source]
            c = derive_couplings(build_run_config(dict(raw)).params)
            assert abs(ref["vacuum_phonons"] - vacuum_ground_phonon_number(c)) <= 1e-8, req
    assert {command for command, _ in seen} == {"couplings", "evolve", "correlation", "spectrum"}
    assert workloads.thermal_reference(workloads.thermal_items(1)[0]) is not None
