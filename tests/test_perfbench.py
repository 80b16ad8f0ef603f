"""The benchmark harness under ``perfbench/`` runs against this package.

The harness imports and wraps package names that the package itself no
longer calls, and reads fields of the containers it gets back. One traced
dynamics request goes through all of that, so a trimmed name or field
fails here in seconds rather than only in the traced benchmark smokes.
"""

import importlib
from pathlib import Path

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
