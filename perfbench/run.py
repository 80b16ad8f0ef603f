"""indiboson benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``cli-mix``: each request is a fresh ``indiboson`` process running one
  subcommand on a preset or a seeded config file.
* ``thermal-spectra``: in-process ``spectrum_finite_T`` on seeded draws.
* ``dynamics``: in-process closed-form overlaps and phonon numbers on 400
  times plus the dim-256 oracle, as ``evolve --oracle`` computes them.

A run is a whole number of passes over the seeded pool, at least
``--seconds`` long. The process and its children run on one CPU with one
BLAS thread, and request times are scaled to a reference CPU speed
(``speed.py``); the raw wall-clock figures are printed as comments.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics. With ``--trace 1`` the loop runs twice in-process over
the same requests, untraced and then traced, and the result holds the
per-layer metrics (span times are wall-clock; the fresh-interpreter
figures are scaled); the spans go to ``.bench_build/perfbench/``.
Outputs are checked against ``oracle`` references after the timed loop,
in both modes.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cli-mix", "thermal-spectra", "dynamics")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CLI_PASSES = 40          # more passes than any run can finish
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """One BLAS thread for this process and its children (never more than
    nproc). At the oracle's matrix sizes (256 to 512) a second thread made
    dynamics requests slower and their times noisier on a 2-core machine
    (3.2 against 4.1 requests/s). Must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def environment(allowed: int, cpu: int, blas_threads: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": allowed,
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": blas_threads,
    }


# ---------------------------------------------------------------------------
# workload state


class Workload:
    """Inputs, the request function and the checks of one workload."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import inputs
        import workloads as wl

        self.name = name
        self.setup = None
        if name == "cli-mix":
            self.setup = wl.CliSetup(workdir, inputs.cli_configs(seed))
            self.setup.write()
            self.items = inputs.cli_requests(seed, CLI_PASSES)
            self.pass_length = inputs.cli_pass_length()
        else:
            make = wl.thermal_items if name == "thermal-spectra" else wl.dynamics_items
            self.items = make(seed)
            self.pass_length = len(self.items)

    def close(self):
        if self.setup is not None:
            self.setup.remove()

    def executor(self, in_process: bool):
        import workloads as wl

        if self.name == "cli-mix":
            if in_process:
                return lambda req: wl.cli_inprocess(req, self.setup)
            env = child_env()
            return lambda req: wl.cli_subprocess(req, self.setup, env)
        fn = wl.thermal_request if self.name == "thermal-spectra" else wl.dynamics_request

        def execute(item):
            t0 = time.perf_counter()
            try:
                out = fn(item)
            except Exception as exc:  # a failed request; the loop goes on
                return wl.Outcome(item, time.perf_counter() - t0,
                                  error=f"{type(exc).__name__}: {exc}")
            return wl.Outcome(item, time.perf_counter() - t0, output=out)

        return execute

    def warm_up(self):
        """Fixed small requests that load every code path the loop uses."""
        import inputs
        import numpy as np
        import workloads as wl
        from indiboson.model import ModelParams, ThermalParams, derive_couplings

        if self.name == "cli-mix":
            out = self.executor(False)(inputs.CliRequest("couplings", False, "fig2-linear", "csv"))
            if out.error:
                raise RuntimeError(f"warm-up request failed: {out.error}")
            return
        for ratio in (1.0, 2.0):
            c = derive_couplings(ModelParams.from_lambda_g(0.0, 0.0, 1.0, ratio, 0.5))
            if self.name == "thermal-spectra":
                item = wl.ThermalItem(None, c, ThermalParams(1.0), np.linspace(-2.0, 8.0, 64))
                wl.spectrum_finite_T(item.thermal, c, item.w, eta=0.05 * ratio)
            else:
                draw = inputs.DynamicsDraw(ratio, 0.5, 2, 4.0 * np.pi / ratio)
                wl.dynamics_request(wl.DynamicsItem(draw, c, np.linspace(0.0, draw.t_max, 40)))

    def check(self, outcomes):
        """Checks every outcome against its oracle reference."""
        import workloads as wl

        checks = wl.Checks()
        refs = {}
        for o in outcomes:
            if o.error is not None:
                checks.add(o, None)
                continue
            if self.name == "thermal-spectra":
                key = id(o.item)
                if key not in refs:
                    refs[key] = wl.thermal_reference(o.item)
                verdict = wl.thermal_check(o, refs[key])
            elif self.name == "dynamics":
                verdict = wl.dynamics_check(o, o.item)
            else:
                key = (o.item.command, o.item.source)
                if key not in refs:
                    try:
                        refs[key] = wl.cli_reference(o.item, self.setup.configs)
                    except (RuntimeError, ValueError) as exc:
                        print(f"reference failed for {key}: {exc}", file=sys.stderr)
                        refs[key] = None
                verdict = wl.cli_check(o, self.setup.configs, refs[key])
            checks.add(o, verdict)
        return checks


@dataclass
class Timed:
    """Outcomes of a timed loop, each with the speed scale of its interval."""

    outcomes: list
    scales: list
    wall_s: float

    def latencies(self) -> list[float]:
        return [o.latency * k for o, k in zip(self.outcomes, self.scales)]

    def busy_s(self) -> float:
        return sum(self.latencies())


def timed_loop(execute, items, pass_length: int, seconds: float | None = None,
               count: int | None = None) -> Timed:
    """One client: each request starts when the previous one has ended.

    The loop runs whole passes over the workload's seeded pool and stops at
    the first pass boundary after ``seconds`` (or after ``count``
    requests), so every run sees the pool's exact mix of cheap and
    expensive requests. The speed kernel runs between requests."""
    outcomes, kernels = [], [speed.kernel_s()]
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    i = 0
    while True:
        outcomes.append(execute(items[i % len(items)]))
        kernels.append(speed.kernel_s())
        i += 1
        if count is not None and i >= count:
            break
        if deadline is not None and i % pass_length == 0 and time.perf_counter() >= deadline:
            break
    return Timed(outcomes, speed.scales(kernels), time.perf_counter() - start)


def fresh_interpreter_times(argv_tail: list[str], repeats: int, parse_stdout: bool = False):
    """Speed-scaled wall time, or the seconds the child prints, of ``repeats``
    fresh processes."""
    times = []
    for _ in range(repeats):
        before = speed.kernel_s()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable] + argv_tail, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{argv_tail}: exit {proc.returncode}: {proc.stderr[-400:]}")
        scale = speed.scales([before, speed.kernel_s()])[0]
        times.append((float(proc.stdout.split()[-1]) if parse_stdout else wall) * scale)
    return times


# ---------------------------------------------------------------------------
# modes


def setup_probe(args) -> int:
    """One full set-up in this fresh interpreter: imports, inputs, warm-up."""
    import inputs  # noqa: F401
    import workloads  # noqa: F401

    wl = Workload(args.workload, args.seed, WORK / f"probe-{os.getpid()}")
    try:
        wl.warm_up()
    finally:
        wl.close()
    return 0


def _p50_p90(latencies):
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def run_untraced(args, wl: Workload):
    import workloads as wl_mod

    timed = timed_loop(wl.executor(in_process=False), wl.items, wl.pass_length, args.seconds)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-mix" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    probe = [str(HERE / "run.py"), "--workload", wl.name, "--seed", str(args.seed),
             "--setup-probe"]
    setups = fresh_interpreter_times(probe, SETUP_REPEATS)
    outcomes = timed.outcomes
    checks = wl.check(outcomes)
    latencies = timed.latencies()
    p50, p90 = _p50_p90(latencies)
    wall = [o.latency for o in outcomes]
    wall_p50, wall_p90 = _p50_p90(wall)
    n = len(outcomes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / timed.busy_s(), "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_p90_s": (p90, "s"),
        "success_share": ((n - checks.failed) / n, "ratio"),
        "max_rel_err": (max(checks.max_rel_err, wl_mod.REL_ERR_FLOOR), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"requests": n, "passes": n // wl.pass_length,
            "beyond_p90": sum(1 for x in latencies if x > p90),
            "wall_s": timed.wall_s,
            "wall ops_per_s / p50 / p90": f"{n / sum(wall):.4g} / {wall_p50:.4g} / {wall_p90:.4g}",
            "speed scale median": statistics.median(timed.scales),
            "setup runs (s)": " ".join(f"{x:.3f}" for x in setups),
            "fail_share": checks.failed / n,
            "refusals": sum(o.refusal for o in outcomes),
            "worst_rel_err": f"{checks.max_rel_err:.3e} ({checks.worst})"}
    return metrics, info, checks, n


def run_traced(args, wl: Workload):
    import tracing

    import_s = fresh_interpreter_times(
        ["-c", "import time; t = time.perf_counter(); import indiboson.cli; "
               "print(time.perf_counter() - t)"], IMPORT_REPEATS, parse_stdout=True)
    startup_s = fresh_interpreter_times(["-c", "import indiboson.cli"], IMPORT_REPEATS)
    execute = wl.executor(in_process=True)
    plain = timed_loop(execute, wl.items, wl.pass_length, seconds=args.seconds / 2.0)
    n = len(plain.outcomes)
    tracer = tracing.Tracer()

    def traced_execute(item):
        tracer.request += 1
        return execute(item)

    tracing.install(tracer)
    try:
        traced = timed_loop(traced_execute, wl.items, wl.pass_length, count=n)
    finally:
        tracer.restore()
    checks = wl.check(plain.outcomes + traced.outcomes)
    layers = tracing.Layers(tracer.spans)
    values = tracing.per_layer(layers, n, sum(o.out_bytes for o in traced.outcomes))
    values["cli.import_s"] = statistics.median(import_s)
    values["cli.startup_s"] = statistics.median(startup_s)
    values["trace.request_s"] = sum(o.latency for o in traced.outcomes) / n
    values["trace.overhead"] = traced.busy_s() / plain.busy_s()
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in units}
    WORK.mkdir(parents=True, exist_ok=True)
    trace_path = WORK / f"trace-{wl.name}-{args.seed}.json.gz"
    tracer.write(trace_path, {"workload": wl.name, "seed": args.seed, "requests": n})
    info = {"requests": n, "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
            "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, info, checks, 2 * n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "indiboson" / "cli.py").is_file():
        print(f"error: no indiboson sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    allowed = nproc()
    blas_threads = pin_blas_threads()
    cpu = speed.pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import indiboson

    if Path(indiboson.__file__).resolve().parent != SRC / "indiboson":
        print(f"error: imported indiboson from {indiboson.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    wl = Workload(args.workload, args.seed, WORK / f"{args.workload}-{os.getpid()}")
    try:
        wl.warm_up()
        if args.trace:
            metrics, info, checks, attempted = run_traced(args, wl)
        else:
            metrics, info, checks, attempted = run_untraced(args, wl)
    finally:
        wl.close()

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:<24.10g} {unit}")
    for note in checks.wrong[:10]:
        print(f"# check failed: {note}")
    print(json.dumps({"env": environment(allowed, cpu, blas_threads)}))
    print(json.dumps({
        "correct": not checks.wrong,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
