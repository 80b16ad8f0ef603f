"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace-seed N] [--out perfbench/results/NAME.json]

For every workload it runs ``run.py`` once per seed (``run_seconds`` from
BENCHMARK.json) and reports each end-to-end metric's median, quartiles and
spread, the distance between the quartiles as a share of the median, next
to the metric's bound. ``--trace-seed`` adds one traced run per workload
for the per-layer figures. ``--out`` writes everything, with the
environment record, as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2])["env"]
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, bench["run_seconds"], 0))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}",
                  file=sys.stderr, flush=True)
        entry = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                 "correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "end_to_end": {}}
        print(f"\n{workload}: {args.seeds} seeds")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <- wide"
            print(f"  {name:<16} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.trace_seed, "correct": traced["correct"],
                                  "metrics": traced["metrics"]}
        record["workloads"][workload] = entry
        record["env"] = runs[-1]["env"]
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
