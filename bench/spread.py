"""Repeat the benchmark and report each end-to-end metric's run-to-run spread.

    python3 bench/spread.py --runs 10 [--first-seed 1] [--trace] [--out FILE]

Runs `bench/run.py --workload W --seed S --seconds <run_seconds>` once per
seed for every workload of BENCHMARK.json, always at its run_seconds, the
workloads interleaved so that drifting machine load spreads over all of them.  For each metric it prints the median, the
quartiles from statistics.quantiles(values, n=4), and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json; a spread
at or above a third of its bound is flagged (setup_s is reported only).
With --trace it also makes one traced run per workload.  --out writes every
run's result with the environment, as in bench/baseline.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import harness


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed for {workload} seed {seed}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(results: list[dict], spec: dict) -> dict[str, dict]:
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": m["bound"], "n": len(values),
        }
    return out


def main() -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    env = harness.environment()
    results: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            results[name].append(run_once(name, seed, seconds, False))
            print(f"seed {seed} {name}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in results[name][-1]["metrics"].items()
            ), flush=True)
    traced = {name: run_once(name, 0, seconds, True) for name in names} if args.trace else {}
    env["loadavg_after"] = list(os.getloadavg())

    steady = True
    summary = {}
    for name in names:
        summary[name] = summarize(results[name], spec)
        attempted = sum(r["attempted"] for r in results[name])
        failed = sum(r["failed"] for r in results[name])
        print(f"{name}: {args.runs} runs of {seconds} s, {failed} of {attempted} attempts failed")
        for metric, s in summary[name].items():
            flag = ""
            if metric != "setup_s" and s["spread"] >= s["bound"] / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(
                f"  {metric:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                f"spread {s['spread']:.4f} (bound {s['bound']}){flag}"
            )
    if args.out:
        record = {
            "env": env, "seconds": seconds, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "summary": summary, "runs": results, "traced": traced,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
