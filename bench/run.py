"""The treegray benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S      # every workload

With --trace 0 each workload runs as a `python3 -m treegray ...` subprocess
in a closed loop with one client: the next run starts only after the
previous one has exited, while another run of the same length still ends
within S seconds (there is always at least one run).  Every run's output is
read from a pipe and checked against the record count and SHA-256 pinned in
bench/digests.json.  The end-to-end metrics are medians over the runs.

With --trace 1 the workload runs in-process instead: untraced in the same
kind of loop, then once with spans around the calls into each treegray
module, which gives the per-layer metrics (see tracer.py).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Metric names and units come from BENCHMARK.json.  The
inputs are fixed, so --seed is recorded but nothing depends on it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Optional

import tracer
from harness import (
    VERIFY_PROBE,
    WORKLOADS,
    HarnessError,
    Workload,
    digest_key,
    environment,
    load_digests,
    load_spec,
    measure,
    require_source,
)


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def run_workload(workload: Workload, seconds: float, trace: bool, digests: dict, spec: dict) -> dict:
    """Run one workload, print its report lines, return the result object."""
    env = environment()
    commands = (workload.argv, VERIFY_PROBE) if workload.is_verify else (workload.argv,)
    pins = {digest_key(a): digests.get(digest_key(a)) for a in commands}
    start = time.perf_counter()
    if trace:
        values, tally = tracer.trace_workload(workload, seconds, digests)
        samples = {}
        listed = spec["per_layer"]
    else:
        samples, values, tally = measure(workload, seconds, digests)
        listed = spec["end_to_end"]
    elapsed = time.perf_counter() - start
    env["loadavg_after"] = list(os.getloadavg())
    env["pinned"] = pins
    print(f"env {json.dumps(env)}")
    rate = tally.failed / tally.attempted
    print(
        f"workload {workload.name} ({'traced' if trace else 'closed loop, 1 client'}): "
        f"{tally.attempted} runs in {elapsed:.1f} s, {tally.failed} failed, error_rate {rate}"
    )
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    metrics = {}
    for m in listed:
        name, unit = m["name"], m["unit"]
        if name not in values:
            raise HarnessError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
        xs = samples.get(name)
        if xs:
            q1, q3 = _quartiles(xs)
            print(f"  {name:<14} {values[name]:>14.6g} {unit:<4} q1 {q1:.6g}  q3 {q3:.6g}  n={len(xs)}")
        else:
            print(f"  {name:<44} {values[name]:>14.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="recorded; the inputs are fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_source()
        spec = load_spec()
        digests = load_digests()
        print(f"seed {args.seed}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(WORKLOADS[name], args.seconds, bool(args.trace), digests, spec)
            for name in names
        }
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
