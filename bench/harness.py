"""Harness of the treegray benchmark: workloads, timed subprocess runs, output
checks and the environment record.  run.py is the command line on top.

Each run goes through one_run.py, which spawns `python3 -m treegray ARGV`
with this checkout's src/ on PYTHONPATH, reads its stdout from a pipe and
reports timings, the output's record count and SHA-256, and peak RSS.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

RUN_TIMEOUT_S = 120
# verify prints nothing until it is done, so its setup_s is timed on the
# smallest verify run instead (interpreter start, imports, argument
# parsing): this many spawns after one untimed warm-up spawn.
VERIFY_PROBE = ("verify", "--n", "1")
SETUP_PROBES = 20


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed run)."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    trees: int  # trees delivered (gen) or verified (verify) per run

    @property
    def is_verify(self) -> bool:
        return self.argv[0] == "verify"


def _workloads(*items: Workload) -> dict[str, Workload]:
    return {w.name: w for w in items}


WORKLOADS = _workloads(
    Workload("stream-levels", ("gen", "--n", "13", "--unchecked"), 208012),
    Workload("stream-delta", ("gen", "--n", "13", "--format", "delta"), 208012),
    # Checked mode at depth is the known slow path; keep it checked.
    Workload("deep-prefix", ("gen", "--n", "100", "--limit", "1000"), 1000),
    Workload("verify-n12", ("verify", "--n", "12"), 58786),
)

# The same four shapes at sizes that take well under a second; the tests
# run them through the harness.
SMOKE = _workloads(
    Workload("stream-levels", ("gen", "--n", "7", "--unchecked"), 132),
    Workload("stream-delta", ("gen", "--n", "7", "--format", "delta"), 132),
    Workload("deep-prefix", ("gen", "--n", "30", "--limit", "60"), 60),
    Workload("verify-n12", ("verify", "--n", "6"), 42),
)


def digest_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def load_digests() -> dict[str, dict]:
    if not DIGESTS.is_file():
        raise HarnessError(f"missing {DIGESTS.name}; run bench/pin.py")
    return json.loads(DIGESTS.read_text())


def load_spec() -> dict:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise HarnessError("missing BENCHMARK.json")
    return json.loads(spec.read_text())


def require_source() -> None:
    if not (SRC / "treegray" / "__init__.py").is_file():
        raise HarnessError(f"no treegray source under {SRC}")


def check_output(digests: dict, argv: tuple[str, ...], records: int, sha256: str) -> Optional[str]:
    """Why a run's output is wrong, or None if it matches the pinned digest."""
    pin = digests.get(digest_key(argv))
    if pin is None:
        return f"no pinned digest for {digest_key(argv)!r}"
    if records != pin["records"]:
        return f"{records} records, expected {pin['records']}"
    if sha256 != pin["sha256"]:
        return "output digest mismatch"
    return None


def spawn(argv: tuple[str, ...]) -> dict:
    """One timed run of `python3 -m treegray ARGV`, through one_run.py."""
    cmd = [
        sys.executable, "-S", str(BENCH_DIR / "one_run.py"), str(RUN_TIMEOUT_S), "--",
        sys.executable, "-m", "treegray", *argv,
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, timeout=RUN_TIMEOUT_S + 30
    )
    if proc.returncode != 0 or not proc.stdout:
        raise HarnessError(f"one_run.py failed: {proc.stderr.decode(errors='replace')}")
    run = json.loads(proc.stdout)
    run["stderr"] = proc.stderr.decode(errors="replace")[-2000:]
    return run


@dataclass
class Tally:
    """Runs attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: tuple[str, ...] = ()

    def note(self, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons += (reason,)


def _spawn_checked(argv: tuple[str, ...], digests: dict, tally: Tally) -> dict:
    run = spawn(argv)
    if run["exit"] != 0:
        reason = f"exit {run['exit']}: {run['stderr'].strip()[-300:]}"
    else:
        reason = check_output(digests, argv, run["records"], run["sha256"])
    tally.note(reason)
    return run


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def measure(workload: Workload, seconds: float, digests: dict) -> tuple[dict[str, list[float]], dict[str, float], Tally]:
    """Closed loop of subprocess runs; returns (samples, values, tally).

    samples holds each end-to-end metric's per-run values, values the
    reported figure: their median.
    """
    tally = Tally()
    probes = []
    if workload.is_verify:
        probes = [_spawn_checked(VERIFY_PROBE, digests, tally) for _ in range(SETUP_PROBES + 1)][1:]
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        runs.append(_spawn_checked(workload.argv, digests, tally))
        if time.perf_counter() + runs[-1]["wall_ns"] / 1e9 > deadline:
            break
    # Runs that exited cleanly are timed even when their output is wrong;
    # the tally already counts them as failed.
    timed = [r for r in runs if r["exit"] == 0 and r["records"]]
    setups = [r["first_ns"] / 1e9 for r in (probes if workload.is_verify else timed) if r["exit"] == 0 and r["records"]]
    if not timed or not setups:
        raise HarnessError(f"no clean run of {workload.name}: {tally.reasons}")
    walls = [r["wall_ns"] / 1e9 for r in timed]
    samples = {
        "wall_s": walls,
        "trees_per_s": [workload.trees / w for w in walls],
        "setup_s": setups,
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in timed],
    }
    if workload.is_verify:
        # The whole report is one record: each run's only gap is spawn to
        # report, so for verify the gaps stand in for wall_s.
        samples["gap_p50_us"] = samples["gap_p99_us"] = [r["last_ns"] / 1e3 for r in timed]
    else:
        streamed = [r for r in timed if r["gaps"]]
        if not streamed:
            raise HarnessError(f"no run of {workload.name} delivered two records apart")
        samples["gap_p50_us"] = [r["gap_p50_ns"] / 1e3 for r in streamed]
        samples["gap_p99_us"] = [r["gap_p99_ns"] / 1e3 for r in streamed]
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    return samples, values, tally


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "treegray").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
    }
