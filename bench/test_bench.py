"""Tests of the benchmark itself, at tiny sizes:  python3 -m pytest bench"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness
import run
import tracer

SPEC = harness.load_spec()
DIGESTS = harness.load_digests()


def _units(listed: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in listed}


@pytest.mark.parametrize("name", list(harness.SMOKE))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    result = run.run_workload(harness.SMOKE[name], 0.0, False, DIGESTS, SPEC)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # One timed run at 0 s; verify also times its set-up probes.
    assert result["attempted"] == (harness.SETUP_PROBES + 2 if harness.SMOKE[name].is_verify else 1)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", list(harness.SMOKE))
def test_traced_run_emits_per_layer_metrics_within_its_wall_time(name):
    workload = harness.SMOKE[name]
    result = run.run_workload(workload, 0.0, True, DIGESTS, SPEC)
    assert result["correct"] and result["attempted"] == 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["per_layer"])
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]
    assert metrics["generator.next.calls"] >= workload.trees
    if workload.is_verify:
        assert metrics["relations.is_adjacent.oracle.calls"] == workload.trees - 1
    else:
        assert metrics["cli.write.calls"] == workload.trees


def test_corrupted_digest_raises_error_rate():
    workload = harness.SMOKE["stream-levels"]
    key = harness.digest_key(workload.argv)
    corrupted = dict(DIGESTS, **{key: dict(DIGESTS[key], sha256="0" * 64)})
    _, _, tally = harness.measure(workload, 0.0, corrupted)
    assert tally.failed / tally.attempted > 0
    assert tally.reasons == ("output digest mismatch",)
    _, traced = tracer.trace_workload(workload, 0.0, corrupted)
    assert traced.failed == traced.attempted == 2


def test_fails_without_result_when_the_source_is_missing(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream-levels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert list(harness.SMOKE) == list(harness.WORKLOADS)
    commands = [w.argv for w in (*harness.WORKLOADS.values(), *harness.SMOKE.values())]
    assert sorted(DIGESTS) == sorted(harness.digest_key(a) for a in (*commands, harness.VERIFY_PROBE))
    assert json.loads((harness.ROOT / "BENCHMARK.json").read_text())["paths"] == ["bench"]
