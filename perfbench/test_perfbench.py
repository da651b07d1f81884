"""The benchmark's own tests: tiny runs through the real command.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs once untraced and once traced at ``--seconds 1`` (the
smallest size of every workload), which takes about two minutes on 2 vCPUs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((HERE / "metric_map.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> "subprocess.CompletedProcess":
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> "tuple[dict, dict]":
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    """``(workload, trace) -> (record, result)``, run once per module."""
    return {(w, t): _result(_run(w, t)) for w in WORKLOADS for t in (0, 1)}


def test_spec_has_the_documented_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names and max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_metric_map_covers_every_metric_once():
    mapped = [m for group in MAP["layers"] for m in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    assert set(MAP["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    known = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for group in MAP["layers"]:
        for ref in group["moves"] + group["holds"]:
            workload, _, metric = ref.partition(":")
            assert workload in WORKLOADS + ["*"] and metric in known, ref


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(runs, workload):
    record, result = runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
    assert all(record["benchmarks"][0]["checks"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_changes_no_result(runs, workload):
    record, result = runs[workload, 1]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    checks = record["benchmarks"][0]["checks"]
    assert checks["traced_digest_identical"]
    untraced = runs[workload, 0][0]["benchmarks"][0]["output_digest"]
    assert record["benchmarks"][0]["output_digest"] == untraced
    assert result["metrics"]["forest.fit.calls"]["value"] > 0


def test_every_layer_metric_is_measured_somewhere(runs):
    """A misspelt metric or counter name would read 0 in every workload."""
    # Failure counters stay 0 on a healthy program, and the pool-score cache
    # only hits under partial retraining, which the paper protocol never uses.
    zero = {"engine.jobs.failed", "engine.jobs.retried", "service.errors", "forest.pool_cache.hits"}
    for spec in SPEC["per_layer"]:
        if spec["name"] not in zero:
            assert any(
                runs[w, 1][1]["metrics"][spec["name"]]["value"] for w in WORKLOADS
            ), spec["name"]


@pytest.mark.parametrize("workload", ["campaign", "service"])
def test_layer_self_time_covers_the_timed_phase(runs, workload):
    _record, result = runs[workload, 1]
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_sweep_busy_fraction_counts_pool_workers(runs):
    metrics = runs["sweep", 1][1]["metrics"]
    assert metrics["engine.shm.attaches"]["value"] > 0
    assert 0.5 < metrics["engine.busy_frac"]["value"] <= 1.05


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("campaign", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_mixed_kernel_modes(runs):
    record = runs["campaign", 0][0]
    other = json.loads(json.dumps(record))
    other["context"]["kernel_mode"] = "numpy"
    assert compare.check_comparable([record, record]) is None
    assert "kernel_mode" in compare.check_comparable([record, other])
    lines, regressed = compare.compare([record], [record], SPEC)
    assert not regressed and len(lines) == 1 + len(SPEC["end_to_end"])


def test_compare_reads_records_from_captured_stdout(runs, tmp_path):
    log = tmp_path / "base.log"
    lines = [json.dumps(part) for w in WORKLOADS for part in runs[w, 0]]
    log.write_text("\n".join(lines + ["not a record"]) + "\n")
    assert compare.load(str(log)) == [runs[w, 0][0] for w in WORKLOADS]


def test_compare_blames_host_drift_not_the_program(runs):
    base = runs["campaign", 0][0]
    slow = json.loads(json.dumps(base))
    slow["context"]["probe_ms"] = [2 * p for p in base["context"]["probe_ms"]]
    for metric in slow["benchmarks"][0]["metrics"].values():
        metric["value"] *= 2
    lines, regressed = compare.compare([base], [slow], SPEC)
    assert not regressed
    assert all(line.endswith("unresolved (host drift)") for line in lines[1:])
