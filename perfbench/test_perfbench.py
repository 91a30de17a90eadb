"""Smoke test of the benchmark itself: every workload, check and traced pass
at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)


def smoke(workload: str, trace: int):
    proc = run_bench(ROOT, "--workload", workload, "--smoke", "--seconds", "0",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH / "out" / f"{workload}-seed7-trace{trace}-smoke.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0, record["checks"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_passes_agree(workload):
    result, record = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0, record["checks"]
    assert record["traced_rmse"] == record["rmse"]
    assert record["traced_digests"] == record["digests"]
    assert record["missing_trace_targets"] == []
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "score", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
