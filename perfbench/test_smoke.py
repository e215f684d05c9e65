"""Smoke test of the benchmark command at tiny size, every output check on.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload untraced twice with the same seed and once traced, and
checks the result line against BENCHMARK.json: every metric present with its
unit, outputs correct, nothing failed, and final_error_m identical across the
two untraced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_untraced_run_reports_end_to_end_metrics(workload):
    first, second = _run(workload, 0), _run(workload, 0)
    for m in BENCH["end_to_end"]:
        value = first["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert value["value"] > 0
    assert set(first["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert first["metrics"]["final_error_m"] == second["metrics"]["final_error_m"]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_reports_per_layer_metrics(workload):
    metrics = _run(workload, 1)["metrics"]
    assert {name: v["unit"] for name, v in metrics.items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_run_without_sources_fails_without_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
