"""Tiny-size smoke run of the benchmark itself.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload at ``--size tiny`` with tracing off and on, and checks
that the last stdout line is the result object with exactly the metrics
BENCHMARK.json names.  Takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_tracer_sees_names_imported_into_other_modules():
    # autotopism_group is only ever called through sbs's own binding of it.
    proc = _run(ROOT, "catalog6_cli", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["isotopy.autotopism_group.calls"]["value"] > 0
    assert metrics["sbs.verify_theorems.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
