"""Smoke test of the benchmark: every workload at toy size, traced and untraced.

    python3 -m pytest perfbench/test_smoke.py -q

It checks the output contract of perfbench/run.py against BENCHMARK.json
and that every metric is printed with a unit.  It makes no timing
assertions, and it is not part of the tier-1 suite under tests/.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# the workload's own metrics, printed in the report above the JSON line
REPORTED = {
    "hmc-b33": ["search_s", "search_error"],
    "grid-study": ["trials_per_s", "grid_error", "paths_per_s"],
    "measure-xval": ["measure_s", "walkers_per_s", "oracle_max_z"],
}
COMMON = ["setup_s", "run_s", "failed_share"]


def run(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.05", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return lines[:-1], result


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = parse(run(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for v in result["metrics"].values():
        assert isinstance(v["value"], float) and v["value"] > 0.0
    printed = {line.split()[0]: line.split()[2:] for line in report[2:]}
    for name in COMMON + REPORTED[workload]:
        assert printed.get(name), f"{name} not printed with a unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _, result = parse(run(workload, 1))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_without_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
