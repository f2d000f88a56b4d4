"""Checks of the benchmark itself, at a small size.

Run from the repository root:

    python3 -m pytest perfbench/test_run.py
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
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# facts that depend only on the seed and the size, never on timing or tracing
DETERMINISTIC = (
    "fingerprint",
    "status_counts",
    "counters",
    "finish_rate",
    "optimal_rate",
    "report_sha256",
)


def run(workload: str, trace: int, *, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parsed(workload: str, trace: int) -> tuple[dict, dict]:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    *_, detail, result = done.stdout.splitlines()
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_runs_agree_exactly_and_report_every_metric(workload):
    runs = [parsed(workload, 0), parsed(workload, 0), parsed(workload, 1)]
    for detail, result in runs:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert detail["error_rate"] == 0
    (first, untraced), _, (_, traced) = runs
    assert list(untraced["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for detail, result in runs[1:]:
        for key in DETERMINISTIC:
            assert detail[key] == first[key], key
    assert (first["report_sha256"] is not None) == (workload == "mine_ref")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("mine_ref", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
