"""Tests of the benchmark itself, on tiny operations (``--smoke``).

    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "bench.py"), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def smoke(workload: str, trace: int, seed: int = 5) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in MANIFEST["workloads"]])
def test_every_metric_present_with_unit_and_finite(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


def test_counts_repeat_at_the_same_seed():
    first, second = smoke("single_ap", 1, seed=9), smoke("single_ap", 1, seed=9)
    counts = [m["name"] for m in MANIFEST["per_layer"] if m["unit"] == "count"]
    assert counts
    assert {n: first["metrics"][n] for n in counts} == \
        {n: second["metrics"][n] for n in counts}


def test_manifest_matches_the_definitions(tmp_path):
    for name in ("benchmarks", "src", "scenarios"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--write-manifest"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "BENCHMARK.json").read_text()) == MANIFEST


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "analytic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
