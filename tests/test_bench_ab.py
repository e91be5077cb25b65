"""tools/bench_ab.py: alternating A/B runs of the benchmark on two trees."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_ab.py"
STATS = {"median", "q1", "q3", "n"}


def copy_tree(dest: Path) -> Path:
    """The files a benchmark run reads, without caches or outputs."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "scenarios", "benchmarks"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def test_smoke_pairs_alternate_and_fill_the_schema(tmp_path):
    base = copy_tree(tmp_path / "base")
    change = copy_tree(tmp_path / "change")
    with open(change / "src" / "lifeadd" / "__init__.py", "a") as f:
        f.write("# one more source line\n")
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(base), str(change), "--out",
         str(out), "--smoke", "--seconds", "0", "--pairs", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]

    assert report["settings"]["workloads"] == workloads
    assert report["settings"]["pairs"] == 2
    assert set(report["machine"]) == {"python", "numpy", "cpu_model",
                                      "nproc"}
    assert report["machine"]["python"]
    assert report["same_benchmark"] is True
    sides = report["sides"]
    assert sides["change"]["src.lines"] == sides["base"]["src.lines"] + 1

    runs = report["runs"]
    assert len(runs) == len(workloads) * 2 * 2
    for run in runs:
        first = "base" if run["pair"] % 2 == 0 else "change"
        assert (run["side"] == first) == (run["position"] == 0)
        assert run["seed"] == 1 + run["pair"]
        assert run["result"]["correct"] is True

    assert list(report["workloads"]) == workloads
    for summary in report["workloads"].values():
        assert summary["failed"] == {"base": 0, "change": 0}
        assert summary["runs_without_result"] == {"base": 0, "change": 0}
        assert all(n > 0 for n in summary["attempted"].values())
        assert list(summary["metrics"]) == [
            m["name"] for m in manifest["end_to_end"]]
        for name, metric in summary["metrics"].items():
            spec = next(m for m in manifest["end_to_end"]
                        if m["name"] == name)
            assert (metric["unit"], metric["better"], metric["bound"]) == (
                spec["unit"], spec["better"], spec["bound"])
            assert set(metric["base"]) == set(metric["change"]) == STATS
            assert metric["pairs"] == 2 == len(metric["ratios"])
            assert 0 <= metric["pairs_won"] <= 2
            assert isinstance(metric["gain_shown"], bool)
            assert isinstance(metric["within_bound"], bool)


def test_unknown_workload_is_refused(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--out",
         str(tmp_path / "ab.json"), "--workload", "nope"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "unknown workload" in proc.stderr
    assert not (tmp_path / "ab.json").exists()
