"""Alternating A/B runs of the benchmark on two source trees.

    python3 tools/bench_ab.py BASE_TREE CHANGE_TREE --pairs 10 --seed 101 \
        --out BENCH_<n>.json [--workload single_ap ...] [--seconds 28]

Each tree is a checkout holding ``benchmarks/bench.py``, ``src/`` and
``scenarios/``; each side runs its own ``bench.py --trace 0`` in a
subprocess with this interpreter.  For every workload (all of
``BENCHMARK.json`` unless ``--workload`` is given) and pair ``k``, both
sides run with seed ``--seed + k``, the base first in even pairs and the
change first in odd ones, so a drift in the host's speed falls on both
sides alike.

The output file holds every result line, and per workload and end-to-end
metric (names, units, directions and bounds from the base tree's
``BENCHMARK.json``):

* each side's median and quartiles;
* the per-pair ratios, change / base, and the pairs the change won
  (ties count for neither);
* ``gain_shown``: the change won at least nine tenths of the pairs and
  the medians differ by more than the base's interquartile range;
* ``within_bound``: the change's median is not worse than the base's by
  more than the metric's bound.

It also holds each side's failed and attempted operations, runs that gave
no result line, ``src.lines``, commit and source digest, and the machine
metadata the benchmark reports.  The exit code is 1 if any run failed an
operation or gave no result, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
META_PREFIX = "# lifeadd benchmark "


def benchmark_digest(tree: Path) -> str:
    """sha256 over ``BENCHMARK.json``, the benchmark's code and the
    reference digests its operations are checked against."""
    h = hashlib.sha256()
    bench = tree / "benchmarks"
    for path in [tree / "BENCHMARK.json", *sorted(bench.glob("*.py")),
                 bench / "reference.json"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              smoke: bool) -> dict:
    """One ``bench.py --trace 0`` run; its meta and result lines."""
    argv = [sys.executable, "benchmarks/bench.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    meta = next((json.loads(line[len(META_PREFIX):]) for line in lines
                 if line.startswith(META_PREFIX)), None)
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"returncode": proc.returncode, "meta": meta, "result": result,
            "stderr_tail": proc.stderr[-2000:] if result is None else ""}


def spread(values: list[float]) -> dict:
    """Median and quartiles (the inclusive method; one value is all three)."""
    if len(values) < 2:
        q1 = med = q3 = values[0] if values else None
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def compare(metric: dict, pairs: list[dict]) -> dict:
    """Both sides' spread, the per-pair ratios and the verdicts."""
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: [] for side in SIDES}
    ratios, won = [], 0
    for pair in pairs:
        got = [pair[side]["metrics"].get(name, {}).get("value")
               if pair[side] else None for side in SIDES]
        if None in got:
            continue
        base, change = got
        values["base"].append(base)
        values["change"].append(change)
        ratios.append(change / base if base else None)
        won += (change > base) if higher else (change < base)
    out = {"unit": metric["unit"], "better": metric["better"],
           "bound": metric["bound"],
           **{side: spread(values[side]) for side in SIDES},
           "ratios": ratios, "pairs": len(ratios), "pairs_won": won,
           "gain_shown": False, "within_bound": None}
    base, change = out["base"]["median"], out["change"]["median"]
    if base is not None:
        gap = change - base if higher else base - change  # > 0: better
        out["gain_shown"] = (won >= 0.9 * len(ratios)
                             and gap > out["base"]["q3"] - out["base"]["q1"])
        out["within_bound"] = -gap <= metric["bound"] * abs(base)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the parent's tree")
    parser.add_argument("change", type=Path, help="the change's tree")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="pair k runs seed SEED + k on both sides")
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations, for the tool's own test")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "benchmarks" / "bench.py").is_file():
            parser.error(f"no benchmarks/bench.py under {tree}")
    manifest = json.loads((trees["base"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in manifest["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    seconds = (manifest["run_seconds"] if args.seconds is None
               else args.seconds)

    runs, summary = [], {}
    for workload in workloads:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {}
            for position, side in enumerate(order):
                run = run_bench(trees[side], workload, seed, seconds,
                                args.smoke)
                runs.append({"workload": workload, "pair": k, "seed": seed,
                             "side": side, "position": position, **run})
                pair[side] = run["result"]
                print(f"{workload} pair {k} {side}: "
                      f"{json.dumps(run['result'])}", flush=True)
            pairs.append(pair)
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {
            **{key: {side: sum(r["result"][key] for r in mine
                               if r["side"] == side and r["result"])
                     for side in SIDES} for key in ("failed", "attempted")},
            "runs_without_result": {side: sum(
                1 for r in mine if r["side"] == side and not r["result"])
                for side in SIDES},
            "metrics": {m["name"]: compare(m, pairs)
                        for m in manifest["end_to_end"]},
        }

    def side_info(side: str) -> dict:
        meta = next((r["meta"] for r in runs
                     if r["side"] == side and r["meta"]), {})
        return {"commit": meta.get("git_commit"),
                "src_sha256": meta.get("src_sha256"),
                "src.lines": meta.get("src_lines"),
                "benchmark_sha256": benchmark_digest(trees[side])}

    sides = {side: side_info(side) for side in SIDES}
    machine = next((r["meta"] for r in runs if r["meta"]), {})
    report = {
        "settings": {"workloads": workloads, "pairs": args.pairs,
                     "first_seed": args.seed, "seconds": seconds,
                     "smoke": args.smoke,
                     "order": "base first in even pairs, change first "
                              "in odd ones"},
        "machine": {key: machine.get(key)
                    for key in ("python", "numpy", "cpu_model", "nproc")},
        "sides": sides,
        "same_benchmark": (sides["base"]["benchmark_sha256"]
                           == sides["change"]["benchmark_sha256"]),
        "workloads": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    bad = any(w[key][side] for w in summary.values()
              for key in ("failed", "runs_without_result") for side in SIDES)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
