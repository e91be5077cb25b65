"""lifeadd benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/bench.py --workload field_dcf --seed 3 --seconds 25 --trace 0

Runs the workload's operations back to back (one caller, one process, a
closed loop) for ``--seconds``, always finishing at least one bundle (one
operation of each type).  Every output is checked; at full size each one
is also compared with the digest stored in ``reference.json``.  The last
line of standard output is the result object; ``benchmarks/out/`` gets
the same result with its run metadata, and the traced run's spans.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace
1`` runs every operation twice on the same inputs, untraced and traced,
and reports the per-layer metrics plus the tracing overhead.

Maintenance: ``--write-manifest`` rewrites ``BENCHMARK.json`` from the
definitions below; ``--write-reference`` recomputes the stored digests
(only on a commit whose outputs are trusted).  ``--smoke`` shrinks every
operation for the benchmark's own tests.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
MANIFEST = ROOT / "BENCHMARK.json"

RUN_SECONDS = 28
# Set-up is timed this many times before every untraced operation, so its
# median samples the whole run, as the operations' medians do.
SETUPS_PER_OP = 3
EVENT_KINDS = ("wake", "tx_end", "ack_end", "timeout", "backoff_end",
               "beacon", "cycle_start")

# (name, unit, better, bound): the metrics a user of the program sees.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("sim_s_per_wall_s", "s/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better): metrics of single layers, from the traced run.
PER_LAYER = (
    ("kernel.events", "count", "lower"),
    *((f"kernel.events.{k}", "count", "lower") for k in EVENT_KINDS),
    ("kernel.schedule_ns", "ns", "lower"),
    ("kernel.next_ns", "ns", "lower"),
    ("kernel.queue_depth_max", "count", "lower"),
    ("kernel.rng_draws", "count", "lower"),
    ("mac.events_per_sim_s", "1/s", "lower"),
    ("mac.us_per_event", "us", "lower"),
    ("mac.self_s", "s", "lower"),
    ("mac.attempts", "count", "higher"),
    ("mac.successes", "count", "higher"),
    ("mac.collisions", "count", "lower"),
    ("mac.tx_per_event", "ratio", "higher"),
    ("energy.deaths", "count", "lower"),
    ("energy.budget_us", "us", "lower"),
    ("solver.assign_rates_calls", "count", "lower"),
    ("solver.assign_rates_us", "us", "lower"),
    ("solver.oracle_s", "s", "lower"),
    ("solver.bounds_us", "us", "lower"),
    ("formulas.eval_us", "us", "lower"),
    ("renewal.cycles_per_s.n3", "1/s", "higher"),
    ("renewal.cycles_per_s.n30", "1/s", "higher"),
    ("renewal.validate_us", "us", "lower"),
    ("scenario.parse_ms", "ms", "lower"),
    ("topology.build_ms", "ms", "lower"),
    ("report.emit_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("src.lines", "count", "lower"),
)


def load_package():
    """Import lifeadd from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "lifeadd" / "__init__.py").is_file():
        sys.exit(f"bench: no lifeadd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lifeadd
    if Path(lifeadd.__file__).resolve().parent != SRC / "lifeadd":
        sys.exit(f"bench: imported lifeadd from {lifeadd.__file__}")
    if not (ROOT / "scenarios").is_dir():
        sys.exit("bench: no scenarios/ directory in this checkout")


# -- metadata -------------------------------------------------------------


def _src_files() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def src_digest() -> str:
    h = hashlib.sha256()
    for path in _src_files():
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in _src_files())


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "src_sha256": src_digest(),
            "src_lines": src_lines()}


# -- statistics -------------------------------------------------------------


def highest_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    best = None
    for p in (90, 99, 99.9):
        if len(ordered) * (100 - p) / 100 >= 10:
            k = min(len(ordered) - 1, int(len(ordered) * p / 100))
            best = (p, ordered[k])
    return best


def per_bundle(samples: dict[str, list[float]]) -> float:
    """Sum over operation types of the median of that type's samples."""
    return sum(statistics.median(v) for v in samples.values())


def describe(name: str, values: list[float], unit: str) -> str:
    line = (f"# {name}: n={len(values)} median={statistics.median(values):.6g}"
            f" {unit}")
    tail = highest_percentile(values)
    if tail:
        line += f" p{tail[0]:g}={tail[1]:.6g} {unit}"
    return line


# -- running operations --------------------------------------------------------


class Runner:
    """Executes and checks operations, accumulating failures."""

    def __init__(self, workload, sizes, references, counter_cache):
        self.workload = workload
        self.sizes = sizes
        self.references = references
        self.counter_cache = counter_cache
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def execute(self, ctx, op, sim_seed, tracer=None):
        """Run one operation; return (outcome or None, wall seconds).

        With a tracer, the operation runs inside an ``op.<type>`` span.
        """
        from workloads import op_key
        key = op_key(self.workload, op, sim_seed, self.sizes)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = op.run(ctx, sim_seed, self.sizes)
            else:
                with tracer.span("op." + op.name):
                    outcome = op.run(ctx, sim_seed, self.sizes)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failure
            self.fail(key, [f"raised {type(exc).__name__}: {exc}"])
            return None, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        problems = op.check(ctx, outcome, self.sizes)
        if self.sizes.full:
            digest = hashlib.sha256(outcome.output).hexdigest()
            expected = self.references.get(key)
            if expected is None:
                problems.append("no stored reference digest")
            elif digest != expected:
                problems.append(f"report digest {digest[:16]} differs from "
                                f"reference {expected[:16]}")
        if problems:
            self.fail(key, problems)
            return None, wall
        return outcome, wall

    def check_counters(self, key: str, counters: dict) -> None:
        previous = self.counter_cache.setdefault(key, counters)
        if previous != counters:
            diff = sorted(k for k in set(previous) | set(counters)
                          if previous.get(k) != counters.get(k))
            self.fail(key, ["deterministic counters differ from an earlier "
                            f"run of the same code: {diff}"])

    def fail(self, key: str, problems: list[str]) -> None:
        """Count one failed operation and log each of its problems."""
        self.failed += 1
        for problem in problems:
            self.failures.append(f"{key}: {problem}")
            print(f"# FAILED {key}: {problem}", file=sys.stderr)


def run_untraced(runner, workload, seed, seconds):
    walls, sims, setups = defaultdict(list), defaultdict(list), []
    deadline = time.perf_counter() + seconds
    for k, (op, sim_seed) in enumerate(workload.plan(seed)):
        if k >= len(workload.ops) and time.perf_counter() >= deadline:
            break
        for _ in range(SETUPS_PER_OP):
            t0 = time.perf_counter()
            ctx = workload.setup()
            setups.append(time.perf_counter() - t0)
        outcome, wall = runner.execute(ctx, op, sim_seed)
        if outcome is not None:
            walls[op.name].append(wall)
            sims[op.name].append(outcome.sim_s)
    return walls, sims, setups


def _self_ns(spans, first, last) -> dict[str, int]:
    """Self time per span name over spans[first:last]."""
    child_ns = Counter()
    for _, start, end, parent, _ in spans[first:last]:
        if parent is not None:
            child_ns[parent] += end - start
    out = Counter()
    for i in range(first, last):
        name, start, end, _, _ = spans[i]
        out[name] += end - start - child_ns[i]
    return out


def run_traced(runner, workload, seed, seconds):
    """Each operation untraced, then traced on the same inputs."""
    from tracing import Tracer, instrumented
    from workloads import des_summary, op_key
    ctx = workload.setup()
    tracer = Tracer()
    ops = []
    deadline = time.perf_counter() + seconds
    for k, (op, sim_seed) in enumerate(workload.plan(seed)):
        if k >= len(workload.ops) and time.perf_counter() >= deadline:
            break
        plain, plain_wall = runner.execute(ctx, op, sim_seed)
        tracer.reset_counters()
        first = len(tracer.spans)
        with instrumented(tracer):
            traced, traced_wall = runner.execute(ctx, op, sim_seed, tracer)
        if plain is None or traced is None:
            continue
        key = op_key(workload, op, sim_seed, runner.sizes)
        if traced.output != plain.output:
            runner.fail(key, ["traced output differs from untraced output"])
            continue
        names = Counter(s[0] for s in tracer.spans[first:])
        counters = dict(tracer.counts)
        counters["kernel.queue_depth_max"] = tracer.queue_depth_max
        counters["solver.assign_rates_calls"] = names["solver.assign_rates"]
        if counters.get("kernel.events"):
            counters.update(des_summary(traced))
        runner.check_counters(key, counters)
        self_ns = _self_ns(tracer.spans, first, len(tracer.spans))
        ops.append({"type": op.name, "sim_s": plain.sim_s,
                    "plain_wall": plain_wall, "traced_wall": traced_wall,
                    "counters": counters,
                    "mac_self_s": (self_ns["mac.run"]
                                   - sum(tracer.kernel_ns.values())) / 1e9,
                    "kernel_ns": dict(tracer.kernel_ns)})
    return tracer, ops


# -- metrics -------------------------------------------------------------------


def end_to_end_metrics(walls, sims, setup_times) -> dict[str, float]:
    wall = per_bundle(walls)
    return {"wall_s": wall,
            "sim_s_per_wall_s": per_bundle(sims) / wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer_metrics(workload, tracer, ops) -> dict[str, float]:
    n_types = len(workload.ops)
    bundle = Counter()
    sim_s = 0.0
    for rec in ops[:n_types]:
        bundle.update({k: v for k, v in rec["counters"].items()
                       if k != "kernel.queue_depth_max"})
        if rec["counters"].get("kernel.events"):
            sim_s += rec["sim_s"]
    events = bundle["kernel.events"]
    totals, counts = Counter(), Counter()
    for name, start, end, _, attrs in tracer.spans:
        key = name if name != "renewal.simulate_cycles" \
            else f"cycles.n{attrs['n']}"
        totals[key] += end - start
        counts[key] += attrs.get("cycles", 1)
    kernel_ns = Counter()
    calls = Counter()
    for rec in ops:
        kernel_ns.update(rec["kernel_ns"])
        calls.update({k: rec["counters"].get(f"kernel.{k}_calls", 0)
                      for k in ("schedule", "next")})
    des = [rec for rec in ops if rec["counters"].get("kernel.events")]

    def mean(name, scale):
        return totals[name] / counts[name] / scale if counts[name] else 0.0

    def rate(name):
        return counts[name] / (totals[name] / 1e9) if totals[name] else 0.0

    def by_type(field):
        samples = defaultdict(list)
        for rec in ops:
            samples[rec["type"]].append(field(rec))
        return per_bundle(samples)

    plain = by_type(lambda r: r["plain_wall"])
    overhead = by_type(lambda r: r["traced_wall"]) - plain
    metrics = {
        "kernel.events": events,
        **{f"kernel.events.{k}": bundle[f"kernel.events.{k}"]
           for k in EVENT_KINDS},
        "kernel.schedule_ns": (kernel_ns["schedule"] / calls["schedule"]
                               if calls["schedule"] else 0.0),
        "kernel.next_ns": (kernel_ns["next"] / calls["next"]
                           if calls["next"] else 0.0),
        "kernel.queue_depth_max": max(
            (r["counters"]["kernel.queue_depth_max"] for r in ops[:n_types]),
            default=0),
        "kernel.rng_draws": bundle["kernel.rng_draws"],
        "mac.events_per_sim_s": events / sim_s if sim_s else 0.0,
        "mac.us_per_event": (
            1e6 * sum(r["plain_wall"] for r in des)
            / sum(r["counters"]["kernel.events"] for r in des)
            if des else 0.0),
        "mac.self_s": by_type(lambda r: r["mac_self_s"]) if des else 0.0,
        "mac.attempts": bundle["mac.attempts"],
        "mac.successes": bundle["mac.successes"],
        "mac.collisions": bundle["mac.collisions"],
        "mac.tx_per_event": bundle["mac.attempts"] / events if events else 0.0,
        "energy.deaths": bundle["energy.deaths"],
        "energy.budget_us": mean("energy.budget", 1e3),
        "solver.assign_rates_calls": bundle["solver.assign_rates_calls"],
        "solver.assign_rates_us": mean("solver.assign_rates", 1e3),
        "solver.oracle_s": mean("solver.oracle", 1e9),
        "solver.bounds_us": mean("solver.bounds", 1e3),
        "formulas.eval_us": mean("op.closed_forms", 1e3),
        "renewal.cycles_per_s.n3": rate("cycles.n3"),
        "renewal.cycles_per_s.n30": rate("cycles.n30"),
        "renewal.validate_us": mean("renewal.validate", 1e3),
        "scenario.parse_ms": mean("scenario.parse", 1e6),
        "topology.build_ms": mean("topology.build", 1e6),
        "report.emit_ms": mean("report.emit", 1e6),
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / plain,
        "src.lines": src_lines(),
    }
    return metrics


# -- files ---------------------------------------------------------------------


def manifest() -> dict:
    from workloads import WORKLOADS
    return {
        "command": ["python3", "benchmarks/bench.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def write_reference(names) -> int:
    """Recompute the stored digest of every pooled full-size operation."""
    from workloads import FULL, WORKLOADS, op_key
    references = (json.loads(REFERENCE.read_text())
                  if REFERENCE.is_file() else {})
    failed = 0
    for name in names:
        workload = WORKLOADS[name]
        ctx = workload.setup()
        for op in workload.ops:
            for sim_seed in op.pool:
                key = op_key(workload, op, sim_seed, FULL)
                outcome = op.run(ctx, sim_seed, FULL)
                problems = op.check(ctx, outcome, FULL)
                if problems:
                    failed += 1
                    print(f"{key}: NOT STORED: {problems}", file=sys.stderr)
                    references.pop(key, None)
                    continue
                references[key] = hashlib.sha256(outcome.output).hexdigest()
                print(f"{key}: {references[key]}", flush=True)
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True)
                         + "\n")
    return 1 if failed else 0


# -- entry -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations, no reference digests")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    load_package()
    sys.path.insert(0, str(HERE))
    from workloads import FULL, SMOKE, WORKLOADS

    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.write_reference:
        return write_reference([args.workload] if args.workload
                               else list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if not REFERENCE.is_file() and not args.smoke:
        sys.exit(f"bench: missing {REFERENCE}")

    workload = WORKLOADS[args.workload]
    sizes = SMOKE if args.smoke else FULL
    references = {} if args.smoke else json.loads(REFERENCE.read_text())
    meta = metadata(args)
    OUT.mkdir(exist_ok=True)
    cache_path = OUT / f"counters-{meta['src_sha256'][:16]}.json"
    counter_cache = (json.loads(cache_path.read_text())
                     if cache_path.is_file() else {})
    runner = Runner(workload, sizes, references, counter_cache)
    print(f"# lifeadd benchmark {json.dumps(meta)}")

    samples = {}
    if args.trace:
        tracer, ops = run_traced(runner, workload, args.seed, args.seconds)
        definitions = PER_LAYER
        metrics = (per_layer_metrics(workload, tracer, ops) if ops else {})
        cache_path.write_text(json.dumps(runner.counter_cache, indent=0,
                                         sort_keys=True))
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.dump()))
    else:
        walls, sims, setups = run_untraced(runner, workload, args.seed,
                                           args.seconds)
        samples = {"setup_s": setups, **{f"{k}.wall_s": v
                                         for k, v in walls.items()}}
        for name, values in samples.items():
            print(describe(name, values, "s"))
        definitions = END_TO_END
        complete = len(walls) == len(workload.ops)
        metrics = (end_to_end_metrics(walls, sims, setups)
                   if complete else {})

    units = {d[0]: d[1] for d in definitions}
    for name, value in metrics.items():
        print(f"# metric {name} = {value!r} {units[name]}")
    print(f"# failed_ops = {runner.failed}/{runner.attempted}")
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"meta": meta, "result": result,
                              "failures": runner.failures,
                              "samples": samples}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
