"""Replays the first pooled seed of every benchmark operation at full size.

Each output must pass the operation's own check and hash to the digest
stored in ``benchmarks/reference.json``, so a moved bit in any workload
(the lifetime sweep, the oracle, the Monte-Carlo) fails here and not only
in a benchmark run.  The benchmark's tracer must find every name it wraps
and put each back.  ``benchmarks/workloads.py`` and
``benchmarks/tracing.py`` are loaded without writing a bytecode cache, so
nothing is written under ``benchmarks/``.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from lifeadd import kernel, mac, renewal, report, scenario, solver

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    spec = importlib.util.spec_from_file_location(
        name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = load("workloads")
tracing = load("tracing")
REFERENCE = json.loads((BENCHMARKS / "reference.json").read_text())
OPS = [(w, op) for w in workloads.WORKLOADS.values() for op in w.ops]


@pytest.mark.parametrize("workload, op", OPS,
                         ids=[f"{w.name}/{op.name}" for w, op in OPS])
def test_first_pooled_op_matches_reference(workload, op):
    ctx = workload.setup()
    seed = op.pool[0]
    outcome = op.run(ctx, seed, workloads.FULL)
    assert op.check(ctx, outcome, workloads.FULL) == []
    key = workloads.op_key(workload, op, seed, workloads.FULL)
    assert hashlib.sha256(outcome.output).hexdigest() == REFERENCE[key]


def test_tracing_restores_every_attribute_it_wraps():
    owners = (kernel, mac, renewal, report, scenario, solver,
              kernel.EventQueue, kernel.RandomStream, mac.Simulation)
    before = [dict(vars(owner)) for owner in owners]

    def changed():
        return {(owner.__name__, attr)
                for owner, old in zip(owners, before)
                for attr, value in vars(owner).items()
                if old.get(attr) is not value}

    with tracing.instrumented(tracing.Tracer()):
        wrapped = changed()
    expected = {(owner.__name__, attr) for owner, attr, _ in tracing.SPANNED}
    expected |= {("lifeadd.renewal", "simulate_cycles"),
                 ("EventQueue", "schedule"), ("EventQueue", "next")}
    expected |= {("RandomStream", method) for method in tracing.RNG_METHODS}
    assert wrapped == expected
    assert changed() == set()
