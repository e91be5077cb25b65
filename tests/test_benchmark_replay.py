"""Replays the first pooled seed of every benchmark operation at full size.

Each output must pass the operation's own check and hash to the digest
stored in ``benchmarks/reference.json``, so a moved bit in any workload
(the lifetime sweep, the oracle, the Monte-Carlo) fails here and not only
in a benchmark run.  ``benchmarks/workloads.py`` is loaded without writing
a bytecode cache, so nothing is written under ``benchmarks/``.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", BENCHMARKS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = load_workloads()
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
