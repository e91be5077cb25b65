"""Spans and counters recorded from outside the lifeadd package.

The traced run wraps the public functions of each layer for the duration
of one operation and restores them afterwards, so untraced operations run
the package exactly as users do.  Layer calls (parse, topology, budgets,
solver, one simulation, report emission, the renewal Monte-Carlo) become
spans; the per-event kernel calls (``EventQueue.schedule``/``next`` and
the ``RandomStream`` draws) are too frequent for spans and are aggregated
into counters and total nanoseconds instead.

Callers must reach the wrapped functions through their module attribute
(``scenario.parse_scenario(...)``), never through a name imported before
the wrapping, or the call goes unrecorded.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

from lifeadd import kernel, mac, renewal, report, scenario, solver

# (owner, attribute, span name).  Functions imported by name into another
# module are wrapped where the caller looks them up.
SPANNED = (
    (scenario, "parse_scenario", "scenario.parse"),
    (scenario, "build_topology", "topology.build"),
    (scenario, "energy_budget", "energy.budget"),
    (mac, "assign_rates", "solver.assign_rates"),
    (solver, "assign_rates", "solver.assign_rates"),
    (solver, "brute_force_oracle", "solver.oracle"),
    (solver, "optimality_bounds", "solver.bounds"),
    (mac, "select_rates", "mac.select_rates"),
    (mac.Simulation, "run", "mac.run"),
    (report, "emit_report", "report.emit"),
    (renewal, "validate_against_formulas", "renewal.validate"),
)

RNG_METHODS = ("uniform", "poisson", "integers")


class Tracer:
    """In-memory spans plus per-operation kernel counters."""

    def __init__(self) -> None:
        # Each span: [name, start_ns, end_ns, parent index or None, attrs].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.reset_counters()

    def reset_counters(self) -> None:
        self.counts: Counter = Counter()
        self.kernel_ns: Counter = Counter()
        self.queue_depth_max = 0

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), 0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def dump(self) -> list[dict]:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p,
                 **({"attrs": a} if a else {})}
                for n, s, e, p, a in self.spans]


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _simulate_cycles(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(rates, params, n_cycles, seed):
        with tracer.span("renewal.simulate_cycles", n=len(rates),
                         cycles=n_cycles):
            return fn(rates, params, n_cycles, seed)
    return wrapper


def _schedule(tracer: Tracer, fn):
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        t0 = clock()
        event = fn(self, *args, **kwargs)
        tracer.kernel_ns["schedule"] += clock() - t0
        tracer.counts["kernel.schedule_calls"] += 1
        depth = len(self)
        if depth > tracer.queue_depth_max:
            tracer.queue_depth_max = depth
        return event
    return wrapper


def _next(tracer: Tracer, fn):
    clock = time.perf_counter_ns
    end = kernel.EventKind.END_OF_SIM

    @functools.wraps(fn)
    def wrapper(self):
        t0 = clock()
        event = fn(self)
        tracer.kernel_ns["next"] += clock() - t0
        tracer.counts["kernel.next_calls"] += 1
        if event.kind is not end:
            tracer.counts["kernel.events"] += 1
            tracer.counts["kernel.events." + event.kind.value] += 1
        return event
    return wrapper


def _draw(tracer: Tracer, fn):
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(self, *args):
        t0 = clock()
        value = fn(self, *args)
        tracer.kernel_ns["rng"] += clock() - t0
        tracer.counts["kernel.rng_draws"] += 1
        return value
    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""
    patches = [(owner, attr, _spanned(tracer, name, getattr(owner, attr)))
               for owner, attr, name in SPANNED]
    patches.append((renewal, "simulate_cycles",
                    _simulate_cycles(tracer, renewal.simulate_cycles)))
    patches.append((kernel.EventQueue, "schedule",
                    _schedule(tracer, kernel.EventQueue.schedule)))
    patches.append((kernel.EventQueue, "next",
                    _next(tracer, kernel.EventQueue.next)))
    patches += [(kernel.RandomStream, m,
                 _draw(tracer, getattr(kernel.RandomStream, m)))
                for m in RNG_METHODS]
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
