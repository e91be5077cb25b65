"""Deterministic discrete-event core: queue, integer-ns clock, seeded streams.

Time is an integer nanosecond count so event ordering never suffers
floating-point drift; microsecond-scale MAC timings are exactly
representable.  Ties dequeue in scheduling order via a sequence counter.
Heap entries are named tuples ordered by ``(time, sequence)``: the
sequence is unique, so a comparison never reaches the event kind.

A ``RandomStream`` draws its doubles in blocks from the same PCG64
stream a scalar caller would use, and the values it returns are those
scalar ``Generator`` calls return.  Two rules keep that exact.  A
Poisson draw with a finite mean below 10 is numpy's own algorithm (the
multiplication method) on the buffered doubles, which numpy feeds the
same ``next_double`` values.  Every other draw first rewinds the
generator past the doubles not yet consumed (``PCG64.advance`` by minus
their count), keeping PCG64's buffered 32-bit half, which ``integers``
reads and ``advance`` clears.
"""

from __future__ import annotations

import math
from enum import Enum
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

NS_PER_S = 1_000_000_000

# Doubles a RandomStream draws from its generator at once.
_DRAW_BLOCK = 256

# numpy's Poisson uses the multiplication method below this mean.
_POISSON_MULT_MAX = 10.0

# Recorded in report provenance so a run can be reproduced bit for bit.
PRNG_ID = "numpy-pcg64/seedsequence-spawn"


class CausalityViolation(RuntimeError):
    """An event was scheduled before the current simulation time."""


class EventKind(Enum):
    WAKE = "wake"
    TX_END = "tx_end"
    ACK_END = "ack_end"
    TIMEOUT = "timeout"
    BACKOFF_END = "backoff_end"
    BEACON = "beacon"
    CYCLE_START = "cycle_start"
    END_OF_SIM = "end_of_sim"

    # Members are singletons: hash by identity, in C, for dispatch tables
    # (Enum's own __hash__ is Python code).
    __hash__ = object.__hash__


class Event(NamedTuple):
    time: int
    sequence: int
    kind: EventKind
    device: int | None = None


def seconds_to_ns(seconds: float) -> int:
    """Round a duration to integer nanoseconds, half up."""
    return math.floor(seconds * NS_PER_S + 0.5)


def ns_to_seconds(ns: int) -> float:
    return ns / NS_PER_S


class EventQueue:
    """Priority queue of events ordered by (time, sequence)."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._now = 0

    def schedule(self, time: int, kind: EventKind,
                 device: int | None = None) -> Event:
        if time < self._now:
            raise CausalityViolation(
                f"cannot schedule {kind} at {time} ns; clock is at {self._now} ns")
        # tuple.__new__ skips the NamedTuple's Python-level constructor.
        event = tuple.__new__(Event, (time, self._seq, kind, device))
        self._seq += 1
        heappush(self._heap, event)
        return event

    def next(self) -> Event:
        """Pop the earliest event, or an END_OF_SIM sentinel when empty."""
        if not self._heap:
            return Event(self._now, self._seq, EventKind.END_OF_SIM)
        event = heappop(self._heap)
        if event.time < self._now:
            raise AssertionError("event queue lost monotonicity")
        self._now = event.time
        return event

    def __len__(self) -> int:
        return len(self._heap)


class RandomStream:
    """One independent seeded substream of the master seed.

    The same (master_seed, stream_id) always yields the same draw
    sequence, regardless of what other streams consumed.  Doubles are
    drawn ``_DRAW_BLOCK`` at a time; see the module docstring for why
    the values equal one scalar ``Generator`` call per draw.
    """

    def __init__(self, master_seed: int, stream_id: int) -> None:
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_id,))
        self._generator = np.random.Generator(np.random.PCG64(ss))
        self._doubles: list[float] = []   # pending draws, next one last

    def _refill(self) -> list[float]:
        doubles = self._generator.random(_DRAW_BLOCK).tolist()
        doubles.reverse()
        self._doubles = doubles
        return doubles

    def _sync(self) -> None:
        """Rewind the generator past the doubles not yet consumed."""
        unused = len(self._doubles)
        if unused:
            bit_generator = self._generator.bit_generator
            state = bit_generator.state
            bit_generator.advance(-unused)
            # advance() also clears the buffered 32-bit half; keep it.
            state["state"] = bit_generator.state["state"]
            bit_generator.state = state
            self._doubles = []

    def uniform(self) -> float:
        """Uniform draw in (0, 1]."""
        return 1.0 - (self._doubles or self._refill()).pop()

    def poisson(self, mean: float) -> int:
        if mean < 0:
            raise ValueError("mean must be >= 0")
        if mean == 0:
            return 0
        if not 0 < mean < _POISSON_MULT_MAX:  # also NaN and inf
            self._sync()
            return int(self._generator.poisson(mean))
        # numpy's random_poisson_mult, on the same doubles.
        limit = math.exp(-mean)
        doubles = self._doubles
        count = 0
        prod = 1.0
        while True:
            if not doubles:
                doubles = self._refill()
            prod *= doubles.pop()
            if prod <= limit:
                return count
            count += 1

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        self._sync()
        return int(self._generator.integers(low, high + 1))
