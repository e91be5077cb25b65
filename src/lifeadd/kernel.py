"""Deterministic discrete-event core: queue, integer-ns clock, seeded streams.

Time is an integer nanosecond count so event ordering never suffers
floating-point drift; microsecond-scale MAC timings are exactly
representable.  Ties dequeue in scheduling order via a sequence counter.
Heap entries are named tuples ordered by ``(time, sequence)``: the
sequence is unique, so a comparison never reaches the event kind.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

NS_PER_S = 1_000_000_000

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
    ap: int | None = None


def seconds_to_ns(seconds: float) -> int:
    """Round a duration to integer nanoseconds, half up."""
    return int(math.floor(seconds * NS_PER_S + 0.5))


def ns_to_seconds(ns: int) -> float:
    return ns / NS_PER_S


class EventQueue:
    """Priority queue of events ordered by (time, sequence)."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._now = 0

    def schedule(self, time: int, kind: EventKind, device: int | None = None,
                 ap: int | None = None) -> Event:
        if time < self._now:
            raise CausalityViolation(
                f"cannot schedule {kind} at {time} ns; clock is at {self._now} ns")
        event = Event(time, self._seq, kind, device, ap)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def next(self) -> Event:
        """Pop the earliest event, or an END_OF_SIM sentinel when empty."""
        if not self._heap:
            return Event(self._now, self._seq, EventKind.END_OF_SIM)
        event = heapq.heappop(self._heap)
        if event.time < self._now:
            raise AssertionError("event queue lost monotonicity")
        self._now = event.time
        return event

    def __len__(self) -> int:
        return len(self._heap)


class RandomStream:
    """One independent seeded substream of the master seed.

    The same (master_seed, stream_id) always yields the same draw
    sequence, regardless of what other streams consumed.
    """

    def __init__(self, master_seed: int, stream_id: int) -> None:
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    def uniform(self) -> float:
        """Uniform draw in (0, 1]."""
        return 1.0 - self.generator.random()

    def exponential(self, rate: float) -> float:
        return sample_exponential(self, rate)

    def poisson(self, mean: float) -> int:
        if mean < 0:
            raise ValueError("mean must be >= 0")
        if mean == 0:
            return 0
        return int(self.generator.poisson(mean))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return int(self.generator.integers(low, high + 1))


def sample_exponential(stream: RandomStream, rate: float) -> float:
    """Inverse-CDF exponential draw with mean 1/rate, in seconds.

    Uses -log(u)/rate with u in (0, 1], so u == 1 yields exactly 0 rather
    than an infinite tail value.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return -math.log(stream.uniform()) / rate
