import math

import numpy as np
import pytest
from scipy import stats

from lifeadd.kernel import (CausalityViolation, EventKind, EventQueue,
                            RandomStream, sample_exponential, seconds_to_ns)


def test_ties_dequeue_in_scheduling_order():
    q = EventQueue()
    q.schedule(5, EventKind.WAKE, device=0)
    q.schedule(5, EventKind.WAKE, device=1)
    assert q.next().device == 0
    assert q.next().device == 1


def test_simultaneous_mixed_kinds_pop_in_scheduling_order():
    # EventKind is not orderable: a comparison that reached the kind raises.
    q = EventQueue()
    kinds = [k for k in EventKind if k is not EventKind.END_OF_SIM]
    scheduled = [q.schedule(7, kinds[i % len(kinds)], device=i, ap=i % 4)
                 for i in range(1000)]
    popped = [q.next() for _ in range(1000)]
    assert popped == scheduled
    assert [e.sequence for e in popped] == list(range(1000))
    last = popped[-1]
    assert (last.time, last.sequence, last.kind, last.device, last.ap) == (
        7, 999, kinds[999 % len(kinds)], 999, 3)
    assert q.next().kind is EventKind.END_OF_SIM


def test_time_order_beats_insertion_order():
    q = EventQueue()
    q.schedule(5, EventKind.WAKE, device=0)
    q.schedule(3, EventKind.WAKE, device=1)
    assert q.next().device == 1
    assert q.next().device == 0


def test_empty_queue_yields_sentinel():
    q = EventQueue()
    event = q.next()
    assert event.kind == EventKind.END_OF_SIM


def test_scheduling_in_the_past_is_rejected():
    q = EventQueue()
    q.schedule(10, EventKind.WAKE, device=0)
    q.next()
    with pytest.raises(CausalityViolation):
        q.schedule(9, EventKind.WAKE, device=0)
    q.schedule(10, EventKind.WAKE, device=0)  # present is fine


def test_rounding_half_up():
    assert seconds_to_ns(1.0) == 1_000_000_000
    assert seconds_to_ns(1.5e-9) == 2
    assert seconds_to_ns(1.4e-9) == 1
    assert seconds_to_ns(4e-6) == 4000


def test_exponential_mean():
    stream = RandomStream(123, 0)
    n = 1_000_000
    draws = np.array([stream.exponential(1000.0) for _ in range(n)])
    # 3 sigma of the sample mean is 3/sqrt(n) relative
    assert abs(draws.mean() - 1e-3) / 1e-3 < 3.0 / math.sqrt(n)


def test_exponential_unit_uniform_edge_is_zero():
    class OneStream:
        def uniform(self):
            return 1.0

    assert sample_exponential(OneStream(), 500.0) == 0.0


def test_exponential_rejects_bad_rate():
    stream = RandomStream(1, 0)
    with pytest.raises(ValueError):
        sample_exponential(stream, 0.0)


def test_memorylessness_ks():
    stream = RandomStream(7, 0)
    rate = 200.0
    draws = np.array([stream.exponential(rate) for _ in range(100_000)])
    t = 1.0 / rate
    conditioned = draws[draws > t] - t
    result = stats.kstest(conditioned, "expon", args=(0, 1.0 / rate))
    assert result.pvalue > 0.01


def test_streams_are_reproducible_and_independent():
    a1 = RandomStream(99, 4)
    a2 = RandomStream(99, 4)
    b = RandomStream(99, 5)
    seq1 = [a1.uniform() for _ in range(10)]
    # interleave consumption on the sibling stream
    for _ in range(3):
        b.uniform()
    seq2 = [a2.uniform() for _ in range(10)]
    assert seq1 == seq2
    assert [b.uniform() for _ in range(10)] != seq1


def test_poisson_edge():
    stream = RandomStream(5, 0)
    assert stream.poisson(0.0) == 0
    with pytest.raises(ValueError):
        stream.poisson(-1.0)
