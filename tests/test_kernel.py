import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from lifeadd.kernel import (CausalityViolation, Event, EventKind, EventQueue,
                            RandomStream, seconds_to_ns)
from lifeadd.mac import Simulation


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
    scheduled = [q.schedule(7, kinds[i % len(kinds)], device=i)
                 for i in range(1000)]
    popped = [q.next() for _ in range(1000)]
    assert popped == scheduled
    assert [e.sequence for e in popped] == list(range(1000))
    last = popped[-1]
    assert (last.time, last.sequence, last.kind, last.device) == (
        7, 999, kinds[999 % len(kinds)], 999)
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


def test_popped_events_are_event_tuples():
    q = EventQueue()
    q.schedule(3, EventKind.TX_END, 2)
    event = q.next()
    assert type(event) is Event
    assert event._fields == ("time", "sequence", "kind", "device")
    assert event == Event(3, 0, EventKind.TX_END, 2)


@pytest.mark.parametrize("seconds", [2.5e-6, np.float64(2.5e-6)])
def test_seconds_to_ns_returns_python_int(seconds):
    ns = seconds_to_ns(seconds)
    assert type(ns) is int and ns == 2500


@pytest.mark.parametrize("seconds, error", [
    (math.nan, ValueError), (math.inf, OverflowError),
    (np.float64("nan"), ValueError), (-np.float64("inf"), OverflowError)])
def test_seconds_to_ns_rejects_non_finite(seconds, error):
    with pytest.raises(error):
        seconds_to_ns(seconds)


def test_rounding_half_up():
    assert seconds_to_ns(1.0) == 1_000_000_000
    assert seconds_to_ns(1.5e-9) == 2
    assert seconds_to_ns(1.4e-9) == 1
    assert seconds_to_ns(4e-6) == 4000


# The simulator's exponential sleep, Simulation._sleep_ns, on a stream.


def sleeps_s(rate, stream, n):
    """``n`` sleeps of a device at ``rate`` Hz, in seconds."""
    dev = SimpleNamespace(assigned_rate=rate, congestion_factor=1,
                          stream=stream)
    return np.array([Simulation._sleep_ns(dev) for _ in range(n)]) / 1e9


def test_exponential_mean():
    n = 1_000_000
    draws = sleeps_s(1000.0, RandomStream(123, 0), n)
    # 3 sigma of the sample mean is 3/sqrt(n) relative
    assert abs(draws.mean() - 1e-3) / 1e-3 < 3.0 / math.sqrt(n)


def test_exponential_unit_uniform_edge_is_zero():
    class OneStream:
        def uniform(self):
            return 1.0

    assert sleeps_s(500.0, OneStream(), 1).tolist() == [0.0]


def test_exponential_rejects_bad_rate():
    for rate in (0.0, -1.0):
        with pytest.raises(ValueError, match="rate must be > 0"):
            sleeps_s(rate, RandomStream(1, 0), 1)


def test_memorylessness_ks():
    rate = 200.0
    draws = sleeps_s(rate, RandomStream(7, 0), 100_000)
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
    for mean in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            stream.poisson(mean)


BELOW_TEN = math.nextafter(10.0, 0.0)

# (kind, argument) pairs; a "uniform" argument is a burst length, long
# enough that a few bursts cross a draw-block boundary.
DRAWS = st.one_of(
    st.tuples(st.just("uniform"), st.integers(1, 300)),
    st.tuples(st.just("poisson"),
              st.sampled_from([1e-300, BELOW_TEN, 10.0, 250.0])
              | st.floats(0.0, 10.0, exclude_min=True, exclude_max=True)),
    st.tuples(st.just("integers"), st.integers(0, 1023)),
)


def _stream_draw(stream, kind, arg):
    if kind == "uniform":
        return [stream.uniform() for _ in range(arg)]
    if kind == "poisson":
        return stream.poisson(arg)
    return stream.integers(0, arg)


def _scalar_draw(generator, kind, arg):
    """The same draw as one scalar Generator call per value."""
    if kind == "uniform":
        return [1.0 - generator.random() for _ in range(arg)]
    if kind == "poisson":
        return int(generator.poisson(arg))
    return int(generator.integers(0, arg + 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63), st.integers(0, 63), st.lists(DRAWS, max_size=40))
# integers after an odd number of integers calls, across buffered doubles
@example(0, 0, [("integers", 31), ("uniform", 1), ("integers", 31)])
# a Poisson draw whose product runs across a block boundary
@example(1, 2, [("uniform", 250)] + [("poisson", BELOW_TEN)] * 3)
def test_block_draws_equal_scalar_generator_calls(seed, stream_id, draws):
    stream = RandomStream(seed, stream_id)
    generator = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(stream_id,))))
    # The trailing draws check that both consumed the same amount.
    for kind, arg in draws + [("integers", 2**31), ("integers", 2**40),
                              ("uniform", 1)]:
        assert (_stream_draw(stream, kind, arg)
                == _scalar_draw(generator, kind, arg)), (kind, arg)
