import dataclasses
import tracemalloc

import numpy as np
import pytest

from lifeadd import renewal
from lifeadd.formulas import (ContentionParams, collision_probability,
                              success_time_fraction)
from lifeadd.renewal import (RenewalEstimates, simulate_cycles,
                             validate_against_formulas)

PARAMS = ContentionParams(sensing_time=4e-6, packet_time=0.9e-3,
                          ack_time=1e-4)


def test_measured_metrics_match_formulas_within_three_sigma():
    rates = np.array([3774.3, 5661.4, 9435.7])
    est = simulate_cycles(rates, PARAMS, 200_000, seed=42)
    rows = validate_against_formulas(rates, PARAMS, est)
    assert len(rows) == 12
    assert all(row.ok for row in rows)
    # the bands are tight enough to be meaningful
    assert all(row.sigma < 0.01 for row in rows)


def test_single_device_every_cycle_succeeds():
    rate = 2000.0
    est = simulate_cycles([rate], PARAMS, 100_000, seed=1)
    assert est.collision_fraction == 0.0
    assert est.win[0] == 1.0
    predicted = success_time_fraction([rate], PARAMS)[0]
    assert est.success_fraction[0] == pytest.approx(predicted, rel=0.01)


def test_mean_cycle_length():
    rates = np.array([1500.0, 2500.0])
    est = simulate_cycles(rates, PARAMS, 200_000, seed=5)
    expected = 1.0 / rates.sum() + PARAMS.busy_time
    assert est.mean_cycle == pytest.approx(expected, rel=0.01)


def test_collision_fraction_matches_formula():
    rates = np.array([4000.0, 4000.0, 4000.0])
    est = simulate_cycles(rates, PARAMS, 300_000, seed=9)
    predicted = collision_probability(rates, PARAMS)
    sigma = np.sqrt(predicted * (1 - predicted) / est.n_cycles)
    assert abs(est.collision_fraction - predicted) <= 3 * sigma


def test_validation_flags_wrong_prediction():
    rates = np.array([2000.0, 2000.0])
    est = simulate_cycles(rates, PARAMS, 100_000, seed=2)
    rows = validate_against_formulas(rates * 1.5, PARAMS, est)
    assert any(not row.ok for row in rows)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        simulate_cycles([0.0, 100.0], PARAMS, 100, seed=1)
    with pytest.raises(ValueError):
        simulate_cycles([100.0], PARAMS, 0, seed=1)


@pytest.mark.parametrize("rates", [[float("nan"), 100.0],
                                   [100.0, float("inf")], []])
def test_rejects_non_finite_or_empty_rates(rates):
    with pytest.raises(ValueError, match="rates must be"):
        simulate_cycles(rates, PARAMS, 100, seed=1)


def test_rejects_zero_sensing_time():
    params = ContentionParams(sensing_time=0.0, packet_time=0.9e-3,
                              ack_time=1e-4)
    with pytest.raises(ValueError, match="sensing_time must be > 0"):
        simulate_cycles([100.0, 200.0], params, 100, seed=1)


def dense_reference(rates, params, n_cycles, seed, chunk):
    """The dense per-chunk accumulation: every reward is summed over the
    whole (cycles, devices) array with ``.sum(axis=0)``."""
    r = np.asarray(rates, dtype=float)
    n = r.size
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    ts = params.sensing_time
    packet = params.packet_time
    busy = params.busy_time
    win_count = np.zeros(n)
    attempt_count = np.zeros(n)
    collision_cycles = 0
    sum_c = sum_c2 = 0.0
    sums = {key: np.zeros(n) for key in ("p", "p2", "pc", "on", "on2", "onc")}
    remaining = n_cycles
    while remaining > 0:
        m = min(remaining, chunk)
        remaining -= m
        residual = rng.standard_exponential((m, n)) / r[None, :]
        first = residual.min(axis=1)
        window = np.maximum(first + ts, np.nextafter(first, np.inf))
        transmits = residual < window[:, None]
        success = transmits.sum(axis=1) == 1
        wins = transmits & success[:, None]
        attempt_count += transmits.sum(axis=0)
        win_count += wins.sum(axis=0)
        collision_cycles += int((~success).sum())
        cycle = first + busy
        sum_c += cycle.sum()
        sum_c2 += (cycle * cycle).sum()
        for key, reward in (("p", wins * packet), ("on", transmits * busy)):
            sums[key] += reward.sum(axis=0)
            sums[key + "2"] += (reward * reward).sum(axis=0)
            sums[key + "c"] += (reward * cycle[:, None]).sum(axis=0)

    m = float(n_cycles)
    win = win_count / m
    attempt = attempt_count / m
    mean_c = sum_c / m
    var_c = max(sum_c2 / m - mean_c**2, 0.0)

    def ratio_estimate(key):
        mean_r = sums[key] / m
        ratio = mean_r / mean_c
        var_r = np.maximum(sums[key + "2"] / m - mean_r**2, 0.0)
        cov_rc = sums[key + "c"] / m - mean_r * mean_c
        resid_var = np.maximum(
            var_r - 2 * ratio * cov_rc + ratio**2 * var_c, 0.0)
        return ratio, np.sqrt(resid_var / m) / mean_c

    p_hat, p_sigma = ratio_estimate("p")
    on_hat, on_sigma = ratio_estimate("on")
    return RenewalEstimates(
        n_cycles=n_cycles,
        win=win, win_sigma=np.sqrt(np.maximum(win * (1 - win), 0.0) / m),
        attempt=attempt,
        attempt_sigma=np.sqrt(np.maximum(attempt * (1 - attempt), 0.0) / m),
        success_fraction=p_hat, success_fraction_sigma=p_sigma,
        on_fraction=on_hat, on_fraction_sigma=on_sigma,
        collision_fraction=collision_cycles / m, mean_cycle=mean_c)


def assert_same_bits(got: RenewalEstimates, want: RenewalEstimates):
    for field in dataclasses.fields(RenewalEstimates):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.array_equal(a, b), field.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


@pytest.mark.parametrize("n", [1, 2, 3, 30])
def test_sparse_sums_equal_dense_reference_bit_for_bit(monkeypatch, n):
    # 2,001 cycles in chunks of 1,000: the last chunk has a single row.
    # Blocks of 333 rows end each full chunk in a block of one row; blocks
    # of 7 and of 1 row hand every running sum on many times per chunk,
    # and blocks of 7 end each full chunk inside a block.
    monkeypatch.setattr(renewal, "_CHUNK", 1000)
    rates = np.linspace(2000.0, 9000.0, n) / n
    for block, seed in ((renewal._BLOCK, 3), (renewal._BLOCK, 4), (333, 6),
                        (7, 7), (1, 8)):
        monkeypatch.setattr(renewal, "_BLOCK", block)
        assert_same_bits(simulate_cycles(rates, PARAMS, 2001, seed),
                         dense_reference(rates, PARAMS, 2001, seed, 1000))


def test_sparse_sums_equal_dense_reference_at_default_chunk():
    rates = np.array([3774.3, 5661.4, 9435.7])
    n_cycles = 2 * renewal._CHUNK + 1
    assert_same_bits(
        simulate_cycles(rates, PARAMS, n_cycles, 11),
        dense_reference(rates, PARAMS, n_cycles, 11, renewal._CHUNK))


@pytest.mark.parametrize("n", [1, 3])
def test_first_waker_transmits_below_an_ulp_of_its_wake(n):
    # At 1e-12 Hz most first wakes lie past 7e10 s, where half an ulp
    # exceeds the 4 us sensing time, so first + ts rounds to first.  The
    # first waker must still transmit: no cycle is without a transmitter.
    rates = np.full(n, 1e-12)
    est = simulate_cycles(rates, PARAMS, 5000, seed=3)
    assert est.collision_fraction == 0.0
    assert est.win.sum() == pytest.approx(1.0)
    assert np.array_equal(est.win, est.attempt)
    assert_same_bits(est, dense_reference(rates, PARAMS, 5000, 3,
                                          renewal._CHUNK))


def traced_peak(rates, n_cycles: int) -> int:
    tracemalloc.start()
    try:
        simulate_cycles(rates, PARAMS, n_cycles, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_at_thirty_devices():
    # The dense sums peaked near 200 MB here, one (m, n) draw 57 MB, the
    # chunk-long transmit indices and reward weights 15 MB; with all of a
    # block's work done in the block it is near 5.5 MB.
    assert traced_peak(np.linspace(500.0, 2000.0, 30), 200_000) < 8e6


def test_peak_memory_of_validate_at_three_devices():
    # The 1e6-cycle validate: near 18 MB with chunk-long transmit indices
    # and reward weights, near 4.6 MB with only the (m,) cycle lengths.
    assert traced_peak(np.array([3774.3, 5661.4, 9435.7]), 1_000_000) < 8e6


def test_peak_memory_does_not_grow_with_chunks():
    # Every chunk reuses one pair of cycle-length and transmit buffers,
    # so the peak does not grow with the chunk count.  The first traced
    # call in a process carries one-time allocations: warm up first.
    rates = np.array([3774.3, 5661.4, 9435.7])
    traced_peak(rates, 1000)
    one_chunk = traced_peak(rates, renewal._CHUNK)
    assert traced_peak(rates, 1_000_000) <= one_chunk + 64 * 1024
