import math

import numpy as np
import pytest

from lifeadd.formulas import (ContentionParams, RateVector,
                              attempt_probability, collision_probability,
                              energy_slack, log_throughput_utility,
                              radio_on_fraction, success_probability,
                              success_time_fraction, throughput)
from lifeadd.renewal import simulate_cycles
from lifeadd.solver import assign_rates

PARAMS = ContentionParams(sensing_time=4e-6, packet_time=0.9e-3,
                          ack_time=1e-4)
ZERO_TS = ContentionParams(sensing_time=0.0, packet_time=0.9e-3,
                           ack_time=1e-4)


def test_single_contender_always_wins():
    for rate in (1.0, 500.0, 2e4):
        assert success_probability([rate], PARAMS)[0] == pytest.approx(1.0)


def test_zero_sensing_window_reduces_to_rate_share():
    rates = np.array([500.0, 1500.0, 2000.0])
    beta = success_probability(rates, ZERO_TS)
    assert beta == pytest.approx(rates / rates.sum())


def test_symmetric_win_probability_closed_form_and_monte_carlo():
    # N equal contenders at rate R win with probability exp(-(N-1) R ts)/N
    n, rate = 4, 2000.0
    rates = np.full(n, rate)
    expected = math.exp(-(n - 1) * rate * PARAMS.sensing_time) / n
    beta = success_probability(rates, PARAMS)
    assert beta == pytest.approx(np.full(n, expected))
    est = simulate_cycles(rates, PARAMS, 200_000, seed=3)
    assert np.all(np.abs(est.win - expected) <= 3 * est.win_sigma + 1e-12)


def test_collision_probability_boundaries():
    assert collision_probability([1234.0], PARAMS) == pytest.approx(
        0.0, abs=1e-12)
    assert collision_probability([500.0, 700.0], ZERO_TS) == pytest.approx(
        0.0, abs=1e-12)


def test_collision_probability_against_pairwise_oracle():
    # Two contenders collide when their residual sleeps differ by less
    # than the sensing window; estimate that directly.
    rates = np.array([1000.0, 1000.0])
    rng = np.random.default_rng(11)
    draws = rng.standard_exponential((400_000, 2)) / rates
    hits = np.abs(draws[:, 0] - draws[:, 1]) < PARAMS.sensing_time
    estimate = hits.mean()
    sigma = math.sqrt(estimate * (1 - estimate) / draws.shape[0])
    predicted = collision_probability(rates, PARAMS)
    assert abs(predicted - estimate) <= 3 * sigma


def test_attempt_probability_hand_value_and_oracle():
    # R = [1000, 3000] with a 100 us window: 1 - e^-0.1 + e^-0.1 / 4
    with pytest.warns(UserWarning):
        params = ContentionParams(1e-4, 0.9e-3, 1e-4)
    rates = np.array([1000.0, 3000.0])
    expected = 1 - math.exp(-0.1) + math.exp(-0.1) * 0.25
    assert attempt_probability(rates, params)[0] == pytest.approx(expected)
    rng = np.random.default_rng(12)
    draws = rng.standard_exponential((400_000, 2)) / rates
    transmits = draws[:, 1] >= draws[:, 0] - params.sensing_time
    estimate = transmits.mean()
    sigma = math.sqrt(estimate * (1 - estimate) / draws.shape[0])
    assert abs(expected - estimate) <= 3 * sigma


def test_attempt_probability_boundaries():
    assert attempt_probability([777.0], PARAMS)[0] == pytest.approx(1.0)
    rates = np.array([600.0, 1400.0])
    assert attempt_probability(rates, ZERO_TS) == pytest.approx(
        rates / rates.sum())


def test_success_time_fraction_hand_value():
    params = ContentionParams(0.0, 0.9e-3, 1e-4)
    p = success_time_fraction([500.0, 500.0], params)[0]
    assert p == pytest.approx(0.225)


def test_cycle_decomposition_partitions_time():
    rates = np.array([800.0, 1700.0, 2500.0])
    beta = success_probability(rates, PARAMS)
    cycle = PARAMS.busy_time + 1.0 / rates.sum()
    success_data = success_time_fraction(rates, PARAMS).sum()
    collision_data = collision_probability(rates, PARAMS) * \
        PARAMS.packet_time / cycle
    ack = PARAMS.ack_time / cycle
    idle = (1.0 / rates.sum()) / cycle
    assert success_data + collision_data + ack + idle == pytest.approx(1.0)
    assert beta.sum() + collision_probability(rates, PARAMS) == pytest.approx(
        1.0, abs=1e-12)


def test_high_rate_zero_window_limit():
    params = ContentionParams(0.0, 0.9e-3, 1e-4)
    rates = np.array([3e8, 6e8])
    p = success_time_fraction(rates, params)
    share = rates / rates.sum()
    limit = share * params.packet_time / params.busy_time
    assert p == pytest.approx(limit, rel=1e-4)


def test_throughput_is_scaled_fraction():
    rates = [500.0, 500.0]
    params = ContentionParams(0.0, 0.9e-3, 1e-4)
    assert throughput(rates, params, alpha=11e6)[0] == pytest.approx(
        0.225 * 11e6)
    assert throughput(rates, params, alpha=1.0)[0] == pytest.approx(
        success_time_fraction(rates, params)[0])
    assert throughput([100.0], params, alpha=0.0)[0] == 0.0


def test_radio_on_fraction_zero_window():
    rates = np.array([500.0, 500.0])
    on = radio_on_fraction(rates, ZERO_TS)
    assert on == pytest.approx([0.25, 0.25])


def test_radio_on_fraction_monte_carlo():
    rates = np.array([900.0, 2100.0, 3600.0])
    est = simulate_cycles(rates, PARAMS, 300_000, seed=21)
    predicted = radio_on_fraction(rates, PARAMS)
    assert np.all(np.abs(est.on_fraction - predicted)
                  <= 3 * est.on_fraction_sigma)


def test_utility_equals_sum_of_log_throughputs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = rng.integers(1, 6)
        rates = rng.uniform(50.0, 5e4, size=n)
        alphas = rng.uniform(0.5, 2e7, size=n)
        direct = np.log(throughput(rates, PARAMS, alpha=alphas)).sum()
        assert log_throughput_utility(rates, PARAMS, alphas) == pytest.approx(
            direct, rel=1e-10)


def test_win_probability_below_attempt_probability():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rates = rng.uniform(10.0, 3e4, size=rng.integers(1, 7))
        beta = success_probability(rates, PARAMS)
        gamma = attempt_probability(rates, PARAMS)
        assert np.all(beta >= 0) and np.all(gamma <= 1 + 1e-12)
        assert np.all(beta <= gamma + 1e-12)


def test_win_probability_increasing_below_contention_knee():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        rates = rng.uniform(100.0, 0.5 / (n * PARAMS.sensing_time), size=n)
        idx = int(rng.integers(0, n))
        h = rates[idx] * 1e-6
        hi, lo = rates.copy(), rates.copy()
        hi[idx] += h
        lo[idx] -= h
        diff = (success_probability(hi, PARAMS)[idx]
                - success_probability(lo, PARAMS)[idx]) / (2 * h)
        assert diff > 0


def test_fraction_identity_with_win_probability():
    rates = np.array([1200.0, 3400.0])
    p = success_time_fraction(rates, PARAMS)
    cycle = PARAMS.busy_time + 1.0 / rates.sum()
    assert p * cycle / PARAMS.packet_time == pytest.approx(
        success_probability(rates, PARAMS))


def test_energy_slack_boundaries():
    rates = np.array([900.0, 1500.0])
    assert np.all(energy_slack(rates, PARAMS, [1.0, 1.0]) > 0)
    assert np.all(energy_slack(rates, PARAMS, [0.0, 0.0]) < 0)


def test_subunit_rates_meet_budgets_in_the_small_window_limit():
    # The fixed-point rates satisfy the linearized budget exactly; against
    # the exact on-fraction they overshoot by O(total_rate * ts), vanishing
    # as the sensing window shrinks.
    budgets = np.array([0.2, 0.3, 0.4])
    previous = None
    for ts in (4e-6, 1e-6, 1e-7, 1e-8):
        params = ContentionParams(ts, 0.9e-3, 1e-4)
        rates = assign_rates(budgets, params).rates.rates
        slack = energy_slack(rates, params, budgets)
        assert np.all(slack <= 1e-12)
        worst = float(np.min(slack))
        assert abs(worst) <= 2.0 * budgets.max() * rates.sum() * ts
        if previous is not None:
            assert abs(worst) < abs(previous)
        previous = worst


def test_superunit_capped_devices_have_positive_slack():
    params = PARAMS
    budgets = np.array([0.2, 0.3, 0.9])
    rates = assign_rates(budgets, params).rates.rates
    slack = energy_slack(rates, params, budgets)
    # device 2 is capped at the water level well below its budget
    assert slack[2] > 0.05


def test_rate_vector_validation():
    with pytest.raises(ValueError):
        RateVector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        RateVector(np.array([]))
    with pytest.raises(ValueError):
        RateVector(np.array([1.0, -2.0]))
    rv = RateVector(np.array([2.0, 3.0]))
    assert rv.rates.tolist() == [2.0, 3.0]


def test_params_validation_and_warning():
    with pytest.raises(ValueError):
        ContentionParams(-1e-6, 1e-3, 1e-4)
    with pytest.raises(ValueError):
        ContentionParams(1e-6, 0.0, 1e-4)
    with pytest.warns(UserWarning):
        ContentionParams(2e-5, 0.9e-3, 1e-4)  # ratio 0.02 > 0.01
    params = ContentionParams(4e-6, 0.9e-3, 1e-4)
    assert params.sensing_ratio == pytest.approx(0.004)


@pytest.mark.parametrize("field", ["sensing_time", "packet_time",
                                   "ack_time"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_contention_params_reject_non_finite(field, value):
    timings = {"sensing_time": 4e-6, "packet_time": 0.9e-3,
               "ack_time": 1e-4, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ContentionParams(**timings)
