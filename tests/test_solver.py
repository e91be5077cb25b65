import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from lifeadd import solver
from lifeadd.formulas import ContentionParams, log_throughput_utility
from lifeadd.solver import (SUB_UNIT, SUPER_UNIT, DegenerateBudget,
                            NoFeasiblePoint, SubUnitRegime, assign_rates,
                            brute_force_oracle, optimal_total_rate,
                            optimality_bounds, water_filling_level)

PARAMS = ContentionParams(sensing_time=4e-6, packet_time=0.9e-3,
                          ack_time=1e-4)


def bisect_level(budgets, tol=1e-13):
    """Independent bisection oracle for the water-filling level."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if np.minimum(budgets, mid).sum() < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return hi


def test_water_level_boundary_cases():
    assert water_filling_level([0.5, 0.5]) == pytest.approx(0.5)
    for n in (1, 3, 7):
        assert water_filling_level([1.5] * n) == pytest.approx(1.0 / n)
    assert water_filling_level([0.2, 0.3, 0.9]) == pytest.approx(0.5)


def test_water_level_matches_bisection_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 8))
        b = rng.uniform(0.0, 2.0, size=n)
        if b.sum() < 1.0:
            continue
        level = water_filling_level(b)
        assert level == pytest.approx(bisect_level(b), abs=1e-11)
        assert np.minimum(b, level).sum() == pytest.approx(1.0, abs=1e-12)
        checked += 1


def test_water_level_rejects_subunit():
    with pytest.raises(SubUnitRegime):
        water_filling_level([0.2, 0.3])


def test_total_rate_hand_value():
    # N=3, busy 1 ms, sensing 4 us: (-1 + sqrt(1501)) / 0.002
    expected = (-1.0 + math.sqrt(1501.0)) / 0.002
    assert optimal_total_rate(3, PARAMS) == pytest.approx(expected)
    assert expected == pytest.approx(18871.37, abs=0.01)


def relaxed_utility_at_total(total_rate, budgets, params):
    """Relaxed objective as a function of the total rate, water level fixed.

    This is the one-dimensional function whose maximizer is
    ``optimal_total_rate``.
    """
    b = np.asarray(budgets, dtype=float)
    n = b.size
    lt = params.busy_time
    return (n * math.log(total_rate)
            - n * math.log(total_rate + 1.0 / lt)
            - (n - 1) * total_rate * params.sensing_time
            + n * math.log(params.packet_time / lt)
            + float(np.log(np.minimum(b, water_filling_level(b))).sum()))


def test_total_rate_matches_numeric_maximizer():
    budgets = [2.0, 2.0, 2.0]
    y_star = optimal_total_rate(3, PARAMS)
    res = minimize_scalar(
        lambda y: -relaxed_utility_at_total(y, budgets, PARAMS),
        bounds=(1.0, 1e6), method="bounded",
        options={"xatol": 1e-4})
    assert y_star == pytest.approx(res.x, rel=1e-4)
    # stationary point: symmetric finite difference of the objective
    h = y_star * 1e-6
    slope = (relaxed_utility_at_total(y_star + h, budgets, PARAMS)
             - relaxed_utility_at_total(y_star - h, budgets, PARAMS)) / (2 * h)
    assert abs(slope) < 1e-8


def test_total_rate_huge_sensing_window_vanishes():
    with pytest.warns(UserWarning):
        params = ContentionParams(1e3, 0.9e-3, 1e-4)
    assert 0 < optimal_total_rate(3, params) < 1e-2


def test_subunit_hand_values():
    a = assign_rates([0.2, 0.3, 0.4], PARAMS)
    assert a.case == SUB_UNIT and a.c_star == 1.0
    assert a.y_star == pytest.approx(10000.0)
    assert a.rates.rates == pytest.approx([2000.0, 3000.0, 4000.0])
    single = assign_rates([0.5], PARAMS)
    assert single.rates.rates == pytest.approx([1000.0])


def test_subunit_fixed_point_residual():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        b = rng.uniform(0.01, 0.9, size=n)
        if b.sum() >= 1.0:
            b = b / (b.sum() * rng.uniform(1.05, 3.0))
        rates = assign_rates(b, PARAMS).rates.rates
        target = b * (rates.sum() + 1.0 / PARAMS.busy_time)
        assert np.max(np.abs(rates - target) / rates) <= 1e-10


def test_subunit_blows_up_near_regime_boundary():
    lo = assign_rates([0.3, 0.3, 0.3], PARAMS).rates.rates.sum()
    hi = assign_rates([0.333, 0.333, 0.333], PARAMS).rates.rates.sum()
    assert hi > 30 * lo


def test_subunit_rejections():
    with pytest.raises(DegenerateBudget):
        assign_rates([0.0, 0.3], PARAMS)


def test_assignment_equal_split_without_constraints():
    a = assign_rates([2.0, 2.0, 2.0], PARAMS)
    assert a.case == SUPER_UNIT
    assert a.c_star == pytest.approx(1.0 / 3.0)
    assert a.rates.rates == pytest.approx(np.full(3, a.y_star / 3.0))


def test_assignment_hand_example():
    a = assign_rates([0.2, 0.3, 0.9], PARAMS)
    assert a.case == SUPER_UNIT
    assert a.c_star == pytest.approx(0.5)
    assert a.y_star == pytest.approx(18871.37, abs=0.01)
    assert a.rates.rates == pytest.approx([3774.3, 5661.4, 9435.7], abs=0.05)


def test_assignment_relaxed_feasibility_both_regimes():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        b = rng.uniform(0.05, 1.2, size=n)
        a = assign_rates(b, PARAMS)
        r = a.rates.rates
        bound = b * (r.sum() + 1.0 / PARAMS.busy_time)
        assert np.all(r <= bound * (1 + 1e-12))
        if a.case == SUPER_UNIT:
            assert np.all(r <= b * r.sum() * (1 + 1e-12))
            assert r.sum() == pytest.approx(a.y_star, rel=1e-12)
            capped = b >= a.c_star
            if capped.sum() > 1:
                vals = r[capped]
                assert np.allclose(vals, vals[0])


def test_assignment_brackets_between_bounds():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        b = rng.uniform(0.1, 1.5, size=n)
        if b.sum() < 1.0:
            continue
        lower, upper, gap = optimality_bounds(b, PARAMS)
        value = log_throughput_utility(assign_rates(b, PARAMS).rates, PARAMS)
        assert lower - 1e-9 <= value <= upper + 1e-9
        assert value == pytest.approx(lower, abs=1e-9)
        assert gap == pytest.approx(upper - lower)


def test_assignment_ignores_throughput_scale():
    b = [0.4, 0.8, 1.3]
    a = assign_rates(b, PARAMS)
    base = log_throughput_utility(a.rates, PARAMS)
    scaled = log_throughput_utility(a.rates, PARAMS,
                                    alphas=np.array([7.0, 7.0, 7.0]))
    assert scaled == pytest.approx(base + 3 * math.log(7.0))


def test_bounds_subunit_gap_zero():
    lower, upper, gap = optimality_bounds([0.2, 0.3, 0.4], PARAMS)
    assert gap == 0.0
    assert lower == upper


def test_bounds_hand_value():
    y_star = optimal_total_rate(3, PARAMS)
    expected_gap = 3 * math.log1p(1000.0 / y_star) + 2 * y_star * 4e-6
    _, _, gap = optimality_bounds([0.2, 0.3, 0.9], PARAMS)
    assert gap == pytest.approx(expected_gap, rel=1e-12)
    assert gap == pytest.approx(0.30587, abs=1e-4)


def test_gap_decreases_with_sensing_time():
    gaps = []
    for ts in (8e-6, 4e-6, 1e-6, 2e-7):
        params = ContentionParams(ts, 0.9e-3, 1e-4)
        gaps.append(optimality_bounds([0.5, 0.7, 1.1], params)[2])
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_oracle_single_device_reports_boundary():
    res = brute_force_oracle([2.0], PARAMS, grid_resolution=60)
    assert res.at_boundary
    scale = assign_rates([2.0], PARAMS).y_star
    assert res.rates[0] == pytest.approx(10.0 * scale, rel=0.05)


def test_oracle_symmetric_instance():
    res = brute_force_oracle([2.0, 2.0], PARAMS)
    assert res.rates[0] == pytest.approx(res.rates[1], rel=1e-9)


def test_oracle_never_beats_bounds():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(2, 4))
        b = rng.uniform(0.1, 1.5, size=n)
        res = brute_force_oracle(b, PARAMS)
        achieved = log_throughput_utility(assign_rates(b, PARAMS).rates,
                                          PARAMS)
        _, _, gap = optimality_bounds(b, PARAMS)
        assert res.objective - achieved <= gap + res.cell_span


def test_oracle_rejections():
    with pytest.raises(ValueError):
        brute_force_oracle([1.0] * 5, PARAMS)
    with pytest.raises(ValueError):
        brute_force_oracle([1.0, 1.0], PARAMS, grid_resolution=10)
    with pytest.raises(NoFeasiblePoint):
        brute_force_oracle([1e-7, 1e-7], PARAMS)


def test_oracle_caps_grid_points_before_allocating():
    assert 50 ** 4 <= solver.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="100000\\*\\*3 exceeds"):
        brute_force_oracle([1.0] * 3, PARAMS, grid_resolution=100_000)
    with pytest.raises(ValueError, match="exceeds the oracle's cap"):
        brute_force_oracle([1.0], PARAMS,
                           grid_resolution=solver.MAX_GRID_POINTS + 1)


def test_assign_rejects_zero_budget():
    with pytest.raises(DegenerateBudget):
        assign_rates([0.0, 2.0], PARAMS)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1,
                max_size=5))
def test_assignment_invariants_property(budgets):
    b = np.asarray(budgets)
    a = assign_rates(b, PARAMS)
    assert np.all(a.rates.rates > 0)
    assert a.rates.rates == pytest.approx(
        np.minimum(b, a.c_star) * a.y_star, rel=1e-12)
    if b.sum() >= 1.0:
        assert a.case == SUPER_UNIT
        assert np.minimum(b, a.c_star).sum() == pytest.approx(1.0, abs=1e-12)
        assert 0 < a.c_star <= 1.0
    else:
        assert a.case == SUB_UNIT
        assert a.c_star == 1.0


def _slice_objective(combos, params, b):
    """Per-slice objective of the reference search: -inf where infeasible."""
    y = combos.sum(axis=1)
    ts = params.sensing_time
    lt = params.busy_time
    n = combos.shape[1]
    ert = np.exp(-combos * ts)
    on = ((1.0 - ert) * y[:, None] + ert * combos) / (y + 1.0 / lt)[:, None]
    feasible = np.all(on <= b[None, :], axis=1)
    obj = (np.log(combos).sum(axis=1)
           - n * np.log(y + 1.0 / lt)
           - (n - 1) * y * ts
           + n * math.log(params.packet_time / lt))
    obj[~feasible] = -np.inf
    return obj


def slice_reference(axes, params, b):
    """The grid search one axis-0 value at a time over (rows, n) combos:
    (rates, objective, index) of the first maximum in row-major order."""
    n = len(axes)
    rest = axes[1:]
    mesh = np.meshgrid(*rest, indexing="ij") if rest else []
    rest_combos = (np.stack([m.ravel() for m in mesh], axis=1)
                   if rest else np.zeros((1, 0)))
    best_obj = -np.inf
    best_idx = None
    for i, r0 in enumerate(axes[0]):
        combos = np.empty((rest_combos.shape[0], n))
        combos[:, 0] = r0
        combos[:, 1:] = rest_combos
        obj = _slice_objective(combos, params, b)
        j = int(np.argmax(obj))
        if obj[j] > best_obj:
            best_obj = float(obj[j])
            best_idx = (i, j)
    if best_idx is None or not math.isfinite(best_obj):
        raise NoFeasiblePoint("no grid point satisfies the radio-on constraints")
    i, j = best_idx
    rates = np.empty(n)
    rates[0] = axes[0][i]
    rates[1:] = rest_combos[j]
    index = np.array([i] + [int(k) for k in np.unravel_index(
        j, [a.size for a in rest])] if rest else [i])
    return rates, best_obj, index


def reference_oracle(efficiencies, params, grid_resolution):
    """The oracle's coarse grid, refinement and cell-span probe on top of
    ``slice_reference``."""
    b = np.asarray(efficiencies, dtype=float)
    n = b.size
    scale = assign_rates(b, params).y_star
    axes = [np.logspace(0.0, math.log10(10.0 * scale), grid_resolution)
            for _ in range(n)]
    rates, obj, index = slice_reference(axes, params, b)
    at_boundary = bool(np.any(index == 0)
                       or np.any(index == grid_resolution - 1))
    refined_axes = []
    for d in range(n):
        k = index[d]
        a_lo = axes[d][max(k - 1, 0)]
        a_hi = axes[d][min(k + 1, axes[d].size - 1)]
        refined_axes.append(
            np.logspace(math.log10(a_lo), math.log10(a_hi), grid_resolution))
    r_rates, r_obj, r_index = slice_reference(refined_axes, params, b)
    if r_obj >= obj:
        rates, obj, index = r_rates, r_obj, r_index
    span = 0.0
    for d in range(n):
        axis = refined_axes[d]
        k = min(int(r_index[d]), axis.size - 1)
        for nb in (k - 1, k + 1):
            if 0 <= nb < axis.size:
                probe = rates.copy()
                probe[d] = axis[nb]
                val = _slice_objective(probe[None, :], params, b)[0]
                if math.isfinite(val):
                    span = max(span, abs(obj - val))
    return rates, obj, span, at_boundary


def ratio_params(ratio, busy=1e-3):
    return ContentionParams(sensing_time=ratio * busy,
                            packet_time=0.9 * busy, ack_time=0.1 * busy)


def assert_oracle_matches_reference(budgets, params, grid_resolution=50):
    got = brute_force_oracle(budgets, params, grid_resolution)
    rates, obj, span, at_boundary = reference_oracle(budgets, params,
                                                     grid_resolution)
    assert got.rates.tobytes() == rates.tobytes()
    assert np.float64(got.objective).tobytes() == np.float64(obj).tobytes()
    assert np.float64(got.cell_span).tobytes() == np.float64(span).tobytes()
    assert got.at_boundary == at_boundary


# n = 4 costs seconds per reference call, so it is covered by the fixed
# case below and by the narrow-axes property.
budget_lists = st.integers(1, 3).flatmap(lambda n: st.one_of(
    st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n),
    st.floats(0.05, 3.0).map(lambda v: [v] * n)))  # symmetric: exact ties


@settings(max_examples=30, deadline=None)
@given(budget_lists, st.floats(-5.0, -2.01))
def test_oracle_equals_slice_reference_bit_for_bit(budgets, log_ratio):
    params = ratio_params(10.0 ** log_ratio)
    try:
        reference_oracle(budgets, params, 50)
    except NoFeasiblePoint:
        with pytest.raises(NoFeasiblePoint):
            brute_force_oracle(budgets, params)
        return
    assert_oracle_matches_reference(budgets, params)


def test_oracle_equals_slice_reference_when_a_slice_exceeds_the_chunk():
    # 51**3 = 132,651 points per axis-0 value, more than one block holds.
    assert_oracle_matches_reference([0.4, 0.7, 1.1, 0.9], ratio_params(4e-3),
                                    grid_resolution=51)


def axis_values(width):
    """A short log-spaced axis; a tiny width repeats values, so the
    objective ties exactly and only the row-major order decides."""
    return st.tuples(st.floats(0.0, 4.0), st.integers(1, 8)).map(
        lambda a: np.logspace(a[0], a[0] + width, a[1]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
           st.one_of(axis_values(1e-15), axis_values(0.5)),
           min_size=n, max_size=n)),
       st.floats(0.05, 3.0), st.floats(-5.0, -2.01),
       st.sampled_from([solver._GRID_BLOCK, 1, 5, 64]))
def test_grid_search_equals_slice_reference_on_narrow_axes(axes, budget,
                                                           log_ratio, block):
    params = ratio_params(10.0 ** log_ratio)
    b = np.full(len(axes), budget)
    with mock.patch.object(solver, "_GRID_BLOCK", block):
        try:
            want = slice_reference(axes, params, b)
        except NoFeasiblePoint:
            with pytest.raises(NoFeasiblePoint):
                solver._best_on_axes(axes, params, b)
            return
        rates, obj, index = solver._best_on_axes(axes, params, b)
    assert rates.tobytes() == want[0].tobytes()
    assert np.float64(obj).tobytes() == np.float64(want[1]).tobytes()
    assert np.array_equal(index, want[2])
