"""Acceptance suite: one test per shipping criterion, stated tolerances.

Each test prints a single PASS/FAIL line (run with -s or check the assert
message).  Monte-Carlo criteria use fixed seeds, so the whole suite is
deterministic.
"""

import dataclasses
import math

import numpy as np
import pytest

from lifeadd.cli import main as cli_main
from lifeadd.formulas import ContentionParams
from lifeadd.mac import DCF, LIFEADD, REALISTIC, run_config, select_rates
from lifeadd.renewal import simulate_cycles, validate_against_formulas
from lifeadd.scenario import parse_scenario
from lifeadd.solver import (assign_rates, brute_force_oracle,
                            log_throughput_utility, optimality_bounds,
                            water_filling_level)

RHO_PARAMS = ContentionParams(sensing_time=4e-6, packet_time=0.9e-3,
                              ack_time=1e-4)  # sensing ratio 0.004
COMPARISON_SEEDS = (101, 102, 103, 104, 105)


def report_line(number: int, label: str, ok: bool) -> str:
    line = f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'}"
    print(line)
    return line


def test_acceptance_1_formula_validation():
    config = parse_scenario("scenarios/single_ap_validation.json")
    topology = config.build_topology()
    rates, _ = select_rates(topology, config.efficiencies(),
                            config.contention)
    estimates = simulate_cycles(rates, config.contention, 1_000_000, seed=7)
    rows = validate_against_formulas(rates, config.contention, estimates)
    assert len(rows) == 12
    ok = all(
        row.ok and abs(row.measured - row.predicted) <= 0.01 * row.predicted
        for row in rows)
    line = report_line(1, "renewal metrics within 3 sigma and 1% at 1e6 cycles",
                       ok)
    assert ok, line + "; worst rows: " + str(
        [(r.metric, r.device, r.z) for r in rows if not r.ok])


def test_acceptance_2_subunit_fixed_point():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        b = rng.uniform(0.01, 0.9, size=n)
        if b.sum() >= 1.0:
            b /= b.sum() * float(rng.uniform(1.05, 3.0))
        rates = assign_rates(b, RHO_PARAMS).rates.rates
        target = b * (rates.sum() + 1.0 / RHO_PARAMS.busy_time)
        worst = max(worst, float(np.max(np.abs(rates - target) / rates)))
    ok = worst <= 1e-10
    line = report_line(2, f"sub-unit fixed-point residual {worst:.2e} <= 1e-10",
                       ok)
    assert ok, line


def test_acceptance_3_water_filling_exactness():
    rng = np.random.default_rng(2025)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 9))
        b = rng.uniform(0.0, 2.0, size=n)
        if b.sum() < 1.0:
            continue
        level = water_filling_level(b)
        worst = max(worst, abs(float(np.minimum(b, level).sum()) - 1.0))
        checked += 1
    ok = worst <= 1e-12
    line = report_line(3, f"water-filling residual {worst:.2e} <= 1e-12", ok)
    assert ok, line


def test_acceptance_4_near_optimality_against_oracle():
    rng = np.random.default_rng(2026)
    failures = []
    for trial in range(30):
        n = int(rng.choice([2, 3]))
        b = rng.uniform(0.1, 1.5, size=n)
        achieved = log_throughput_utility(assign_rates(b, RHO_PARAMS).rates,
                                          RHO_PARAMS)
        _, _, gap = optimality_bounds(b, RHO_PARAMS)
        oracle = brute_force_oracle(b, RHO_PARAMS, grid_resolution=50)
        excess = oracle.objective - achieved
        if excess > gap + oracle.cell_span:
            failures.append((trial, b.tolist(), excess, gap))
    ok = not failures
    line = report_line(4, "oracle excess within gap + grid slack, 30 instances",
                       ok)
    assert ok, line + f"; failures: {failures}"


def test_acceptance_5_gap_vanishes_with_sensing_ratio():
    busy = 1e-3
    ratios = [1e-2, 0.00783, 1e-3, 1e-4, 1e-5]
    gaps = []
    for rho in ratios:
        params = ContentionParams(rho * busy, 0.9 * busy, 0.1 * busy)
        gaps.append(optimality_bounds([0.5, 0.5, 0.5], params)[2])
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    limit = gaps[-1] / gaps[0] < 0.05
    ok = decreasing and limit
    line = report_line(
        5, f"gap strictly decreasing, ratio {gaps[-1] / gaps[0]:.4f} < 0.05",
        ok)
    assert ok, line + f"; gaps={gaps}"


def test_acceptance_6_lifetime_adjustability():
    base = parse_scenario("scenarios/single_ap_lifetime.json")
    targets = (45.0, 54.0, 72.0, 90.0, 108.0)
    ok = True
    detail = []
    for seed in (11, 12):
        previous = 0.0
        for target in targets:
            devices = [
                dataclasses.replace(
                    d, energy=dataclasses.replace(d.energy,
                                                  target_lifetime=target))
                for d in base.devices
            ]
            config = dataclasses.replace(base, devices=devices)
            rep = run_config(config, seed=seed, mode=REALISTIC,
                             mac_override=LIFEADD)
            lifetime = min(d.lifetime_s for d in rep.devices)
            meets = lifetime >= 0.98 * target
            nondecreasing = lifetime >= previous - 1e-9
            ok &= meets and nondecreasing
            detail.append((seed, target, round(lifetime, 2), meets,
                           nondecreasing))
            previous = lifetime
    line = report_line(6, "lifetime >= 0.98*target and nondecreasing", ok)
    assert ok, line + f"; sweep={detail}"


@pytest.fixture(scope="module")
def comparison_runs():
    """Life-Add and DCF runs shared by the comparison and coexistence tests.

    The coexistence scenario shares topology, energy profiles, contention
    and duration with the comparison scenario, so its all-DCF baseline is
    the same simulation; reuse it rather than running it twice.
    """
    multi = parse_scenario("scenarios/multi_ap_4x30.json")
    coex = parse_scenario("scenarios/coexistence_4ap.json")
    assert [d.position for d in multi.devices] == \
           [d.position for d in coex.devices]
    assert multi.ranges == coex.ranges
    assert multi.contention == coex.contention
    assert multi.duration_s == coex.duration_s
    runs = {}
    for seed in COMPARISON_SEEDS:
        runs[seed] = {
            "lifeadd": run_config(multi, seed=seed, mode=REALISTIC,
                                  mac_override=LIFEADD),
            "dcf": run_config(multi, seed=seed, mode=REALISTIC,
                              mac_override=DCF),
            "mixed": run_config(coex, seed=seed),
        }
    return multi, coex, runs


def test_acceptance_7_baseline_comparison(comparison_runs):
    _, _, runs = comparison_runs
    wins = {"lifetime": 0, "throughput": 0, "jain": 0}
    for seed in COMPARISON_SEEDS:
        life, dcf = runs[seed]["lifeadd"], runs[seed]["dcf"]
        wins["lifetime"] += life.mean_lifetime_s > dcf.mean_lifetime_s
        wins["throughput"] += (life.mean_throughput_bps
                               > dcf.mean_throughput_bps)
        wins["jain"] += life.jain > dcf.jain
    ok = all(count >= 4 for count in wins.values())
    line = report_line(7, f"4-AP comparison wins {wins} out of 5 seeds", ok)
    assert ok, line


def test_acceptance_8_coexistence(comparison_runs):
    _, coex, runs = comparison_runs
    topology = coex.build_topology()
    macs = coex.device_macs(topology)
    upgraded = [d for d, mac in enumerate(macs) if mac == LIFEADD]
    legacy = [d for d, mac in enumerate(macs) if mac == DCF]
    assert upgraded and legacy

    def group_mean_lifetime(report, group):
        values = [report.devices[d].lifetime_s for d in group
                  if math.isfinite(report.devices[d].lifetime_s)]
        return sum(values) / len(values)

    def group_mean_throughput(report, group):
        return sum(report.devices[d].throughput_bps for d in group) / len(group)

    good_seeds = 0
    detail = []
    for seed in COMPARISON_SEEDS:
        mixed, alldcf = runs[seed]["mixed"], runs[seed]["dcf"]
        life_gain = (group_mean_lifetime(mixed, upgraded)
                     > group_mean_lifetime(alldcf, upgraded))
        ratio = (group_mean_throughput(mixed, legacy)
                 / group_mean_throughput(alldcf, legacy))
        good_seeds += life_gain and ratio >= 0.95
        detail.append((seed, life_gain, round(ratio, 4)))
    ok = good_seeds >= 4
    line = report_line(8, f"coexistence good in {good_seeds}/5 seeds", ok)
    assert ok, line + f"; {detail}"


def test_acceptance_9_determinism(tmp_path, capsys):
    scenario = "scenarios/near_far_pair.json"

    def run(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    outputs = []
    for invocation in range(2):
        json_out = tmp_path / f"r{invocation}.json"
        csv_out = tmp_path / f"r{invocation}.csv"
        run(["simulate", "--scenario", scenario, "--out", str(json_out)])
        run(["simulate", "--scenario", scenario, "--format", "csv",
             "--out", str(csv_out)])
        solve_text = run(["solve", "--scenario", scenario])
        validate_text = run(["validate", "--scenario",
                             "scenarios/single_ap_validation.json",
                             "--cycles", "200000"])
        sweep_text = run(["gap-sweep", "--n", "3", "--budgets", "0.5",
                          "--ratio-list", "1e-3,1e-4"])
        outputs.append((json_out.read_bytes(), csv_out.read_bytes(),
                        solve_text, validate_text, sweep_text))
    ok = outputs[0] == outputs[1]
    line = report_line(9, "byte-identical reports across invocations", ok)
    assert ok, line
