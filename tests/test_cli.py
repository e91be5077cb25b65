import json
import math
from pathlib import Path

import pytest

from lifeadd.cli import main

VALIDATION = "scenarios/single_ap_validation.json"
NEAR_FAR = "scenarios/near_far_pair.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reports_assignment(capsys):
    code, out, err = run_cli(capsys, "solve", "--scenario", VALIDATION)
    assert code == 0 and not err
    payload = json.loads(out)
    ap = payload["aps"][0]
    assert ap["case"] == "super_unit"
    assert ap["c_star"] == pytest.approx(1.0 / 3.0)
    assert ap["y_star"] == pytest.approx(18871.37, abs=0.01)
    d0 = payload["devices"][0]
    assert d0["assigned_rate_hz"] == pytest.approx(ap["y_star"] / 3.0)
    assert 0 < d0["predicted"]["radio_on_fraction"] < 0.4


def test_validate_passes_and_prints_table(capsys):
    code, out, err = run_cli(capsys, "validate", "--scenario", VALIDATION,
                             "--cycles", "50000")
    assert code == 0
    assert "win_probability" in out
    assert "radio_on_fraction" in out
    assert out.count("ok") >= 12
    assert "all within 3 sigma" in out


def test_gap_sweep_monotone(capsys):
    code, out, _ = run_cli(capsys, "gap-sweep", "--n", "3",
                           "--budgets", "0.5",
                           "--ratio-list", "1e-2,0.00783,1e-3,1e-4,1e-5")
    assert code == 0
    gaps = [float(line.split()[-1]) for line in out.splitlines()[1:]]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] / gaps[0] < 0.05


def test_gap_sweep_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "gap-sweep", "--n", "2",
                           "--budgets", "0.4,0.8",
                           "--ratio-list", "4e-3", "--oracle")
    assert code == 0
    header, row = out.splitlines()
    assert "oracle" in header
    gap = float(row.split()[3])
    excess = float(row.split()[5])
    assert excess <= gap + 1e-6


def test_simulate_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, err = run_cli(capsys, "simulate", "--scenario", NEAR_FAR,
                               "--out", str(out))
        assert code == 0 and not err
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_replications_summary(tmp_path, capsys):
    out = tmp_path / "reps.json"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", NEAR_FAR,
                         "--seed", "3", "--replications", "2",
                         "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["replications"]) == 2
    assert "mean" in payload["summary"]["mean_throughput_bps"]
    assert list(payload["summary"]) == [
        "jain_index", "total_utility_nats", "mean_lifetime_s",
        "mean_throughput_bps", "ack_success_ratio"]
    seeds = [r["provenance"]["seed"] for r in payload["replications"]]
    assert seeds == [3, 4]


def test_simulate_trace_written(tmp_path, capsys):
    trace = tmp_path / "events.tsv"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", NEAR_FAR,
                         "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines and all(len(l.split("\t")) == 4 for l in lines)


def test_missing_scenario_fails_with_json_error(capsys):
    code, out, err = run_cli(capsys, "solve", "--scenario", "/nope.json")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "invalid_input"


def test_invalid_scenario_fails_with_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(bad))
    assert code == 2
    assert "parse" in json.loads(err)["error"]["message"]


def test_solve_predictions_match_renewal_measurements(tmp_path, capsys):
    # end-to-end coherence: the analytic predictions printed by solve agree
    # with what a renewal-mode simulation of the same scenario measures
    code, out, _ = run_cli(capsys, "solve", "--scenario", VALIDATION)
    assert code == 0
    predictions = {d["id"]: d["predicted"]["throughput_bps"]
                   for d in json.loads(out)["devices"]}
    sim_out = tmp_path / "renewal.json"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", VALIDATION,
                         "--mode", "renewal", "--out", str(sim_out))
    assert code == 0
    report = json.loads(sim_out.read_text())
    cycles = report["provenance"]["duration_s"] / 1.053e-3
    for row in report["devices"]:
        predicted = predictions[row["device_id"]]
        p = predicted / 11e6
        sigma = math.sqrt(p * (1 - p) / cycles) * 11e6
        assert abs(row["throughput_bps"] - predicted) <= 4 * sigma


def test_compare_runs_and_reports_wins(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code, text, _ = run_cli(capsys, "compare", "--scenario", NEAR_FAR,
                            "--seeds", "17,18", "--out", str(out))
    assert code == 0
    assert "lifeadd wins out of 2 seeds" in text
    payload = json.loads(out.read_text())
    assert payload["seeds"] == [17, 18]
    assert set(payload["wins"]) == {"lifetime", "throughput", "jain", "ack"}


def test_compare_rejects_non_integer_seeds(capsys):
    code, out, err = run_cli(capsys, "compare", "--scenario", NEAR_FAR,
                             "--seeds", "17,a")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "invalid_input"
    assert "--seeds expects" in error["message"]


def test_solve_lists_ap_that_hears_no_device(tmp_path, capsys):
    scenario = json.loads(Path(NEAR_FAR).read_text())
    scenario["aps"].append({"id": "lonely", "position": [1500.0, 1500.0]})
    path = tmp_path / "lonely.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(capsys, "solve", "--scenario", str(path))
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["aps"][2] == {"id": "lonely", "case": None,
                                 "c_star": None, "y_star": None, "rates": {}}
    _, original, _ = run_cli(capsys, "solve", "--scenario", NEAR_FAR)
    original = json.loads(original)
    assert payload["aps"][:2] == original["aps"]
    assert payload["devices"] == original["devices"]
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                           "--out", str(tmp_path / "report.json"))
    assert code == 0 and not err


@pytest.mark.parametrize("argv", [("--ratio-list", "nan"),
                                  ("--ratio-list", "1e-3,inf"),
                                  ("--ratio-list", "1e-3", "--busy-time",
                                   "nan")])
def test_gap_sweep_rejects_non_finite_numbers(capsys, argv):
    code, out, err = run_cli(capsys, "gap-sweep", "--n", "3", "--budgets",
                             "0.5", *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "invalid_input"


def test_simulate_rejects_zero_replications(capsys):
    code, out, err = run_cli(capsys, "simulate", "--scenario", NEAR_FAR,
                             "--replications", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "invalid_input"


def test_simulate_csv_replications_without_out_fails_before_running(
        tmp_path, capsys):
    trace = tmp_path / "tr"
    code, out, err = run_cli(capsys, "simulate", "--scenario", NEAR_FAR,
                             "--replications", "3", "--format", "csv",
                             "--trace", str(trace))
    assert code == 2 and out == ""
    assert "needs --out" in json.loads(err)["error"]["message"]
    assert list(tmp_path.iterdir()) == []


def test_validate_rejects_zero_cycles(capsys):
    code, out, err = run_cli(capsys, "validate", "--scenario", VALIDATION,
                             "--cycles", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "invalid_input"


@pytest.mark.parametrize("argv, message", [
    (("--n", "2", "--budgets", "0.5,0.5,0.5"), "--budgets needs 1 or 2"),
    (("--n", "5", "--oracle"), "50**5 exceeds the oracle's cap"),
    (("--n", "2", "--busy-time", "-1"), "sensing_time must be >= 0"),
    (("--n", "0"), "--n must be >= 1"),
    (("--n", "2", "--budgets", "0"), "zero energy budget"),
    (("--n", "2", "--budgets", "-1"), "must be finite and >= 0"),
    (("--n", "2", "--budgets", "abc"), "--budgets expects"),
    (("--n", "2", "--ratio-list", "x"), "--ratio-list expects"),
    (("--n", "2", "--budgets", "1e-7", "--oracle"), "starts at 1 Hz"),
])
def test_gap_sweep_rejects_bad_input(capsys, argv, message):
    code, out, err = run_cli(capsys, "gap-sweep", "--budgets", "0.5",
                             "--ratio-list", "4e-3", *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "invalid_input"
    assert message in error["message"]


@pytest.mark.parametrize("argv, bad_seed", [
    (("simulate", "--scenario", NEAR_FAR, "--seed", "-1"), -1),
    (("simulate", "--scenario", NEAR_FAR, "--seed", str(2**64)), 2**64),
    (("simulate", "--scenario", NEAR_FAR, "--seed", str(2**64 - 1),
      "--replications", "2"), 2**64),
    (("validate", "--scenario", VALIDATION, "--seed", "-1"), -1),
    (("compare", "--scenario", NEAR_FAR, "--seeds", "17,-1"), -1),
], ids=["simulate-negative", "simulate-2**64", "simulate-replications",
        "validate-negative", "compare-negative"])
def test_out_of_range_seed_fails_before_running(tmp_path, capsys, argv,
                                                bad_seed):
    if argv[0] == "simulate":
        argv += ("--trace", str(tmp_path / "tr"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "invalid_input"
    assert f"seed {bad_seed} is outside [0, 2**64)" in error["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("--scenario", VALIDATION, "--mac", "dcf"), "every AP on lifeadd"),
    (("--scenario", "scenarios/multi_ap_4x30.json", "--mode", "renewal"),
     "all devices within sensing range"),
])
def test_simulate_override_breaking_renewal_rule_fails_before_running(
        tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, "simulate", *argv,
                             "--trace", str(tmp_path / "tr"))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "invalid_input"
    assert message in error["message"]
    assert list(tmp_path.iterdir()) == []
