import dataclasses
import json
import re

import pytest

import lifeadd.scenario
from lifeadd.cli import main
from lifeadd.energy import joules_from_mah
from lifeadd.mac import run_config
from lifeadd.scenario import (ParseError, ValidationError, parse_scenario)

BASE = {
    "aps": [{"id": "ap0", "position": [25.0, 25.0]}],
    "devices": [
        {"id": "d0", "position": [10.0, 10.0],
         "energy": {"initial_energy": 100.0, "battery_capacity": 100.0,
                    "radio_on_power_w": 1.0, "base_power_w": 0.3,
                    "recharge_rate_w": 0.1},
         "alpha_bps": 11e6},
    ],
    "ranges": {"sensing": 110.0, "interference": 110.0,
               "communication": 110.0},
    "mac": "lifeadd",
    "mode": "realistic",
    "contention": {"sensing_time_s": 4e-6, "packet_time_s": 0.9e-3,
                   "ack_time_s": 1e-4},
    "duration_s": 10.0,
    "seed": 1,
}


def write(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


def put(payload, field, value):
    """Set a dotted field path, such as ``devices.0.energy``."""
    *parents, key = [int(p) if p.isdigit() else p for p in field.split(".")]
    node = payload
    for part in parents:
        if isinstance(part, str):
            node.setdefault(part, {})
        node = node[part]
    node[key] = value


def test_stepped_battery_profiles_parse_to_expected_budgets():
    cfg = parse_scenario("scenarios/heterogeneous_trio.json")
    budgets = cfg.efficiencies()
    expected = [
        (joules_from_mah(200.0) / 5400.0 + 0.187 - 0.315) / 1.12,
        (joules_from_mah(100.0) / 2700.0 + 0.09 - 0.315) / 1.12,
        (joules_from_mah(66.6) / 1800.0 + 0.067 - 0.315) / 1.12,
    ]
    assert budgets == pytest.approx(expected)
    assert sum(budgets) < 1.0  # all three energy constraints bind here


def test_mah_voltage_override(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["devices"][0]["energy"]["initial_energy"] = {"mah": 10,
                                                         "voltage": 5.0}
    payload["devices"][0]["energy"]["battery_capacity"] = {"mah": 20}
    cfg = parse_scenario(write(tmp_path, payload))
    assert cfg.devices[0].energy.initial_energy == pytest.approx(180.0)
    assert cfg.devices[0].energy.battery_capacity == pytest.approx(
        joules_from_mah(20.0))


def test_empty_device_list_rejected(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["devices"] = []
    with pytest.raises(ValidationError, match="at least one device"):
        parse_scenario(write(tmp_path, payload))


def test_duplicate_device_id_rejected(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["devices"].append(json.loads(json.dumps(payload["devices"][0])))
    with pytest.raises(ValidationError, match="duplicate device id"):
        parse_scenario(write(tmp_path, payload))


@pytest.mark.parametrize("field, value, message", [
    ("ranges", 5, "ranges: expected an object"),
    ("ranges", ["sensing", "interference", "communication"],
     "ranges: expected an object"),
    ("contention", 5, "contention: expected an object"),
    ("aps.0", 5, "aps[0]: expected an object"),
    ("devices.0.energy", 5, "devices[0].energy: expected an object"),
])
def test_wrongly_shaped_section_names_its_path(tmp_path, field, value,
                                               message):
    payload = json.loads(json.dumps(BASE))
    put(payload, field, value)
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_scenario(write(tmp_path, payload))


def test_top_level_must_be_an_object(tmp_path):
    with pytest.raises(ParseError, match="scenario: expected an object"):
        parse_scenario(write(tmp_path, [BASE]))


def test_repeated_key_rejected(tmp_path):
    text = json.dumps(BASE)
    path = tmp_path / "scenario.json"
    path.write_text(text[:-1] + ', "seed": 7}')
    with pytest.raises(ParseError, match=r"duplicate key.*'seed'"):
        parse_scenario(path)
    path.write_text(text.replace('"sensing": 110.0',
                                 '"sensing": 110.0, "sensing": 5.0'))
    with pytest.raises(ParseError, match=r"duplicate key.*'sensing'"):
        parse_scenario(path)


@pytest.mark.parametrize("field, message", [
    ("field_size", "scenario: unknown key(s) ['field_size']"),
    ("aps.0.wall_powered", "aps[0]: unknown key(s) ['wall_powered']"),
    ("traffic", "scenario: unknown key(s) ['traffic']"),
    ("dcf", "scenario: unknown key(s) ['dcf']"),
    ("beacon_period_s", "scenario: unknown key(s) ['beacon_period_s']"),
])
def test_dropped_keys_rejected_by_name(tmp_path, field, message):
    # Scenario files once carried these; the model assumes APs on wall
    # power and saturated traffic of one packet time, nothing read the
    # field size, and the DCF timing and beacon period are constants.
    payload = json.loads(json.dumps(BASE))
    put(payload, field, True)
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_scenario(write(tmp_path, payload))


def test_unknown_key_rejected_with_path(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["devices"][0]["oops"] = 1
    with pytest.raises(ParseError, match=r"devices\[0\].*oops"):
        parse_scenario(write(tmp_path, payload))
    payload = json.loads(json.dumps(BASE))
    payload["extra_top"] = 1
    with pytest.raises(ParseError, match="extra_top"):
        parse_scenario(write(tmp_path, payload))


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 1,\n  oops\n}')
    with pytest.raises(ParseError, match="line 3"):
        parse_scenario(path)


def test_infeasible_lifetime_rejected(tmp_path):
    payload = json.loads(json.dumps(BASE))
    # max feasible lifetime is 100/(0.3-0.1) = 500 s
    payload["devices"][0]["energy"]["target_lifetime_s"] = 600.0
    with pytest.raises(ValidationError, match="d0"):
        parse_scenario(write(tmp_path, payload))


def test_zero_budget_rejected(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["devices"][0]["energy"]["target_lifetime_s"] = 500.0
    with pytest.raises(ValidationError, match="zero energy budget"):
        parse_scenario(write(tmp_path, payload))


def test_all_violations_reported_together(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["duration_s"] = -1.0
    payload["mac"] = "token-ring"
    payload["ranges"]["sensing"] = 0.0
    with pytest.raises(ValidationError) as err:
        parse_scenario(write(tmp_path, payload))
    text = str(err.value)
    assert "duration_s" in text and "mac" in text and "ranges" in text
    assert len(err.value.violations) >= 3


@pytest.mark.parametrize("key, value", [("sensing", 0.0),
                                        ("interference", 0.0),
                                        ("communication", -5.0)])
def test_invalid_ranges_are_the_only_violation(tmp_path, key, value):
    # No stand-in range block: one would also report devices out of reach.
    with open("scenarios/near_far_pair.json") as f:
        payload = json.load(f)
    payload["ranges"][key] = value
    with pytest.raises(ValidationError) as err:
        parse_scenario(write(tmp_path, payload))
    assert err.value.violations == [f"ranges: {key} range must be > 0"]


def test_unreachable_device_rejected(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["devices"][0]["position"] = [2000.0, 2000.0]
    with pytest.raises(ValidationError, match="communication range"):
        parse_scenario(write(tmp_path, payload))


def test_renewal_requires_lifeadd_everywhere(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["mode"] = "renewal"
    payload["aps"][0]["mac"] = "dcf"
    with pytest.raises(ValidationError, match="renewal"):
        parse_scenario(write(tmp_path, payload))


def test_renewal_ignores_dcf_ap_that_serves_no_device(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["mode"] = "renewal"
    payload["aps"].append({"id": "idle", "position": [2000.0, 2000.0],
                           "mac": "dcf"})
    config = parse_scenario(write(tmp_path, payload))
    assert config.device_macs(config.build_topology()) == ["lifeadd"]


def test_device_macs_follow_ap_overrides(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["aps"].append({"id": "ap1", "position": [40.0, 40.0],
                           "mac": "dcf"})
    payload["devices"].append(
        {"id": "d1", "position": [41.0, 41.0],
         "energy": dict(payload["devices"][0]["energy"]),
         "alpha_bps": 11e6})
    cfg = parse_scenario(write(tmp_path, payload))
    topo = cfg.build_topology()
    assert cfg.device_macs(topo) == ["lifeadd", "dcf"]
    assert cfg.device_macs(topo, "dcf") == ["dcf", "dcf"]


def test_checked_in_scenarios_parse():
    for name in ("single_ap_validation", "single_ap_lifetime",
                 "heterogeneous_trio", "near_far_pair", "multi_ap_4x30",
                 "coexistence_4ap"):
        cfg = parse_scenario(f"scenarios/{name}.json")
        assert cfg.duration_s > 0


NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400)


@pytest.mark.parametrize("field", ["number", "position", "energy", "range",
                                   "timing"])
def test_non_finite_values_rejected(tmp_path, field):
    payload = json.loads(json.dumps(BASE))
    slot = "__value__"
    device = payload["devices"][0]
    if field == "number":
        device["alpha_bps"] = slot
    elif field == "position":
        payload["aps"][0]["position"] = [slot, 25.0]
    elif field == "energy":
        device["energy"]["initial_energy"] = {"mah": slot}
    elif field == "range":
        payload["ranges"]["sensing"] = slot
    else:
        payload["duration_s"] = slot
    text = json.dumps(payload)
    for token in NON_FINITE:
        path = tmp_path / "scenario.json"
        path.write_text(text.replace(f'"{slot}"', token))
        with pytest.raises(ParseError, match="finite"):
            parse_scenario(path)


@pytest.mark.parametrize("field", ["duration_s"])
@pytest.mark.parametrize("value", [0.0, 1e-12])
def test_run_timing_below_one_nanosecond_rejected(tmp_path, field, value):
    payload = json.loads(json.dumps(BASE))
    payload[field] = value
    with pytest.raises(ValidationError,
                       match=f"{field} must be at least 1 ns"):
        parse_scenario(write(tmp_path, payload))


@pytest.mark.filterwarnings("ignore:sensing ratio")
@pytest.mark.parametrize("field", ["sensing_time_s", "packet_time_s"])
def test_contention_timing_below_one_nanosecond_rejected(tmp_path, field):
    # 0.1 ns rounds to 0 ns: the DES then saw no sensing window (no device
    # ever transmitted) or zero-length packets (zero throughput).
    payload = json.loads(json.dumps(BASE))
    payload["contention"][field] = 1e-10
    with pytest.raises(ValidationError,
                       match=f"contention.{field} must be at least 1 ns"):
        parse_scenario(write(tmp_path, payload))


@pytest.mark.parametrize("field", ["duration_s",
                                   "contention.packet_time_s"])
def test_timing_beyond_the_nanosecond_clock_rejected(tmp_path, field):
    payload = json.loads(json.dumps(BASE))
    block, _, key = field.rpartition(".")
    (payload.setdefault(block, {}) if block else payload)[key] = 1e300
    with pytest.raises(ParseError, match=field.replace(".", r"\.")):
        parse_scenario(write(tmp_path, payload))


@pytest.mark.parametrize("field, value", [
    ("aps.0.id", "ap,0"), ("devices.0.id", "far,1"), ("devices.0.id", 'd"0'),
    ("devices.0.id", "d\r0"), ("devices.0.id", "d\n0")])
def test_id_that_would_break_the_csv_report_rejected(tmp_path, capsys, field,
                                                     value):
    # emit_csv quotes nothing: a comma would add a column, a newline a row.
    payload = json.loads(json.dumps(BASE))
    put(payload, field, value)
    path = write(tmp_path, payload)
    where = field.replace(".0.", "[0].")
    with pytest.raises(ValidationError, match=re.escape(where)):
        parse_scenario(path)
    code = main(["simulate", "--scenario", str(path), "--format", "csv"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert where in json.loads(err)["error"]["message"]


@pytest.fixture
def topology_builds(monkeypatch):
    """The calls of ``scenario.build_topology``, counted as they happen."""
    calls = []
    build = lifeadd.scenario.build_topology

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(lifeadd.scenario, "build_topology", counted)
    return calls


def test_a_scenario_builds_its_topology_once(tmp_path, capsys,
                                             topology_builds):
    payload = json.loads(json.dumps(BASE))
    payload["duration_s"] = 1.0
    path = write(tmp_path, payload)
    config = parse_scenario(path)
    run_config(config)
    assert len(topology_builds) == 1  # the parser's, reused by the run
    assert config.build_topology() is config.build_topology()
    topology_builds.clear()
    assert main(["simulate", "--scenario", str(path),
                 "--replications", "3"]) == 0
    capsys.readouterr()
    assert len(topology_builds) == 1  # its own parse, then three runs


def test_a_replaced_config_builds_its_own_topology(topology_builds):
    config = parse_scenario("scenarios/near_far_pair.json")
    copy = dataclasses.replace(config, seed=config.seed + 1)
    assert copy.build_topology() is not config.build_topology()
    assert copy.build_topology() is copy.build_topology()
    assert len(topology_builds) == 2


def test_scenario_config_is_frozen():
    config = parse_scenario("scenarios/near_far_pair.json")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 2


def test_efficiencies_are_a_fresh_list_each_call():
    config = parse_scenario("scenarios/heterogeneous_trio.json")
    first = config.efficiencies()
    expected = list(first)
    first[0] = -1.0
    first.append(0.0)
    assert config.efficiencies() == expected


def test_a_parse_computes_each_budget_once(monkeypatch):
    # The parser's feasibility check keeps the efficiencies it computes.
    calls = []
    budget = lifeadd.scenario.energy_budget

    def counted(profile):
        calls.append(profile)
        return budget(profile)
    monkeypatch.setattr(lifeadd.scenario, "energy_budget", counted)
    config = parse_scenario("scenarios/multi_ap_4x30.json")
    assert config.efficiencies() == [budget(d.energy).efficiency
                                     for d in config.devices]
    assert len(calls) == len(config.devices) == 30
    copy = dataclasses.replace(config, seed=config.seed + 1)
    assert copy.efficiencies() == config.efficiencies()
    assert len(calls) == 60  # a replaced config computes its own
