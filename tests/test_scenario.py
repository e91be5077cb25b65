import json
import re

import pytest

from lifeadd.energy import joules_from_mah
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
    ("dcf", 5, "dcf: expected an object"),
    ("traffic", 5, "traffic: expected an object"),
    ("aps.0", 5, "aps[0]: expected an object"),
    ("devices.0.energy", 5, "devices[0].energy: expected an object"),
    ("traffic.packet_bytes", {"choices": 5, "weights": [1.0]},
     "traffic.packet_bytes.choices: expected a list"),
    ("traffic.packet_bytes", {"choices": [1.0], "weights": 5},
     "traffic.packet_bytes.weights: expected a list"),
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
    ("traffic.saturated", "traffic: unknown key(s) ['saturated']"),
])
def test_dropped_keys_rejected_by_name(tmp_path, field, message):
    # Scenario files once carried these; the model assumes APs on wall
    # power and saturated traffic, and nothing read the field size.
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


def test_packet_distribution_validation(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["traffic"] = {"packet_bytes": {"choices": [100.0, 1500.0],
                                           "weights": [0.5]}}
    with pytest.raises(ValidationError, match="same length"):
        parse_scenario(write(tmp_path, payload))
    payload["traffic"]["packet_bytes"] = {"choices": [100.0, -5.0],
                                          "weights": [0.5, 0.5]}
    with pytest.raises(ValidationError, match="> 0"):
        parse_scenario(write(tmp_path, payload))


def test_packet_longer_than_the_run_is_rejected(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["traffic"] = {"packet_bytes": 1e300}
    with pytest.raises(ValidationError, match="traffic.packet_bytes"):
        parse_scenario(write(tmp_path, payload))
    # 11 Mb/s for 10 s is 13.75e6 bytes: the largest packet that fits.
    payload["traffic"]["packet_bytes"] = 13.75e6
    assert parse_scenario(write(tmp_path, payload)).packet_bytes == 13.75e6


def test_packet_distribution_longer_than_the_run_is_rejected(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["traffic"] = {"packet_bytes": {"choices": [1500.0, 1e300],
                                           "weights": [0.5, 0.5]}}
    with pytest.raises(ValidationError, match="traffic.packet_bytes"):
        parse_scenario(write(tmp_path, payload))


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
        payload["beacon_period_s"] = slot
    text = json.dumps(payload)
    for token in NON_FINITE:
        path = tmp_path / "scenario.json"
        path.write_text(text.replace(f'"{slot}"', token))
        with pytest.raises(ParseError, match="finite"):
            parse_scenario(path)


@pytest.mark.parametrize("field", ["duration_s", "beacon_period_s"])
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


@pytest.mark.parametrize("dcf, message", [
    ({"slot_s": 0.0}, "dcf.slot_s must be at least 1 ns"),
    ({"slot_s": 1e-10}, "dcf.slot_s must be at least 1 ns"),
    ({"difs_s": -1.0}, "dcf.difs_s must be >= 0"),
    ({"cw_min": -5}, "0 <= cw_min <= cw_max"),
    ({"cw_min": 64, "cw_max": 15}, "0 <= cw_min <= cw_max"),
])
def test_dcf_block_rejects_meaningless_values(tmp_path, dcf, message):
    payload = json.loads(json.dumps(BASE))
    payload["dcf"] = dcf
    with pytest.raises(ValidationError, match=message):
        parse_scenario(write(tmp_path, payload))


@pytest.mark.parametrize("field", ["duration_s", "beacon_period_s",
                                   "contention.packet_time_s",
                                   "dcf.difs_s"])
def test_timing_beyond_the_nanosecond_clock_rejected(tmp_path, field):
    payload = json.loads(json.dumps(BASE))
    block, _, key = field.rpartition(".")
    (payload.setdefault(block, {}) if block else payload)[key] = 1e300
    with pytest.raises(ParseError, match=field.replace(".", r"\.")):
        parse_scenario(write(tmp_path, payload))
