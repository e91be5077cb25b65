"""Scenario files: strict-schema parsing and validation.

A scenario is a JSON document describing the topology, the per-device
energy profiles, MAC selection, contention timing and run controls.
Parsing is strict: unknown or repeated keys and type mismatches raise
ParseError with the offending field path; semantic violations are
collected exhaustively into one ValidationError.

Battery quantities accept joules directly or ``{"mah": x, "voltage": v}``
(voltage defaults to the Li-ion nominal 3.7 V).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .energy import (DEFAULT_BATTERY_VOLTAGE, EnergyProfile,
                     InfeasibleLifetime, energy_budget, joules_from_mah)
from .formulas import ContentionParams
from .kernel import NS_PER_S, seconds_to_ns
from .mac import MACS, MODES, RENEWAL, renewal_violations
from .topology import Ranges, Topology, UnassociatedDevice, build_topology

SEEDS = range(2**64)  # the seeds a scenario file or the command line may give
CSV_BREAKING = ',"\r\n'  # no id may hold these: the CSV quotes nothing


class ParseError(ValueError):
    """Malformed scenario: bad JSON, unknown key, or wrong type."""


class ValidationError(ValueError):
    """One or more scenario invariants are violated."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


# Each object's keys, mapped to whether the key is required.
_SCENARIO_KEYS = {"aps": True, "devices": True, "ranges": True, "mac": True,
                  "mode": True, "contention": True, "duration_s": True,
                  "seed": True, "name": False, "description": False}
_AP_KEYS = {"id": True, "position": True, "mac": False}
_DEVICE_KEYS = {"id": True, "position": True, "energy": True,
                "alpha_bps": True}
_ENERGY_KEYS = {"initial_energy": True, "battery_capacity": True,
                "radio_on_power_w": True, "base_power_w": True,
                "recharge_rate_w": False, "target_lifetime_s": False}
_MAH_KEYS = {"mah": True, "voltage": False}
_RANGES_KEYS = {"sensing": True, "interference": True, "communication": True}
_CONTENTION_KEYS = {"sensing_time_s": True, "packet_time_s": True,
                    "ack_time_s": True}


def _require(mapping, path: str, known: dict[str, bool]) -> None:
    """Reject a non-object, unknown keys and missing required ones."""
    if not isinstance(mapping, dict):
        raise ParseError(f"{path}: expected an object")
    if not mapping.keys() <= known.keys():
        unknown = mapping.keys() - known.keys()
        raise ParseError(f"{path}: unknown key(s) {sorted(unknown)}")
    for key, required in known.items():
        if required and key not in mapping:
            raise ParseError(f"{path}: missing required key '{key}'")


def _number(value, path: str) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{path}: expected a finite number, got {value!r}")
    return number


def _seconds(value, path: str) -> float:
    """A timing field: a finite number whose nanosecond count is finite."""
    seconds = _number(value, path)
    if not math.isfinite(seconds * NS_PER_S):
        raise ParseError(f"{path}: {value!r} s is too large for the "
                         "nanosecond clock")
    return seconds


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token} is not JSON")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        raise ParseError(f"duplicate key(s) {repeated}")
    return obj


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string, got {value!r}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list")
    return value


def _position(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{path}: expected [x, y]")
    return (_number(value[0], path + "[0]"), _number(value[1], path + "[1]"))


def _energy_amount(value, path: str) -> tuple[float, float | None]:
    """A battery quantity as (joules, None) or (mah, voltage)."""
    if isinstance(value, dict):
        _require(value, path, _MAH_KEYS)
        voltage = _number(value.get("voltage", DEFAULT_BATTERY_VOLTAGE),
                          path + ".voltage")
        return _number(value["mah"], path + ".mah"), voltage
    return _number(value, path), None


def _joules(amount: float, voltage: float | None) -> float:
    """Joules of an ``_energy_amount``; a ValueError when out of range."""
    return amount if voltage is None else joules_from_mah(amount, voltage)


@dataclass(frozen=True)
class ApConfig:
    id: str
    position: tuple[float, float]
    mac: str | None = None


@dataclass(frozen=True)
class DeviceConfig:
    id: str
    position: tuple[float, float]
    energy: EnergyProfile
    alpha_bps: float


@dataclass(frozen=True)
class ScenarioConfig:
    aps: list[ApConfig]
    devices: list[DeviceConfig]
    ranges: Ranges
    mac: str
    mode: str
    contention: ContentionParams
    duration_s: float
    seed: int
    name: str = ""
    description: str = ""

    # -- derived views ---------------------------------------------------

    def device_ids(self) -> list[str]:
        return [d.id for d in self.devices]

    def profiles(self) -> list[EnergyProfile]:
        return [d.energy for d in self.devices]

    def efficiencies(self) -> list[float]:
        return list(self._efficiencies)

    # Built by the parser or on first use; a ``replace`` copy builds anew.
    @cached_property
    def _efficiencies(self) -> list[float]:
        return [energy_budget(d.energy).efficiency for d in self.devices]

    def alphas(self) -> list[float]:
        return [d.alpha_bps for d in self.devices]

    def build_topology(self) -> Topology:
        return self._topology

    @cached_property
    def _topology(self) -> Topology:
        return build_topology([a.position for a in self.aps],
                              [d.position for d in self.devices], self.ranges)

    def device_macs(self, topology: Topology,
                    override: str | None = None) -> list[str]:
        """Each device runs the MAC of its associated AP, or ``override``."""
        if override is not None:
            return [override] * len(self.devices)
        return [self.aps[ap].mac or self.mac for ap in topology.associated_ap]


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Load, strictly parse, and validate a scenario file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text, parse_constant=_reject_constant,
                         object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None
    return _build_config(raw)


def _build_config(raw) -> ScenarioConfig:
    _require(raw, "scenario", _SCENARIO_KEYS)
    violations: list[str] = []

    aps = [_parse_ap(a, f"aps[{i}]") for i, a in
           enumerate(_list(raw["aps"], "aps"))]
    devices = [_parse_device(d, f"devices[{i}]", violations) for i, d in
               enumerate(_list(raw["devices"], "devices"))]

    ranges_raw = raw["ranges"]
    _require(ranges_raw, "ranges", _RANGES_KEYS)
    radii = [_number(ranges_raw[k], f"ranges.{k}") for k in _RANGES_KEYS]
    try:
        ranges = Ranges(*radii)
    except ValueError as exc:
        violations.append(f"ranges: {exc}")
        ranges = None  # no topology to check

    cont_raw = raw["contention"]
    _require(cont_raw, "contention", _CONTENTION_KEYS)
    timings = [_seconds(cont_raw[k], f"contention.{k}")
               for k in _CONTENTION_KEYS]
    try:
        contention = ContentionParams(*timings)
        # The DES rounds both to whole ns: in a 0 ns window no device
        # transmits, and a 0 ns packet carries no throughput.
        for key, seconds in (("sensing_time_s", contention.sensing_time),
                             ("packet_time_s", contention.packet_time)):
            if seconds_to_ns(seconds) < 1:
                violations.append(f"contention.{key} must be at least 1 ns")
    except ValueError as exc:
        violations.append(f"contention: {exc}")
        contention = ContentionParams(4e-6, 9e-4, 1e-4)

    mac = _string(raw["mac"], "mac")
    mode = _string(raw["mode"], "mode")

    config = ScenarioConfig(
        aps=aps, devices=devices, ranges=ranges, mac=mac, mode=mode,
        contention=contention,
        duration_s=_seconds(raw["duration_s"], "duration_s"),
        seed=_integer(raw["seed"], "seed"),
        name=_string(raw.get("name", ""), "name"),
        description=_string(raw.get("description", ""), "description"),
    )
    _validate(config, violations)
    if violations:
        raise ValidationError(violations)
    return config


def _parse_ap(raw, path: str) -> ApConfig:
    _require(raw, path, _AP_KEYS)
    mac = raw.get("mac")
    if mac is not None:
        mac = _string(mac, path + ".mac")
    return ApConfig(_string(raw["id"], path + ".id"),
                    _position(raw["position"], path + ".position"), mac)


def _parse_device(raw, path: str, violations: list[str]) -> DeviceConfig:
    _require(raw, path, _DEVICE_KEYS)
    energy_raw = raw["energy"]
    _require(energy_raw, path + ".energy", _ENERGY_KEYS)
    target = energy_raw.get("target_lifetime_s")
    if target is not None:
        target = _number(target, path + ".energy.target_lifetime_s")
    initial = _energy_amount(energy_raw["initial_energy"],
                             path + ".energy.initial_energy")
    capacity = _energy_amount(energy_raw["battery_capacity"],
                              path + ".energy.battery_capacity")
    powers = [_number(energy_raw.get(k, 0.0), f"{path}.energy.{k}")
              for k in ("radio_on_power_w", "base_power_w", "recharge_rate_w")]
    try:
        profile = EnergyProfile(_joules(*initial), _joules(*capacity),
                                *powers, target_lifetime=target)
    except ValueError as exc:
        violations.append(f"{path}.energy: {exc}")
        profile = EnergyProfile(1.0, 1.0, 1.0, 0.0)
    return DeviceConfig(_string(raw["id"], path + ".id"),
                        _position(raw["position"], path + ".position"),
                        profile,
                        _number(raw["alpha_bps"], path + ".alpha_bps"))


def _validate(config: ScenarioConfig, violations: list[str]) -> None:
    # A zero-length run divides by zero.
    if seconds_to_ns(config.duration_s) < 1:
        violations.append("duration_s must be at least 1 ns")
    if config.seed not in SEEDS:
        violations.append("seed must fit in 64 bits")
    if not config.aps:
        violations.append("at least one AP is required")
    if not config.devices:
        violations.append("at least one device is required")
    if config.mac not in MACS:
        violations.append(f"mac must be one of {MACS}, got {config.mac!r}")
    if config.mode not in MODES:
        violations.append(f"mode must be one of {MODES}, got {config.mode!r}")
    for ap in config.aps:
        if ap.mac is not None and ap.mac not in MACS:
            violations.append(f"ap {ap.id}: mac must be one of {MACS}")

    for key, items, what in (("aps", config.aps, "AP"),
                             ("devices", config.devices, "device")):
        ids = [item.id for item in items]
        if len(set(ids)) != len(ids):
            violations.append(f"duplicate {what} id")
        for i, item_id in enumerate(ids):
            if any(c in item_id for c in CSV_BREAKING):
                violations.append(
                    f"{key}[{i}].id: {item_id!r} holds a comma, a quote, CR "
                    "or LF, which would break the CSV report")

    efficiencies = []
    for d in config.devices:
        if d.alpha_bps <= 0:
            violations.append(f"device {d.id}: alpha_bps must be > 0")
        try:
            budget = energy_budget(d.energy)
            efficiencies.append(budget.efficiency)
            if budget.efficiency <= 1e-12:
                violations.append(
                    f"device {d.id}: zero energy budget (target lifetime "
                    "equals the feasible maximum); no positive sleep rate "
                    "exists")
        except InfeasibleLifetime as exc:
            violations.append(f"device {d.id}: {exc}")
    if len(efficiencies) == len(config.devices):
        vars(config)["_efficiencies"] = efficiencies  # fills the cache

    if config.aps and config.devices and config.ranges is not None:
        try:
            topo = config.build_topology()
        except UnassociatedDevice as exc:
            violations.append(str(exc))
        else:
            if config.mode == RENEWAL:
                violations += renewal_violations(config.device_macs(topo),
                                                 topo)
