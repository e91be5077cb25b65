"""Scenario files: strict-schema parsing and validation.

A scenario is a JSON document describing the topology, the per-device
energy profiles, MAC selection, contention timing, traffic and run
controls.  Parsing is strict: unknown keys and type mismatches raise
ParseError with the offending field path; semantic violations are
collected exhaustively into one ValidationError.

Battery quantities accept joules directly or ``{"mah": x, "voltage": v}``
(voltage defaults to the Li-ion nominal 3.7 V).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .energy import (DEFAULT_BATTERY_VOLTAGE, EnergyProfile,
                     InfeasibleLifetime, energy_budget, joules_from_mah)
from .formulas import ContentionParams
from .kernel import NS_PER_S, seconds_to_ns
from .mac import DcfParams
from .topology import Ranges, Topology, UnassociatedDevice, build_topology

MACS = ("lifeadd", "dcf")
MODES = ("renewal", "realistic")


class ParseError(ValueError):
    """Malformed scenario: bad JSON, unknown key, or wrong type."""


class ValidationError(ValueError):
    """One or more scenario invariants are violated."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def _require(mapping: dict, path: str, known: dict[str, bool]) -> None:
    """Reject unknown keys and report missing required ones."""
    unknown = set(mapping) - set(known)
    if unknown:
        raise ParseError(f"{path}: unknown key(s) {sorted(unknown)}")
    for key, required in known.items():
        if required and key not in mapping:
            raise ParseError(f"{path}: missing required key '{key}'")


def _number(value, path: str) -> float:
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


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string, got {value!r}")
    return value


def _position(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{path}: expected [x, y]")
    return (_number(value[0], path + "[0]"), _number(value[1], path + "[1]"))


def _energy_joules(value, path: str) -> float:
    if isinstance(value, dict):
        _require(value, path, {"mah": True, "voltage": False})
        voltage = _number(value.get("voltage", DEFAULT_BATTERY_VOLTAGE),
                          path + ".voltage")
        return joules_from_mah(_number(value["mah"], path + ".mah"), voltage)
    return _number(value, path)


@dataclass(frozen=True)
class ApConfig:
    id: str
    position: tuple[float, float]
    wall_powered: bool = True
    mac: str | None = None


@dataclass(frozen=True)
class DeviceConfig:
    id: str
    position: tuple[float, float]
    energy: EnergyProfile
    alpha_bps: float


@dataclass(frozen=True)
class PacketDistribution:
    """Empirical packet-size distribution in bytes."""

    choices: tuple[float, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class TrafficConfig:
    saturated: bool = True
    packet_bytes: float | PacketDistribution | None = None


@dataclass
class ScenarioConfig:
    field_size: float
    aps: list[ApConfig]
    devices: list[DeviceConfig]
    ranges: Ranges
    mac: str
    mode: str
    contention: ContentionParams
    traffic: TrafficConfig
    duration_s: float
    seed: int
    dcf: dict = field(default_factory=dict)
    beacon_period_s: float = 0.1
    name: str = ""
    description: str = ""

    # -- derived views ---------------------------------------------------

    def device_ids(self) -> list[str]:
        return [d.id for d in self.devices]

    def profiles(self) -> list[EnergyProfile]:
        return [d.energy for d in self.devices]

    def efficiencies(self) -> list[float]:
        return [energy_budget(d.energy).efficiency for d in self.devices]

    def alphas(self) -> list[float]:
        return [d.alpha_bps for d in self.devices]

    def build_topology(self) -> Topology:
        return build_topology([a.position for a in self.aps],
                              [d.position for d in self.devices], self.ranges)

    def ap_macs(self, override: str | None = None) -> list[str]:
        if override is not None:
            return [override] * len(self.aps)
        return [a.mac or self.mac for a in self.aps]

    def device_macs(self, topology: Topology,
                    override: str | None = None) -> list[str]:
        """Each device runs the MAC of its associated AP."""
        ap_macs = self.ap_macs(override)
        return [ap_macs[topology.associated_ap[d]]
                for d in range(len(self.devices))]

    def packet_sampler(self):
        """Per-packet airtime in seconds derived from packet_bytes, or None.

        Airtime is bytes * 8 / alpha of the transmitting device; a
        distribution draws from the device's own random stream.
        """
        pb = self.traffic.packet_bytes
        if pb is None:
            return None
        if isinstance(pb, PacketDistribution):
            import numpy as np
            choices = np.asarray(pb.choices)
            weights = np.asarray(pb.weights) / sum(pb.weights)

            def sampler(dev):
                size = float(dev.stream.generator.choice(choices, p=weights))
                return size * 8.0 / dev.alpha
            return sampler
        return lambda dev: pb * 8.0 / dev.alpha


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Load, strictly parse, and validate a scenario file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: the top level must be an object")
    return _build_config(raw)


def _build_config(raw: dict) -> ScenarioConfig:
    _require(raw, "scenario", {
        "field_size": True, "aps": True, "devices": True, "ranges": True,
        "mac": True, "mode": True, "contention": True, "traffic": True,
        "duration_s": True, "seed": True, "dcf": False,
        "beacon_period_s": False, "name": False, "description": False,
    })
    violations: list[str] = []

    aps = [_parse_ap(a, f"aps[{i}]") for i, a in
           enumerate(_list_of_dicts(raw["aps"], "aps"))]
    devices = [_parse_device(d, f"devices[{i}]", violations) for i, d in
               enumerate(_list_of_dicts(raw["devices"], "devices"))]

    ranges_raw = raw["ranges"]
    _require(ranges_raw, "ranges", {"sensing": True, "interference": True,
                                    "communication": True})
    try:
        ranges = Ranges(_number(ranges_raw["sensing"], "ranges.sensing"),
                        _number(ranges_raw["interference"],
                                "ranges.interference"),
                        _number(ranges_raw["communication"],
                                "ranges.communication"))
    except ParseError:  # malformed, not merely out of range
        raise
    except ValueError as exc:
        violations.append(f"ranges: {exc}")
        ranges = Ranges(1.0, 1.0, 1.0)

    cont_raw = raw["contention"]
    _require(cont_raw, "contention", {"sensing_time_s": True,
                                      "packet_time_s": True,
                                      "ack_time_s": True})
    try:
        contention = ContentionParams(
            _seconds(cont_raw["sensing_time_s"], "contention.sensing_time_s"),
            _seconds(cont_raw["packet_time_s"], "contention.packet_time_s"),
            _seconds(cont_raw["ack_time_s"], "contention.ack_time_s"))
        # The DES rounds both to whole ns: in a 0 ns window no device
        # transmits, and a 0 ns packet carries no throughput.
        for key, seconds in (("sensing_time_s", contention.sensing_time),
                             ("packet_time_s", contention.packet_time)):
            if seconds_to_ns(seconds) < 1:
                violations.append(f"contention.{key} must be at least 1 ns")
    except ParseError:  # malformed, not merely out of range
        raise
    except ValueError as exc:
        violations.append(f"contention: {exc}")
        contention = ContentionParams(4e-6, 9e-4, 1e-4)

    traffic = _parse_traffic(raw["traffic"], violations)

    mac = _string(raw["mac"], "mac")
    mode = _string(raw["mode"], "mode")
    dcf = raw.get("dcf", {})
    if not isinstance(dcf, dict):
        raise ParseError("dcf: expected an object")
    _require(dcf, "dcf", {"slot_s": False, "difs_s": False,
                          "cw_min": False, "cw_max": False})

    config = ScenarioConfig(
        field_size=_number(raw["field_size"], "field_size"),
        aps=aps, devices=devices, ranges=ranges, mac=mac, mode=mode,
        contention=contention, traffic=traffic,
        duration_s=_seconds(raw["duration_s"], "duration_s"),
        seed=_integer(raw["seed"], "seed"),
        dcf={k: _seconds(v, f"dcf.{k}") if k.endswith("_s")
             else _integer(v, f"dcf.{k}") for k, v in dcf.items()},
        beacon_period_s=_seconds(raw.get("beacon_period_s", 0.1),
                                 "beacon_period_s"),
        name=_string(raw.get("name", ""), "name"),
        description=_string(raw.get("description", ""), "description"),
    )
    _validate(config, violations)
    if violations:
        raise ValidationError(violations)
    return config


def _list_of_dicts(value, path: str) -> list[dict]:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list")
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ParseError(f"{path}[{i}]: expected an object")
    return value


def _parse_ap(raw: dict, path: str) -> ApConfig:
    _require(raw, path, {"id": True, "position": True,
                         "wall_powered": False, "mac": False})
    mac = raw.get("mac")
    if mac is not None:
        mac = _string(mac, path + ".mac")
    wall = raw.get("wall_powered", True)
    if not isinstance(wall, bool):
        raise ParseError(f"{path}.wall_powered: expected a boolean")
    return ApConfig(_string(raw["id"], path + ".id"),
                    _position(raw["position"], path + ".position"),
                    wall, mac)


def _parse_device(raw: dict, path: str, violations: list[str]) -> DeviceConfig:
    _require(raw, path, {"id": True, "position": True, "energy": True,
                         "alpha_bps": True})
    energy_raw = raw["energy"]
    if not isinstance(energy_raw, dict):
        raise ParseError(f"{path}.energy: expected an object")
    _require(energy_raw, path + ".energy", {
        "initial_energy": True, "battery_capacity": True,
        "radio_on_power_w": True, "base_power_w": True,
        "recharge_rate_w": False, "target_lifetime_s": False,
    })
    target = energy_raw.get("target_lifetime_s")
    if target is not None:
        target = _number(target, path + ".energy.target_lifetime_s")
    try:
        profile = EnergyProfile(
            initial_energy=_energy_joules(energy_raw["initial_energy"],
                                          path + ".energy.initial_energy"),
            battery_capacity=_energy_joules(
                energy_raw["battery_capacity"],
                path + ".energy.battery_capacity"),
            radio_on_power=_number(energy_raw["radio_on_power_w"],
                                   path + ".energy.radio_on_power_w"),
            base_power=_number(energy_raw["base_power_w"],
                               path + ".energy.base_power_w"),
            recharge_rate=_number(energy_raw.get("recharge_rate_w", 0.0),
                                  path + ".energy.recharge_rate_w"),
            target_lifetime=target,
        )
    except ParseError:  # malformed, not merely out of range
        raise
    except ValueError as exc:
        violations.append(f"{path}.energy: {exc}")
        profile = EnergyProfile(1.0, 1.0, 1.0, 0.0)
    return DeviceConfig(_string(raw["id"], path + ".id"),
                        _position(raw["position"], path + ".position"),
                        profile,
                        _number(raw["alpha_bps"], path + ".alpha_bps"))


def _parse_traffic(raw, violations: list[str]) -> TrafficConfig:
    if not isinstance(raw, dict):
        raise ParseError("traffic: expected an object")
    _require(raw, "traffic", {"saturated": True, "packet_bytes": False})
    saturated = raw["saturated"]
    if not isinstance(saturated, bool):
        raise ParseError("traffic.saturated: expected a boolean")
    pb = raw.get("packet_bytes")
    packet_bytes: float | PacketDistribution | None = None
    if isinstance(pb, dict):
        _require(pb, "traffic.packet_bytes", {"choices": True,
                                              "weights": True})
        choices = tuple(_number(c, "traffic.packet_bytes.choices[]")
                        for c in pb["choices"])
        weights = tuple(_number(w, "traffic.packet_bytes.weights[]")
                        for w in pb["weights"])
        if len(choices) != len(weights) or not choices:
            violations.append(
                "traffic.packet_bytes: choices and weights must be "
                "non-empty and the same length")
        if any(c <= 0 for c in choices) or any(w <= 0 for w in weights):
            violations.append("traffic.packet_bytes: values must be > 0")
        packet_bytes = PacketDistribution(choices, weights)
    elif pb is not None:
        packet_bytes = _number(pb, "traffic.packet_bytes")
        if packet_bytes <= 0:
            violations.append("traffic.packet_bytes must be > 0")
    return TrafficConfig(saturated, packet_bytes)


def _validate(config: ScenarioConfig, violations: list[str]) -> None:
    if config.field_size <= 0:
        violations.append("field_size must be > 0")
    # A zero-length run divides by zero; a zero beacon period never ends.
    if seconds_to_ns(config.duration_s) < 1:
        violations.append("duration_s must be at least 1 ns")
    if not (0 <= config.seed < 2**64):
        violations.append("seed must fit in 64 bits")
    if seconds_to_ns(config.beacon_period_s) < 1:
        violations.append("beacon_period_s must be at least 1 ns")
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
    if not config.traffic.saturated:
        violations.append("only saturated traffic is supported")
    dcf = DcfParams(**config.dcf)
    if seconds_to_ns(dcf.slot_s) < 1:  # the countdown divides by it
        violations.append("dcf.slot_s must be at least 1 ns")
    if dcf.difs_s < 0:
        violations.append("dcf.difs_s must be >= 0")
    if not 0 <= dcf.cw_min <= dcf.cw_max:
        violations.append(
            f"dcf: need 0 <= cw_min <= cw_max, got cw_min={dcf.cw_min} "
            f"and cw_max={dcf.cw_max}")

    ids = [a.id for a in config.aps]
    if len(set(ids)) != len(ids):
        violations.append("duplicate AP id")
    ids = [d.id for d in config.devices]
    if len(set(ids)) != len(ids):
        violations.append("duplicate device id")

    pb = config.traffic.packet_bytes
    largest = max(pb.choices if isinstance(pb, PacketDistribution)
                  else (pb or 0.0,), default=0.0)
    for d in config.devices:
        if d.alpha_bps <= 0:
            violations.append(f"device {d.id}: alpha_bps must be > 0")
        elif largest * 8.0 / d.alpha_bps > config.duration_s:
            # One packet's airtime, bytes * 8 / alpha, must fit in the run.
            violations.append(f"traffic.packet_bytes: a {largest:g}-byte "
                              f"packet on device {d.id} outlasts duration_s")
        try:
            budget = energy_budget(d.energy)
            if budget.efficiency <= 1e-12:
                violations.append(
                    f"device {d.id}: zero energy budget (target lifetime "
                    "equals the feasible maximum); no positive sleep rate "
                    "exists")
        except InfeasibleLifetime as exc:
            violations.append(f"device {d.id}: {exc}")

    if config.mode == "renewal":
        macs = config.ap_macs()
        if any(m != "lifeadd" for m in macs):
            violations.append("renewal mode requires every AP on lifeadd")

    if config.aps and config.devices:
        try:
            topo = config.build_topology()
        except UnassociatedDevice as exc:
            violations.append(str(exc))
        else:
            if (config.mode == "renewal"
                    and not topo.single_collision_domain):
                violations.append(
                    "renewal mode requires all devices within sensing "
                    "range of each other")
