"""Scenario files: strict-schema parsing and validation.

A scenario is a JSON document describing the topology, the per-device
energy profiles, MAC selection, contention timing, packet sizes and run
controls.  Parsing is strict: unknown or repeated keys and type mismatches
raise ParseError with the offending field path; semantic violations are
collected exhaustively into one ValidationError.

Battery quantities accept joules directly or ``{"mah": x, "voltage": v}``
(voltage defaults to the Li-ion nominal 3.7 V).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .energy import (DEFAULT_BATTERY_VOLTAGE, EnergyProfile,
                     InfeasibleLifetime, energy_budget, joules_from_mah)
from .formulas import ContentionParams
from .kernel import NS_PER_S, seconds_to_ns
from .mac import (BEACON_PERIOD_S, MACS, MODES, RENEWAL, DcfParams,
                  renewal_violations)
from .topology import Ranges, Topology, UnassociatedDevice, build_topology

SEEDS = range(2**64)  # the seeds a scenario file or the command line may give


class ParseError(ValueError):
    """Malformed scenario: bad JSON, unknown key, or wrong type."""


class ValidationError(ValueError):
    """One or more scenario invariants are violated."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def _require(mapping, path: str, known: dict[str, bool]) -> None:
    """Reject a non-object, unknown keys and missing required ones."""
    if not isinstance(mapping, dict):
        raise ParseError(f"{path}: expected an object")
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
        _require(value, path, {"mah": True, "voltage": False})
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
class PacketDistribution:
    """Empirical packet-size distribution in bytes."""

    choices: tuple[float, ...]
    weights: tuple[float, ...]


@dataclass
class ScenarioConfig:
    aps: list[ApConfig]
    devices: list[DeviceConfig]
    ranges: Ranges
    mac: str
    mode: str
    contention: ContentionParams
    duration_s: float
    seed: int
    packet_bytes: float | PacketDistribution | None = None
    dcf: DcfParams = DcfParams()
    beacon_period_s: float = BEACON_PERIOD_S
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

    def device_macs(self, topology: Topology,
                    override: str | None = None) -> list[str]:
        """Each device runs the MAC of its associated AP, or ``override``."""
        if override is not None:
            return [override] * len(self.devices)
        return [self.aps[ap].mac or self.mac for ap in topology.associated_ap]

    def packet_sampler(self):
        """Per-packet airtime in seconds derived from packet_bytes, or None.

        Airtime is bytes * 8 / alpha of the transmitting device; a
        distribution draws from the device's own random stream.
        """
        pb = self.packet_bytes
        if pb is None:
            return None
        if isinstance(pb, PacketDistribution):
            import numpy as np
            choices = np.asarray(pb.choices)
            weights = np.asarray(pb.weights) / sum(pb.weights)

            def sampler(dev):
                size = dev.stream.choice(choices, weights)
                return size * 8.0 / dev.alpha
            return sampler
        return lambda dev: pb * 8.0 / dev.alpha


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
    _require(raw, "scenario", {
        "aps": True, "devices": True, "ranges": True, "mac": True,
        "mode": True, "contention": True, "traffic": False,
        "duration_s": True, "seed": True, "dcf": False,
        "beacon_period_s": False, "name": False, "description": False,
    })
    violations: list[str] = []

    aps = [_parse_ap(a, f"aps[{i}]") for i, a in
           enumerate(_list(raw["aps"], "aps"))]
    devices = [_parse_device(d, f"devices[{i}]", violations) for i, d in
               enumerate(_list(raw["devices"], "devices"))]

    ranges_raw = raw["ranges"]
    _require(ranges_raw, "ranges", {"sensing": True, "interference": True,
                                    "communication": True})
    radii = [_number(ranges_raw[k], f"ranges.{k}")
             for k in ("sensing", "interference", "communication")]
    try:
        ranges = Ranges(*radii)
    except ValueError as exc:
        violations.append(f"ranges: {exc}")
        ranges = Ranges(1.0, 1.0, 1.0)

    cont_raw = raw["contention"]
    _require(cont_raw, "contention", {"sensing_time_s": True,
                                      "packet_time_s": True,
                                      "ack_time_s": True})
    timings = [_seconds(cont_raw[k], f"contention.{k}")
               for k in ("sensing_time_s", "packet_time_s", "ack_time_s")]
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

    packet_bytes = _parse_traffic(raw.get("traffic", {}), violations)

    mac = _string(raw["mac"], "mac")
    mode = _string(raw["mode"], "mode")
    dcf = raw.get("dcf", {})
    _require(dcf, "dcf", {"slot_s": False, "difs_s": False,
                          "cw_min": False, "cw_max": False})

    config = ScenarioConfig(
        aps=aps, devices=devices, ranges=ranges, mac=mac, mode=mode,
        contention=contention,
        duration_s=_seconds(raw["duration_s"], "duration_s"),
        seed=_integer(raw["seed"], "seed"), packet_bytes=packet_bytes,
        dcf=DcfParams(**{k: _seconds(v, f"dcf.{k}") if k.endswith("_s")
                         else _integer(v, f"dcf.{k}")
                         for k, v in dcf.items()}),
        beacon_period_s=_seconds(raw.get("beacon_period_s", BEACON_PERIOD_S),
                                 "beacon_period_s"),
        name=_string(raw.get("name", ""), "name"),
        description=_string(raw.get("description", ""), "description"),
    )
    _validate(config, violations)
    if violations:
        raise ValidationError(violations)
    return config


def _parse_ap(raw, path: str) -> ApConfig:
    _require(raw, path, {"id": True, "position": True, "mac": False})
    mac = raw.get("mac")
    if mac is not None:
        mac = _string(mac, path + ".mac")
    return ApConfig(_string(raw["id"], path + ".id"),
                    _position(raw["position"], path + ".position"), mac)


def _parse_device(raw, path: str, violations: list[str]) -> DeviceConfig:
    _require(raw, path, {"id": True, "position": True, "energy": True,
                         "alpha_bps": True})
    energy_raw = raw["energy"]
    _require(energy_raw, path + ".energy", {
        "initial_energy": True, "battery_capacity": True,
        "radio_on_power_w": True, "base_power_w": True,
        "recharge_rate_w": False, "target_lifetime_s": False,
    })
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


def _parse_traffic(raw, violations: list[str]
                   ) -> float | PacketDistribution | None:
    """The optional traffic section's packet_bytes."""
    _require(raw, "traffic", {"packet_bytes": False})
    pb = raw.get("packet_bytes")
    packet_bytes: float | PacketDistribution | None = None
    if isinstance(pb, dict):
        _require(pb, "traffic.packet_bytes", {"choices": True,
                                              "weights": True})
        choices, weights = (
            tuple(_number(x, f"traffic.packet_bytes.{key}[]")
                  for x in _list(pb[key], f"traffic.packet_bytes.{key}"))
            for key in ("choices", "weights"))
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
    return packet_bytes


def _validate(config: ScenarioConfig, violations: list[str]) -> None:
    # A zero-length run divides by zero; a zero beacon period never ends.
    if seconds_to_ns(config.duration_s) < 1:
        violations.append("duration_s must be at least 1 ns")
    if config.seed not in SEEDS:
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
    dcf = config.dcf
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

    pb = config.packet_bytes
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

    if config.aps and config.devices:
        try:
            topo = config.build_topology()
        except UnassociatedDevice as exc:
            violations.append(str(exc))
        else:
            if config.mode == RENEWAL:
                violations += renewal_violations(config.device_macs(topo),
                                                 topo)
