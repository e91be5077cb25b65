"""Device energy budgets: battery, recharge and lifetime-target accounting.

Translates a device's battery capacity, recharge rate and target lifetime
into the maximum allowable average power draw of the WiFi radio and the
corresponding target energy efficiency (the allowed radio-on time fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Li-ion nominal cell voltage; used when a battery is given in mAh without
# an explicit voltage.
DEFAULT_BATTERY_VOLTAGE = 3.7

# Energy efficiency assigned to devices without a lifetime target.  Any
# value > 1 makes the radio-on constraint vacuous, and keeping it finite
# keeps the water-filling sums finite.
UNCONSTRAINED_EFFICIENCY = 2.0


class InfeasibleLifetime(ValueError):
    """Target lifetime exceeds what the battery and recharge rate allow."""


def joules_from_mah(mah: float, voltage: float = DEFAULT_BATTERY_VOLTAGE) -> float:
    """Convert a battery charge in mAh to energy in joules.

    1 mAh carries 3.6 coulomb, so the energy is ``mah * 3.6 * voltage``
    (13.32 J per mAh at the 3.7 V default).
    """
    if mah < 0:
        raise ValueError(f"mAh must be >= 0, got {mah}")
    if voltage <= 0:
        raise ValueError(f"voltage must be > 0, got {voltage}")
    return mah * 3.6 * voltage


@dataclass(frozen=True)
class EnergyProfile:
    """Battery, recharge and power-draw parameters of one device.

    Attributes:
        initial_energy: energy stored in the battery at time zero (J).
        battery_capacity: maximum energy the battery can hold (J).
        recharge_rate: mean replenishment power from solar/wall supply (W);
            0 for battery-only devices.
        radio_on_power: power drawn by the WiFi radio while awake (W).
        base_power: power drawn by the non-WiFi components (W).
        target_lifetime: required operation time (s); None means the device
            has no lifetime requirement.
    """

    initial_energy: float
    battery_capacity: float
    radio_on_power: float
    base_power: float
    recharge_rate: float = 0.0
    target_lifetime: float | None = None

    def __post_init__(self) -> None:
        for name in ("initial_energy", "battery_capacity", "recharge_rate",
                     "radio_on_power", "base_power"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.radio_on_power <= 0:
            raise ValueError("radio_on_power must be > 0")
        if self.initial_energy > self.battery_capacity:
            raise ValueError(
                f"initial_energy {self.initial_energy} exceeds battery_capacity "
                f"{self.battery_capacity}")
        if self.target_lifetime is not None and not self.target_lifetime > 0:
            raise ValueError("target_lifetime must be > 0 when given")


@dataclass(frozen=True)
class DeviceBudget:
    """Solved energy budget: allowed radio power and on-time fraction.

    ``efficiency`` is the allowed fraction of time the radio may be on
    (allowed radio power divided by the radio's on-power).  Values >= 1
    mean the radio could stay on forever without missing the lifetime
    target.
    """

    allowed_radio_power: float
    efficiency: float

    def __post_init__(self) -> None:
        if not self.allowed_radio_power >= 0:
            raise ValueError("allowed_radio_power must be >= 0")


def max_feasible_lifetime(profile: EnergyProfile) -> float:
    """Longest lifetime attainable with the radio permanently off.

    The battery drains at ``base_power - recharge_rate``; when recharge
    covers the base load the device can run forever.
    """
    net_drain = profile.base_power - profile.recharge_rate
    if net_drain <= 0:
        return math.inf
    return profile.initial_energy / net_drain


def energy_budget(profile: EnergyProfile) -> DeviceBudget:
    """Compute the allowed radio power and target energy efficiency.

    The battery must last ``target_lifetime`` against the base load, so the
    radio may consume at most ``B/T + r - base`` on average.  A profile
    without a lifetime target gets efficiency UNCONSTRAINED_EFFICIENCY.

    Raises:
        InfeasibleLifetime: the target exceeds max_feasible_lifetime.
    """
    t_max = max_feasible_lifetime(profile)
    if profile.target_lifetime is None:
        allowed = UNCONSTRAINED_EFFICIENCY * profile.radio_on_power
        return DeviceBudget(allowed, UNCONSTRAINED_EFFICIENCY)
    if profile.target_lifetime > t_max:
        raise InfeasibleLifetime(
            f"target lifetime {profile.target_lifetime:.6g} s exceeds the "
            f"maximum feasible lifetime {t_max:.6g} s")
    allowed = (profile.initial_energy / profile.target_lifetime
               + profile.recharge_rate - profile.base_power)
    allowed = max(allowed, 0.0)  # guard rounding when target == t_max
    return DeviceBudget(allowed, allowed / profile.radio_on_power)


def battery_level(profile: EnergyProfile, elapsed_radio_on: float,
                  elapsed_total: float) -> float:
    """Battery energy after ``elapsed_total`` seconds of operation.

    ``elapsed_radio_on`` of those seconds had the radio awake.  The radio
    draws nothing while asleep.  The result is clamped to [0, capacity];
    power is piecewise constant so no finer integration is needed.
    """
    if elapsed_total < 0 or elapsed_radio_on < 0:
        raise ValueError("elapsed times must be >= 0")
    if elapsed_radio_on > elapsed_total:
        raise ValueError("elapsed_radio_on cannot exceed elapsed_total")
    level = (profile.initial_energy
             + (profile.recharge_rate - profile.base_power) * elapsed_total
             - profile.radio_on_power * elapsed_radio_on)
    return min(max(level, 0.0), profile.battery_capacity)
