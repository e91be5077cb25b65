"""Closed-form performance of the sleep-wake contention scheme.

All quantities are per sleep-wake cycle of the renewal process: the cycle
runs from the end of one ACK/timeout to the end of the next, and consists
of an idle period (the shortest residual sleep among the contenders), one
data transmission or collision, and the ACK/timeout window.

Rates are the per-device sleep-rate parameters: device n sleeps for an
exponentially distributed period with mean 1/rate[n].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Above this sensing-time to busy-time ratio the near-optimality of the
# rate assignment degrades noticeably; practical WiFi timings sit well
# below it.
SENSING_RATIO_WARN = 0.01


@dataclass(frozen=True)
class ContentionParams:
    """Shared MAC timing: carrier sensing, data and ACK durations (s)."""

    sensing_time: float
    packet_time: float
    ack_time: float

    def __post_init__(self) -> None:
        for name in ("sensing_time", "packet_time", "ack_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # sensing_time 0 is the zero-window limit, useful for sanity checks;
        # the rate solver requires it to be positive.
        if self.sensing_time < 0:
            raise ValueError("sensing_time must be >= 0")
        if self.packet_time <= 0:
            raise ValueError("packet_time must be > 0")
        if self.ack_time < 0:
            raise ValueError("ack_time must be >= 0")
        if self.sensing_ratio > SENSING_RATIO_WARN:
            warnings.warn(
                f"sensing ratio {self.sensing_ratio:.4g} exceeds "
                f"{SENSING_RATIO_WARN}; rate assignments are only "
                "near-optimal for small ratios", stacklevel=2)

    @property
    def busy_time(self) -> float:
        """Duration of the non-idle part of a cycle (data + ACK)."""
        return self.packet_time + self.ack_time

    @property
    def sensing_ratio(self) -> float:
        return self.sensing_time / (self.packet_time + self.ack_time)


@dataclass(frozen=True)
class RateVector:
    """Per-device sleep-rate parameters, all strictly positive (1/s)."""

    rates: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.rates, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("rates must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ValueError("rates must be finite and > 0")
        object.__setattr__(self, "rates", arr)


def _as_rates(rates) -> np.ndarray:
    if isinstance(rates, RateVector):
        return rates.rates
    return RateVector(np.asarray(rates, dtype=float)).rates


def success_probability(rates, params: ContentionParams) -> np.ndarray:
    """Probability that each device wins the channel in one cycle.

    Device n wins when every other residual sleep exceeds its own by more
    than the sensing time.  Evaluated in log space so large rate-times-
    sensing products cannot overflow.
    """
    r = _as_rates(rates)
    y = r.sum()
    ts = params.sensing_time
    return np.exp(np.log(r) + r * ts - math.log(y) - y * ts)


def collision_probability(rates, params: ContentionParams) -> float:
    """Probability that a cycle ends in a collision (no device wins)."""
    beta = success_probability(rates, params)
    return float(max(0.0, 1.0 - beta.sum()))


def attempt_probability(rates, params: ContentionParams) -> np.ndarray:
    """Probability that each device transmits in a cycle, win or collide.

    Device n transmits unless some other device woke more than the sensing
    time before it: either its residual sleep is shorter than the sensing
    time (nobody can have preceded it by that much) or it wakes first among
    the survivors.
    """
    r = _as_rates(rates)
    y = r.sum()
    ts = params.sensing_time
    return -np.expm1(-r * ts) + np.exp(-r * ts) * r / y


def success_time_fraction(rates, params: ContentionParams) -> np.ndarray:
    """Long-run fraction of time each device spends transmitting successfully.

    Renewal reward: the expected successful airtime per cycle over the
    expected cycle length (idle 1/sum(rates), busy packet + ACK).
    """
    r = _as_rates(rates)
    y = r.sum()
    beta = success_probability(r, params)
    return beta * params.packet_time / (params.busy_time + 1.0 / y)


def throughput(rates, params: ContentionParams,
               alpha: float | np.ndarray = 1.0) -> np.ndarray:
    """Throughput in the units of ``alpha`` (bits/s per unit airtime)."""
    p = success_time_fraction(rates, params)
    return p * np.asarray(alpha, dtype=float)


def radio_on_fraction(rates, params: ContentionParams) -> np.ndarray:
    """Long-run fraction of time each device's radio is on.

    The radio is on while transmitting (successfully or colliding) and
    while waiting for the ACK or timeout, so each attempt costs
    packet + ACK time.
    """
    r = _as_rates(rates)
    y = r.sum()
    ts = params.sensing_time
    numer = -np.expm1(-r * ts) * y + np.exp(-r * ts) * r
    return numer / (y + 1.0 / params.busy_time)


def log_throughput_utility(rates, params: ContentionParams,
                           alphas=None) -> float:
    """Proportional-fair objective: sum of log throughputs, in nats.

    Expanded form used by the solver; identical to
    ``sum(log(throughput(...)))`` by construction.
    """
    r = _as_rates(rates)
    n = r.size
    y = r.sum()
    lt = params.busy_time
    value = (np.log(r).sum()
             - n * math.log(y + 1.0 / lt)
             - (n - 1) * y * params.sensing_time
             + n * math.log(params.packet_time / lt))
    if alphas is not None:
        value += float(np.log(np.asarray(alphas, dtype=float)).sum())
    return float(value)


def energy_slack(rates, params: ContentionParams, efficiencies) -> np.ndarray:
    """Per-device margin of the radio-on constraint: efficiency - on-fraction.

    The rate vector is feasible when every entry is >= 0.
    """
    b = np.asarray(efficiencies, dtype=float)
    r = _as_rates(rates)
    if b.shape != r.shape:
        raise ValueError("efficiencies must match the rate vector length")
    return b - radio_on_fraction(r, params)
