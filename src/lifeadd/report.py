"""Run metrics: per-device rows, aggregates, and CSV/JSON emission.

Reports are fully deterministic: stable key order, repr-based float
formatting, no timestamps, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__


class AllZero(ValueError):
    """Fairness index is undefined when every value is zero."""


def jain_index(values) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    1 for equal shares, 1/n when one device takes everything.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("need at least one value")
    if np.any(x < 0):
        raise ValueError("values must be >= 0")
    total_sq = float((x * x).sum())
    if total_sq == 0.0:
        raise AllZero("all values are zero")
    return float(x.sum()) ** 2 / (x.size * total_sq)


def total_utility(throughputs_kbps) -> float:
    """Proportional-fair utility: sum of log throughputs in kbps, nats.

    Zero-throughput entries are excluded (callers report their count
    separately) so the sum stays finite.
    """
    x = np.asarray(throughputs_kbps, dtype=float)
    if np.any(x < 0):
        raise ValueError("throughputs must be >= 0")
    positive = x[x > 0]
    if positive.size == 0:
        return 0.0
    return float(np.log(positive).sum())


@dataclass
class DeviceMetrics:
    """One report row; the field order is the CSV and JSON column order."""

    device_id: str
    mac: str
    throughput_bps: float
    radio_on_fraction: float
    lifetime_s: float           # math.inf when never depleting
    tx_success: int
    tx_collision: int
    assigned_rate_hz: float
    mean_effective_rate_hz: float


# SimReport's aggregate and provenance fields, in output order.
AGGREGATE = ("jain", "total_utility_nats", "zero_throughput_devices",
             "mean_lifetime_s", "mean_throughput_bps", "ack_success_ratio")
PROVENANCE = ("seed", "mode", "prng", "version", "duration_s")


def json_key(name: str) -> str:
    """The JSON name of a report field: ``jain`` is ``jain_index``."""
    return "jain_index" if name == "jain" else name


@dataclass
class SimReport:
    mode: str
    seed: int
    devices: list[DeviceMetrics]
    jain: float = 0.0
    total_utility_nats: float = 0.0
    zero_throughput_devices: int = 0
    mean_lifetime_s: float = math.inf
    mean_throughput_bps: float = 0.0
    ack_success_ratio: float = 0.0
    prng: str = ""
    version: str = __version__
    duration_s: float = 0.0

    def finalize(self) -> "SimReport":
        """Fill the aggregate block from the per-device rows."""
        tput = np.array([d.throughput_bps for d in self.devices])
        try:
            self.jain = jain_index(tput)
        except AllZero:
            self.jain = 0.0
        self.total_utility_nats = total_utility(tput / 1000.0)
        self.zero_throughput_devices = int((tput == 0).sum())
        finite = [d.lifetime_s for d in self.devices
                  if math.isfinite(d.lifetime_s)]
        self.mean_lifetime_s = (sum(finite) / len(finite)
                                if finite else math.inf)
        self.mean_throughput_bps = float(tput.mean())
        succ = sum(d.tx_success for d in self.devices)
        coll = sum(d.tx_collision for d in self.devices)
        self.ack_success_ratio = succ / (succ + coll) if succ + coll else 0.0
        return self


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(float(value))  # numpy scalars repr as np.float64(...)
    return str(value)


def _labelled(value: float):
    """JSON has no infinity: write it as "inf"."""
    return "inf" if math.isinf(value) else value


def emit_csv(report: SimReport) -> bytes:
    columns = [f.name for f in fields(DeviceMetrics)]
    columns.insert(columns.index("mac") + 1, "mode")  # the run's, every row
    lines = [",".join(columns)]
    for d in report.devices:
        lines.append(",".join(
            _fmt(report.mode if c == "mode" else getattr(d, c))
            for c in columns))
    for key in AGGREGATE + PROVENANCE:
        lines.append(f"# {key}={_fmt(getattr(report, key))}")
    return ("\n".join(lines) + "\n").encode()


def report_to_dict(report: SimReport) -> dict:
    return {
        "devices": [{**asdict(d), "lifetime_s": _labelled(d.lifetime_s)}
                    for d in report.devices],
        "aggregate": {json_key(key): _labelled(getattr(report, key))
                      for key in AGGREGATE},
        "provenance": {key: getattr(report, key) for key in PROVENANCE},
    }


def emit_json(report: SimReport) -> bytes:
    """JSON report; a NaN or an unlabelled infinity raises ValueError."""
    return (json.dumps(report_to_dict(report), indent=2, allow_nan=False)
            + "\n").encode()


def emit_report(report: SimReport, format: str = "json") -> bytes:
    """Serialize a report; format is "csv" or "json"."""
    if format == "csv":
        return emit_csv(report)
    if format == "json":
        return emit_json(report)
    raise ValueError(f"unknown report format {format!r}")
