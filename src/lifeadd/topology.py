"""Disc-model radio topology: sensing, interference and association graphs.

Positions are 2-D points in meters.  Three radii define the graphs:

* sensing: two transmitters within this distance defer to each other;
* interference: a transmitter within this distance of a receiver corrupts
  overlapping receptions there (need not be symmetric across device pairs,
  which is exactly the near-far effect);
* communication: a device associates with, reports to, and hears beacons
  from APs within this distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UnassociatedDevice(ValueError):
    """A device has no AP within communication range."""


@dataclass(frozen=True)
class Ranges:
    sensing: float
    interference: float
    communication: float

    def __post_init__(self) -> None:
        for name in ("sensing", "interference", "communication"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} range must be > 0")


class Topology:
    """Precomputed geometric relations between devices and APs."""

    def __init__(self, ap_positions: np.ndarray, device_positions: np.ndarray,
                 ranges: Ranges) -> None:
        self.ap_positions = np.asarray(ap_positions, dtype=float).reshape(-1, 2)
        self.device_positions = np.asarray(device_positions,
                                           dtype=float).reshape(-1, 2)
        self.ranges = ranges
        if self.ap_positions.shape[0] == 0:
            raise ValueError("at least one AP is required")
        if self.device_positions.shape[0] == 0:
            raise ValueError("at least one device is required")

        dev = self.device_positions
        ap = self.ap_positions
        self._dev_dev = _pairwise(dev, dev)
        self._dev_ap = _pairwise(dev, ap)

        self.device_senses_device = self._dev_dev <= ranges.sensing
        np.fill_diagonal(self.device_senses_device, False)
        self.device_senses_ap = self._dev_ap <= ranges.sensing
        self.interferes_at = self._dev_ap <= ranges.interference
        self.hears_ap = self._dev_ap <= ranges.communication

        self.associated_ap = np.full(dev.shape[0], -1, dtype=int)
        unreached = []
        for d in range(dev.shape[0]):
            in_range = np.flatnonzero(self.hears_ap[d])
            if in_range.size == 0:
                unreached.append(d)
                continue
            self.associated_ap[d] = in_range[np.argmin(self._dev_ap[d, in_range])]
        if unreached:
            raise UnassociatedDevice(
                f"devices {unreached} have no AP within communication range "
                f"{ranges.communication} m")

    @property
    def n_devices(self) -> int:
        return self.device_positions.shape[0]

    @property
    def n_aps(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def single_collision_domain(self) -> bool:
        """True when every device senses every other one."""
        off_diagonal = ~np.eye(self.n_devices, dtype=bool)
        return bool(self.device_senses_device[off_diagonal].all())

    def devices_heard_by(self, ap: int) -> np.ndarray:
        """Devices within the AP's communication range, any association."""
        return np.flatnonzero(self.hears_ap[:, ap])


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def build_topology(ap_positions, device_positions, ranges: Ranges) -> Topology:
    """Validate positions and precompute all geometric relations."""
    return Topology(np.asarray(ap_positions, dtype=float),
                    np.asarray(device_positions, dtype=float), ranges)
