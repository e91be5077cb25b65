import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifeadd.topology import (Ranges, UnassociatedDevice, build_topology)


def test_near_far_asymmetric_interference():
    # d0 close to ap1's receiver, d1 far from ap0: the asymmetry that
    # starves the far device under plain CSMA.
    topo = build_topology(
        [[0.0, 0.0], [80.0, 0.0]],
        [[30.0, 0.0], [95.0, 0.0]],
        Ranges(sensing=70.0, interference=60.0, communication=55.0))
    assert topo.interferes_at[0, 1]       # d0 corrupts receptions at ap1
    assert not topo.interferes_at[1, 0]   # d1 cannot reach ap0
    assert topo.device_senses_device[0, 1]
    assert topo.device_senses_device[1, 0]
    assert topo.associated_ap.tolist() == [0, 1]
    assert set(topo.devices_heard_by(1)) == {0, 1}
    assert set(topo.devices_heard_by(0)) == {0}
    assert topo.hears_ap.tolist() == [[True, True], [False, True]]


def test_colocated_nodes_form_complete_sensing_graph():
    n = 5
    topo = build_topology([[0.0, 0.0]], [[0.0, 0.0]] * n,
                          Ranges(10.0, 10.0, 10.0))
    off_diag = ~np.eye(n, dtype=bool)
    assert topo.device_senses_device[off_diag].all()
    assert not topo.device_senses_device.diagonal().any()


def test_device_out_of_reach_is_rejected():
    with pytest.raises(UnassociatedDevice):
        build_topology([[0.0, 0.0]], [[500.0, 0.0]],
                       Ranges(110.0, 110.0, 110.0))


def test_association_picks_nearest_ap():
    topo = build_topology([[0.0, 0.0], [100.0, 0.0]],
                          [[10.0, 0.0], [60.0, 0.0], [99.0, 0.0]],
                          Ranges(200.0, 200.0, 200.0))
    assert topo.associated_ap.tolist() == [0, 1, 1]


def test_sensing_is_symmetric():
    rng = np.random.default_rng(3)
    devices = rng.uniform(0, 100, size=(12, 2))
    topo = build_topology([[50.0, 50.0]], devices, Ranges(40.0, 40.0, 120.0))
    assert (topo.device_senses_device == topo.device_senses_device.T).all()


def test_ranges_validation():
    with pytest.raises(ValueError, match=r"sensing range must be > 0"):
        Ranges(0.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        build_topology([], [[0.0, 0.0]], Ranges(1.0, 1.0, 1.0))


def test_single_collision_domain():
    ranges = Ranges(sensing=10.0, interference=10.0, communication=100.0)
    assert build_topology([[0, 0]], [[1, 1]], ranges).single_collision_domain
    assert build_topology([[0, 0]], [[0, 0], [5, 5], [-5, 5]],
                          ranges).single_collision_domain
    assert not build_topology([[0, 0]], [[0, 0], [5, 5], [20, 0]],
                              ranges).single_collision_domain


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_non_finite_radius_rejected(slot, value):
    # A NaN sensing radius would make every neighbour a hidden terminal.
    radii = [10.0, 10.0, 10.0]
    radii[slot] = value
    name = ("sensing", "interference", "communication")[slot]
    with pytest.raises(ValueError, match=f"{name} range must be finite"):
        Ranges(*radii)


def span(p, q):
    """Distance between two grid points (exact up to the one rounding)."""
    return math.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)


def scanned_relations(aps, devices, ranges):
    """The per-device scan in AP order: association, unreached devices,
    devices heard per AP and the one-collision-domain test."""
    dist = [[span(dev, ap) for ap in aps] for dev in devices]
    associated, unreached = [], []
    for d, row in enumerate(dist):
        in_range = [ap for ap in range(len(aps))
                    if row[ap] <= ranges.communication]
        if not in_range:
            unreached.append(d)
            continue
        best = in_range[0]
        for ap in in_range[1:]:
            if row[ap] < row[best]:
                best = ap
        associated.append(best)
    heard = [[d for d in range(len(devices))
              if dist[d][ap] <= ranges.communication]
             for ap in range(len(aps))]
    single = all(span(a, b) <= ranges.sensing
                 for i, a in enumerate(devices)
                 for j, b in enumerate(devices) if i != j)
    return associated, unreached, heard, single


POINT = st.tuples(st.integers(0, 6), st.integers(0, 6))
# Square roots of integers hit the grid's distances exactly.
RADIUS = st.one_of(st.integers(1, 72).map(math.sqrt), st.floats(0.5, 10.0))


@settings(max_examples=150, deadline=None)
@given(st.lists(POINT, min_size=1, max_size=4),
       st.lists(POINT, min_size=1, max_size=8), RADIUS, RADIUS, RADIUS)
def test_topology_relations_equal_the_per_device_scan(aps, devices, sensing,
                                                      interference, comm):
    ranges = Ranges(sensing, interference, comm)
    associated, unreached, heard, single = scanned_relations(aps, devices,
                                                             ranges)
    if unreached:
        with pytest.raises(UnassociatedDevice) as err:
            build_topology(aps, devices, ranges)
        assert str(err.value) == (
            f"devices {unreached} have no AP within communication range "
            f"{comm} m")
        return
    topo = build_topology(aps, devices, ranges)
    assert topo.associated_ap.tolist() == associated
    for ap in range(len(aps)):
        assert topo.devices_heard_by(ap) == heard[ap]
        assert all(type(d) is int for d in topo.devices_heard_by(ap))
    assert topo.single_collision_domain is single
