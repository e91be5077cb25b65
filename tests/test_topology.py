import numpy as np
import pytest

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
    with pytest.raises(ValueError):
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
