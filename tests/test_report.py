import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from lifeadd.formulas import ContentionParams, throughput
from lifeadd.report import (AllZero, DeviceMetrics, SimReport, emit_report,
                            jain_index, total_utility)
from lifeadd.solver import log_throughput_utility


def test_jain_equal_shares():
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jain_one_hot():
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jain_bounds_and_scaling():
    rng = np.random.default_rng(8)
    for _ in range(20):
        values = rng.uniform(0.0, 10.0, size=rng.integers(1, 9))
        if values.max() == 0:
            continue
        j = jain_index(values)
        assert 1.0 / values.size - 1e-12 <= j <= 1.0 + 1e-12
        assert jain_index(values * 37.5) == pytest.approx(j)


def test_jain_rejects_all_zero_and_negative():
    with pytest.raises(AllZero):
        jain_index([0.0, 0.0])
    with pytest.raises(ValueError):
        jain_index([1.0, -1.0])
    with pytest.raises(ValueError):
        jain_index([])


def test_total_utility_values():
    assert total_utility([1.0, 1.0, 1.0]) == pytest.approx(0.0)
    e = math.e
    assert total_utility([e, e, e]) == pytest.approx(3.0)
    # zero entries are excluded, not mapped to -inf
    assert total_utility([e, 0.0, e]) == pytest.approx(2.0)


def test_utility_consistent_with_solver_objective():
    params = ContentionParams(4e-6, 0.9e-3, 1e-4)
    rates = np.array([3000.0, 6000.0, 9000.0])
    alphas = np.array([11e6, 11e6, 5.5e6])
    tput_kbps = throughput(rates, params, alpha=alphas) / 1000.0
    expected = (log_throughput_utility(rates, params, alphas)
                - rates.size * math.log(1000.0))
    assert total_utility(tput_kbps) == pytest.approx(expected, rel=1e-12)


def sample_report():
    rows = [
        DeviceMetrics("d0", "lifeadd", 1.2e6, 0.31, 154.2, 100, 7,
                      3000.0, 2900.0),
        DeviceMetrics("d1", "lifeadd", 0.0, 0.02, math.inf, 0, 55,
                      3000.0, 120.0),
    ]
    return SimReport(mode="realistic", seed=9, devices=rows,
                     prng="numpy-pcg64", duration_s=30.0).finalize()


def test_aggregates():
    rep = sample_report()
    assert rep.zero_throughput_devices == 1
    assert rep.mean_lifetime_s == pytest.approx(154.2)
    assert rep.ack_success_ratio == pytest.approx(100 / 162)
    assert rep.total_utility_nats == pytest.approx(math.log(1200.0))


def test_csv_columns_exact():
    data = emit_report(sample_report(), "csv").decode()
    header = data.splitlines()[0]
    assert header == ("device_id,mac,mode,throughput_bps,radio_on_fraction,"
                      "lifetime_s,tx_success,tx_collision,assigned_rate_hz,"
                      "mean_effective_rate_hz")
    body = [line for line in data.splitlines()
            if line and not line.startswith("#")]
    assert len(body) == 3
    comments = [line for line in data.splitlines() if line.startswith("#")]
    assert any("jain=" in c for c in comments)
    assert any(c.startswith("# mean_lifetime_s=") for c in comments)
    assert "inf" in data  # infinite lifetime serialized readably


def test_json_round_trip_is_byte_identical():
    rep = sample_report()
    blob = emit_report(rep, "json")
    parsed = json.loads(blob)
    again = (json.dumps(parsed, indent=2) + "\n").encode()
    assert blob == again


def test_same_report_emits_identical_bytes():
    assert emit_report(sample_report(), "csv") == emit_report(
        sample_report(), "csv")
    assert emit_report(sample_report(), "json") == emit_report(
        sample_report(), "json")


def test_json_rejects_nan_instead_of_writing_invalid_json():
    report = sample_report()
    report.devices[0].throughput_bps = math.nan
    with pytest.raises(ValueError):
        emit_report(report, "json")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(sample_report(), "yaml")


def test_csv_writes_numpy_floats_as_plain_numbers():
    rep = sample_report()
    rep.devices[0].assigned_rate_hz = np.float64(1512.8091872791517)
    row = emit_report(rep, "csv").decode().splitlines()[1]
    assert row.split(",")[-2] == "1512.8091872791517"


def test_one_version_string():
    from setuptools.config.pyprojecttoml import read_configuration

    import lifeadd
    root = Path(__file__).resolve().parent.parent
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is beta
        project = read_configuration(root / "pyproject.toml")["project"]
    assert project["version"] == lifeadd.__version__
    assert sample_report().version == lifeadd.__version__
