"""Golden outputs: the sha256 of every command's output bytes is pinned.

The digests live in ``golden_digests.json``; a change that moves one
output byte fails here.  Covered: ``solve`` for every checked-in
scenario, ``simulate`` JSON and CSV for every scenario in its own mode
and with ``--mac lifeadd`` and ``--mac dcf`` (renewal scenarios run DCF
in realistic mode), one trace with battery deaths and beacon recomputes,
the renewal (``CYCLE_START``) engine's trace, ``gap-sweep`` with the
oracle and ``validate`` at a reduced cycle count, plus one ``validate`` of
400,001 cycles: three Monte-Carlo chunks, the last of a single row.

The 30-device runs are cut to 2 s simulated; ``single_ap_lifetime`` keeps
its full 130 s so that three deaths and their beacon recomputes are
pinned.  Two 16 s field runs (``multi_ap_4x30`` on DCF, and
``coexistence_4ap`` in its own mode) cross the first idle-listening death
at 15.09 s and pin, with their traces, the DCF interrupt and polling paths
after it.  A simulate case runs ``run_config`` once and hashes both
formats, which is what ``lifeadd simulate --format json|csv`` emits.

After a deliberate output change, regenerate with
``PYTHONPATH=src python tests/test_golden.py --write`` and name the bytes
that moved, and why, in the change log.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from lifeadd.cli import main as cli_main
from lifeadd.mac import run_config
from lifeadd.report import emit_report
from lifeadd.scenario import parse_scenario

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("golden_digests.json")
SCENARIOS = ("coexistence_4ap", "heterogeneous_trio", "multi_ap_4x30",
             "near_far_pair", "single_ap_lifetime", "single_ap_validation")
FIELD_DURATION_S = 2.0
DEATH_DURATION_S = 16.0


def _scenario(name: str) -> str:
    return str(ROOT / "scenarios" / f"{name}.json")


def _config(name: str, duration_s: float | None = None):
    config = parse_scenario(_scenario(name))
    if duration_s is None and len(config.devices) >= 30:
        duration_s = FIELD_DURATION_S
    if duration_s is not None:
        config = dataclasses.replace(config, duration_s=duration_s)
    return config


def _simulate_cases() -> dict:
    """Case id -> (scenario, mac override, mode override, duration
    override)."""
    cases = {}
    for name in SCENARIOS:
        renewal = parse_scenario(_scenario(name)).mode == "renewal"
        cases[f"{name}-own"] = (name, None, None, None)
        cases[f"{name}-lifeadd"] = (name, "lifeadd", None, None)
        cases[f"{name}-dcf"] = (name, "dcf",
                                "realistic" if renewal else None, None)
    cases["multi_ap_4x30-dcf-16s"] = ("multi_ap_4x30", "dcf", None,
                                      DEATH_DURATION_S)
    cases["coexistence_4ap-own-16s"] = ("coexistence_4ap", None, None,
                                        DEATH_DURATION_S)
    return cases


SIMULATE = _simulate_cases()
TRACED = ("single_ap_lifetime-own", "single_ap_validation-own",
          "multi_ap_4x30-dcf-16s", "coexistence_4ap-own-16s")
# Case id -> (scenario, cycles).
VALIDATE = {"heterogeneous_trio": ("heterogeneous_trio", "20000"),
            "single_ap_validation": ("single_ap_validation", "20000"),
            "single_ap_validation-400001": ("single_ap_validation",
                                            "400001")}
GAP_SWEEP = ("gap-sweep", "--n", "3", "--budgets", "0.5", "--ratio-list",
             "1e-2,0.00783,1e-3,1e-4,1e-5", "--oracle")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv) -> bytes:
    """Run the command line; the digest covers its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return f"exit={code}\n{out.getvalue()}".encode()


def simulate_outputs(case: str) -> dict[str, bytes]:
    name, mac, mode, duration_s = SIMULATE[case]
    config = _config(name, duration_s)
    trace = io.StringIO() if case in TRACED else None
    report = run_config(config, mode=mode, mac_override=mac, trace=trace)
    outputs = {f"simulate/{case}/json": emit_report(report, "json"),
               f"simulate/{case}/csv": emit_report(report, "csv")}
    if trace is not None:
        outputs[f"simulate/{case}/trace"] = trace.getvalue().encode()
    return outputs


def solve_output(name: str) -> bytes:
    return _cli("solve", "--scenario", _scenario(name))


def validate_output(case: str) -> bytes:
    name, cycles = VALIDATE[case]
    return _cli("validate", "--scenario", _scenario(name), "--cycles",
                cycles)


def all_digests() -> dict[str, str]:
    digests = {f"solve/{n}": _sha(solve_output(n)) for n in SCENARIOS}
    digests.update({f"validate/{n}": _sha(validate_output(n))
                    for n in VALIDATE})
    digests["gap-sweep/n3-oracle"] = _sha(_cli(*GAP_SWEEP))
    for case in SIMULATE:
        digests.update({k: _sha(v)
                        for k, v in simulate_outputs(case).items()})
    return dict(sorted(digests.items()))


def golden_keys() -> set[str]:
    """The digest keys the case tables produce, without running a case."""
    keys = {f"solve/{n}" for n in SCENARIOS}
    keys |= {f"validate/{n}" for n in VALIDATE}
    keys.add("gap-sweep/n3-oracle")
    for case in SIMULATE:
        keys |= {f"simulate/{case}/json", f"simulate/{case}/csv"}
    keys |= {f"simulate/{case}/trace" for case in TRACED}
    return keys


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


def test_golden_digests_cover_exactly_the_cases(golden):
    assert set(golden) == golden_keys()


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_solve(golden, name):
    assert _sha(solve_output(name)) == golden[f"solve/{name}"]


@pytest.mark.parametrize("case", VALIDATE)
def test_golden_validate(golden, case):
    assert _sha(validate_output(case)) == golden[f"validate/{case}"]


def test_golden_gap_sweep(golden):
    assert _sha(_cli(*GAP_SWEEP)) == golden["gap-sweep/n3-oracle"]


@pytest.mark.parametrize("case", sorted(SIMULATE))
def test_golden_simulate(golden, case):
    outputs = simulate_outputs(case)
    moved = [key for key, data in outputs.items()
             if _sha(data) != golden[key]]
    assert not moved, f"output bytes moved: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    DIGESTS.write_text(json.dumps(all_digests(), indent=2) + "\n")
