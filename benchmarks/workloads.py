"""The four benchmark workloads: inputs, operations and output checks.

Every operation calls the public API of ``lifeadd`` through module
attributes (so the traced run can wrap them) and returns the bytes it
emits plus facts about the run; its type's ``check`` inspects them
afterwards, outside the timed region.

The simulator seed of each operation comes from a fixed pool per
operation type; the benchmark ``--seed`` picks the order in which a run
walks the pools.  Every pooled operation therefore has a stored reference
digest in ``reference.json``, whatever seed a run is given.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lifeadd import formulas, mac, renewal, report, scenario, solver

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
MULTI = SCENARIOS / "multi_ap_4x30.json"
LIFETIME = SCENARIOS / "single_ap_lifetime.json"
VALIDATION = SCENARIOS / "single_ap_validation.json"

LIFETIME_TARGETS = (45.0, 54.0, 72.0, 90.0, 108.0)
GAP_RATIOS = (1e-2, 0.00783, 1e-3, 1e-4, 1e-5)
GAP_BUSY_S = 1e-3
RHO_PARAMS = formulas.ContentionParams(sensing_time=4e-6, packet_time=0.9e-3,
                                       ack_time=1e-4)


@dataclass(frozen=True)
class Sizes:
    """Work per operation.  ``full`` enables the size-dependent checks."""

    field_s: float          # simulated seconds of one multi-AP run
    lifetime_s: float | None  # None keeps the scenario's 130 s
    renewal_s: float | None   # None keeps the scenario's 60 s
    cycles_n3: int
    cycles_n30: int
    full: bool


FULL = Sizes(field_s=2.0, lifetime_s=None, renewal_s=None,
             cycles_n3=1_000_000, cycles_n30=200_000, full=True)
SMOKE = Sizes(field_s=0.05, lifetime_s=1.0, renewal_s=1.0,
              cycles_n3=20_000, cycles_n30=5_000, full=False)


@dataclass
class Outcome:
    """What one operation emitted and the facts its checks need."""

    output: bytes
    sim_s: float = 0.0           # simulated seconds this operation covered
    facts: dict = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class OpType:
    name: str
    pool: tuple[int, ...]
    run: object          # (context, sim_seed, sizes) -> Outcome
    check: object        # (context, outcome, sizes) -> list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object        # () -> context dict
    ops: tuple[OpType, ...]

    def plan(self, seed: int):
        """Endless operation sequence: whole bundles of every type in turn.

        A bundle runs each operation type once; each type walks its seed
        pool in an order drawn from ``seed``.
        """
        rng = random.Random(seed)
        orders = [rng.sample(op.pool, len(op.pool)) for op in self.ops]
        k = 0
        while True:
            for op, order in zip(self.ops, orders):
                yield op, order[k % len(order)]
            k += 1


def op_key(workload: Workload, op: OpType, sim_seed: int, sizes: Sizes) -> str:
    tag = "full" if sizes.full else "smoke"
    return f"{workload.name}/{op.name}/{tag}/seed={sim_seed}"


# -- set-up ------------------------------------------------------------------


def _rate_plan(path: Path):
    """Parse, build the topology, solve the budgets, form the rate plan."""
    config = scenario.parse_scenario(path)
    topology = config.build_topology()
    efficiencies = config.efficiencies()
    rates, _ = mac.select_rates(topology, efficiencies, config.contention)
    return config, topology, rates


def setup_field():
    _, topology, _ = _rate_plan(MULTI)
    return {"topology": topology}


def setup_single_ap():
    _, lt_topology, _ = _rate_plan(LIFETIME)
    _, val_topology, _ = _rate_plan(VALIDATION)
    return {"topology": lt_topology, "validation_topology": val_topology}


def setup_analytic():
    val, _, rates3 = _rate_plan(VALIDATION)
    multi, _, rates30 = _rate_plan(MULTI)
    return {"contention3": val.contention, "rates3": np.asarray(rates3),
            "contention30": multi.contention, "rates30": np.asarray(rates30)}


# -- DES operations ------------------------------------------------------------


def _simulate(path: Path, sim_seed: int, duration: float | None, mac_override,
              mode, target: float | None = None) -> Outcome:
    config = scenario.parse_scenario(path)
    if duration is not None:
        config = dataclasses.replace(config, duration_s=duration)
    if target is not None:
        config = dataclasses.replace(config, devices=[
            dataclasses.replace(d, energy=dataclasses.replace(
                d.energy, target_lifetime=target)) for d in config.devices])
    rep = mac.run_config(config, seed=sim_seed, mode=mode,
                         mac_override=mac_override)
    data = report.emit_report(rep, "json")
    return Outcome(data, sim_s=config.duration_s,
                   facts={"alphas": config.alphas()})


def _field_op(mac_name: str):
    def run(ctx, sim_seed, sizes):
        return _simulate(MULTI, sim_seed, sizes.field_s, mac_name,
                         mac.REALISTIC)
    return run


def _lifetime_op(target: float):
    def run(ctx, sim_seed, sizes):
        return _simulate(LIFETIME, sim_seed, sizes.lifetime_s, mac.LIFEADD,
                         mac.REALISTIC, target=target)
    return run


def _renewal_run(ctx, sim_seed, sizes):
    return _simulate(VALIDATION, sim_seed, sizes.renewal_s, None, None)


def _reject_constant(token):
    raise ValueError(f"non-JSON number {token}")


def des_summary(outcome: Outcome) -> dict:
    """Guarded counts of one emitted report: attempts, outcomes, deaths."""
    data = json.loads(outcome.output, parse_constant=_reject_constant)
    rows = data["devices"]
    duration = data["provenance"]["duration_s"]
    successes = sum(r["tx_success"] for r in rows)
    collisions = sum(r["tx_collision"] for r in rows)
    deaths = sum(1 for r in rows
                 if r["lifetime_s"] != "inf" and r["lifetime_s"] < duration)
    return {"mac.attempts": successes + collisions,
            "mac.successes": successes, "mac.collisions": collisions,
            "energy.deaths": deaths}


def _check_des(topology_key: str):
    def check(ctx, outcome, sizes):
        try:
            data = json.loads(outcome.output, parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"report is not valid JSON: {exc}"]
        problems = []
        duration = data["provenance"]["duration_s"]
        if duration != outcome.sim_s:
            problems.append(f"duration {duration} != {outcome.sim_s}")
        topology = ctx[topology_key]
        airtime = [0.0] * topology.n_aps
        for d, row in enumerate(data["devices"]):
            tput, on = row["throughput_bps"], row["radio_on_fraction"]
            if not (isinstance(tput, float) and math.isfinite(tput)
                    and tput >= 0):
                problems.append(f"device {row['device_id']}: throughput {tput}")
                continue
            if not 0.0 <= on <= 1.0:
                problems.append(
                    f"device {row['device_id']}: radio_on_fraction {on}")
            lifetime = row["lifetime_s"]
            if lifetime != "inf" and not lifetime > 0:
                problems.append(f"device {row['device_id']}: lifetime {lifetime}")
            airtime[int(topology.associated_ap[d])] += (
                tput * duration / outcome.facts["alphas"][d])
        for ap, air in enumerate(airtime):
            if air > duration * (1 + 1e-12):
                problems.append(
                    f"AP {ap}: successful airtime {air} s > duration {duration} s")
        return problems
    return check


# -- analytic operations -----------------------------------------------------------


def _canonical(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, allow_nan=False) + "\n").encode()


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def _validate_run(ctx, sim_seed, sizes):
    config, _, rates = _rate_plan(VALIDATION)
    estimates = renewal.simulate_cycles(rates, config.contention,
                                        sizes.cycles_n3, seed=sim_seed)
    rows = renewal.validate_against_formulas(rates, config.contention,
                                             estimates)
    payload = {"n_cycles": estimates.n_cycles,
               "mean_cycle": estimates.mean_cycle,
               "collision_fraction": estimates.collision_fraction,
               "rows": [[r.metric, r.device, r.predicted, r.measured, r.sigma,
                         r.ok] for r in rows]}
    return Outcome(_canonical(payload),
                   sim_s=estimates.n_cycles * estimates.mean_cycle,
                   facts={"rows": rows})


def _validate_check(ctx, outcome, sizes):
    rows = outcome.facts["rows"]
    if len(rows) != 12:
        return [f"expected 12 validation rows, got {len(rows)}"]
    if not sizes.full:
        return []
    return [f"{r.metric} device {r.device}: measured {r.measured} vs "
            f"predicted {r.predicted} (z={r.z:+.2f})"
            for r in rows if not (r.ok and abs(r.measured - r.predicted)
                                  <= 0.01 * r.predicted)]


def _cycles30_run(ctx, sim_seed, sizes):
    est = renewal.simulate_cycles(ctx["rates30"], ctx["contention30"],
                                  sizes.cycles_n30, seed=sim_seed)
    payload = {"n_cycles": est.n_cycles, "mean_cycle": est.mean_cycle,
               "collision_fraction": est.collision_fraction,
               **{k: _floats(getattr(est, k)) for k in (
                   "win", "win_sigma", "attempt", "attempt_sigma",
                   "success_fraction", "success_fraction_sigma",
                   "on_fraction", "on_fraction_sigma")}}
    return Outcome(_canonical(payload), sim_s=est.n_cycles * est.mean_cycle,
                   facts={"estimates": est})


def _cycles30_check(ctx, outcome, sizes):
    est = outcome.facts["estimates"]
    problems = []
    for name in ("win", "attempt", "success_fraction", "on_fraction"):
        values = np.asarray(getattr(est, name))
        if values.size != 30 or not np.all((values >= 0) & (values <= 1)):
            problems.append(f"{name} outside [0, 1] or wrong size")
    if np.any(est.win > est.attempt):
        problems.append("a device wins more cycles than it attempts")
    if not 0 <= est.collision_fraction <= 1 or not est.mean_cycle > 0:
        problems.append("collision fraction or mean cycle out of range")
    return problems


def _gap_sweep_run(ctx, sim_seed, sizes):
    budgets = [0.5, 0.5, 0.5]
    rows = []
    for ratio in GAP_RATIOS:
        params = formulas.ContentionParams(ratio * GAP_BUSY_S,
                                           0.9 * GAP_BUSY_S, 0.1 * GAP_BUSY_S)
        lower, upper, gap = solver.optimality_bounds(budgets, params)
        oracle = solver.brute_force_oracle(budgets, params, 50)
        achieved = formulas.log_throughput_utility(
            solver.assign_rates(budgets, params).rates, params)
        rows.append([ratio, lower, upper, gap, oracle.objective,
                     oracle.cell_span, achieved])
    return Outcome(_canonical({"rows": rows}), facts={"rows": rows})


def _gap_sweep_check(ctx, outcome, sizes):
    rows = outcome.facts["rows"]
    problems = [f"ratio {r[0]}: oracle excess {r[4] - r[6]} > gap {r[3]} + "
                f"cell span {r[5]}" for r in rows if r[4] - r[6] > r[3] + r[5]]
    gaps = [r[3] for r in rows]
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gap not strictly decreasing: {gaps}")
    return problems


def _budget_sets():
    """n = 3, 30, 1000 in both regimes, uniform and skewed.

    The skewed super-unit set (n-1 budgets of 1e-4 plus one 1.0) makes
    ``water_filling_level`` walk every breakpoint.
    """
    for n in (3, 30, 1000):
        yield f"super-uniform-{n}", [0.5] * n
        yield f"super-skewed-{n}", [1e-4] * (n - 1) + [1.0]
        yield f"sub-uniform-{n}", [0.9 / n] * n
        yield f"sub-skewed-{n}", [0.4 / (n - 1)] * (n - 1) + [0.5]


def _assign_run(ctx, sim_seed, sizes):
    results = {name: (np.asarray(b), solver.assign_rates(b, RHO_PARAMS))
               for name, b in _budget_sets()}
    payload = {name: [a.case, a.c_star, a.y_star, _floats(a.rates.rates)]
               for name, (_, a) in results.items()}
    return Outcome(_canonical(payload), facts={"results": results})


def _assign_check(ctx, outcome, sizes):
    problems = []
    for name, (b, a) in outcome.facts["results"].items():
        expected = solver.SUPER_UNIT if name.startswith("super") \
            else solver.SUB_UNIT
        if a.case != expected:
            problems.append(f"{name}: regime {a.case}")
            continue
        rates = a.rates.rates
        if a.case == solver.SUPER_UNIT:
            residual = abs(float(np.minimum(b, a.c_star).sum()) - 1.0)
            limit = 1e-12
        else:
            target = b * (rates.sum() + 1.0 / RHO_PARAMS.busy_time)
            residual = float(np.max(np.abs(rates - target) / rates))
            limit = 1e-10
        if not residual <= limit:
            problems.append(f"{name}: residual {residual:.3e} > {limit}")
    return problems


def _closed_forms_run(ctx, sim_seed, sizes):
    payload = {}
    for n, rates, params in ((3, ctx["rates3"], ctx["contention3"]),
                             (30, ctx["rates30"], ctx["contention30"])):
        payload[str(n)] = {
            "success": _floats(formulas.success_probability(rates, params)),
            "attempt": _floats(formulas.attempt_probability(rates, params)),
            "success_time": _floats(
                formulas.success_time_fraction(rates, params)),
            "radio_on": _floats(formulas.radio_on_fraction(rates, params)),
            "collision": formulas.collision_probability(rates, params),
            "utility": formulas.log_throughput_utility(rates, params),
        }
    return Outcome(_canonical(payload), facts={"values": payload})


def _closed_forms_check(ctx, outcome, sizes):
    problems = []
    for n, values in outcome.facts["values"].items():
        for name in ("success", "attempt", "success_time", "radio_on"):
            if not all(0.0 <= v <= 1.0 for v in values[name]):
                problems.append(f"n={n}: {name} outside [0, 1]")
        if not math.isfinite(values["utility"]):
            problems.append(f"n={n}: utility {values['utility']}")
    return problems


# -- the workloads -------------------------------------------------------------------

_FIELD_POOL = tuple(range(101, 133))

WORKLOADS = {w.name: w for w in (
    Workload(
        "field_lifeadd",
        "4 APs, 30 devices, all on Life-Add: the sleep-wake DES per-event "
        "(WAKE) path at scale; no DCF, solver only at start",
        setup_field,
        (OpType("lifeadd", _FIELD_POOL, _field_op(mac.LIFEADD),
                _check_des("topology")),)),
    Workload(
        "field_dcf",
        "same field, all on the DCF baseline: kernel heap and BACKOFF_END "
        "polling; no Life-Add wake path, no rate control",
        setup_field,
        (OpType("dcf", _FIELD_POOL, _field_op(mac.DCF),
                _check_des("topology")),)),
    Workload(
        "single_ap",
        "n = 3: lifetime sweep with battery deaths and beacon recompute, "
        "plus the renewal-mode CYCLE_START engine",
        setup_single_ap,
        tuple(OpType(f"lifetime{int(t)}", tuple(range(11, 17)),
                     _lifetime_op(t), _check_des("topology"))
              for t in LIFETIME_TARGETS)
        + (OpType("renewal", tuple(range(7, 13)), _renewal_run,
                  _check_des("validation_topology")),)),
    Workload(
        "analytic",
        "closed forms, solver, oracle and renewal Monte-Carlo, no DES",
        setup_analytic,
        (OpType("validate", tuple(range(7, 23)), _validate_run,
                _validate_check),
         OpType("cycles_n30", tuple(range(101, 117)), _cycles30_run,
                _cycles30_check),
         OpType("gap_sweep", (0,), _gap_sweep_run, _gap_sweep_check),
         OpType("assign_rates", (0,), _assign_run, _assign_check),
         OpType("closed_forms", (0,), _closed_forms_run,
                _closed_forms_check))),
)}
