"""Command line: solve, simulate, validate, gap-sweep, compare.

Exit codes: 0 success, 2 scenario parse/validation failure, 3 an
acceptance-style check failed (validate).  Failures print one JSON object
describing the error.  All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .formulas import (ContentionParams, radio_on_fraction,
                       success_probability, throughput)
from .mac import run_baseline_dcf, run_config, run_lifeadd, select_rates
from .renewal import simulate_cycles, validate_against_formulas
from .report import emit_report, report_to_dict
from .scenario import ParseError, ValidationError, parse_scenario
from .solver import (assign_rates, brute_force_oracle, log_throughput_utility,
                     optimality_bounds)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": {"type": kind, "message": message}}) + "\n")
    return code


def _load(path: str):
    try:
        return parse_scenario(path)
    except ParseError as exc:
        raise CliError(f"parse: {exc}") from None
    except ValidationError as exc:
        raise CliError(f"validation: {exc}") from None
    except OSError as exc:
        raise CliError(str(exc)) from None


def _write_or_print(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode())


# -- solve ----------------------------------------------------------------


def cmd_solve(args) -> int:
    config = _load(args.scenario)
    topology = config.build_topology()
    effs = config.efficiencies()
    rates, per_ap = select_rates(topology, effs, config.contention)
    ids = config.device_ids()

    ap_block = []
    for ap, plan in zip(config.aps, per_ap):
        if plan is None:  # hears no device
            ap_block.append({"id": ap.id, "case": None, "c_star": None,
                             "y_star": None, "rates": {}})
            continue
        members, assignment = plan
        ap_block.append({
            "id": ap.id,
            "case": assignment.case,
            "c_star": assignment.c_star,
            "y_star": assignment.y_star,
            "rates": {ids[d]: rate for d, rate in
                      zip(members, assignment.rates.rates.tolist())},
        })

    device_block = []
    for d in range(len(ids)):
        home = int(topology.associated_ap[d])
        domain = [int(x) for x in topology.devices_heard_by(home)]
        domain_rates = np.array([rates[x] for x in domain])
        local = domain.index(d)
        device_block.append({
            "id": ids[d],
            "efficiency": effs[d],
            "assigned_rate_hz": rates[d],
            "associated_ap": config.aps[home].id,
            "predicted": {
                "throughput_bps": float(throughput(
                    domain_rates, config.contention, local,
                    alpha=config.devices[d].alpha_bps)),
                "radio_on_fraction": float(radio_on_fraction(
                    domain_rates, config.contention, local)),
                "win_probability": float(success_probability(
                    domain_rates, config.contention, local)),
            },
        })

    payload = {"scenario": config.name or str(args.scenario),
               "aps": ap_block, "devices": device_block}
    _write_or_print((json.dumps(payload, indent=2) + "\n").encode(), args.out)
    return EXIT_OK


# -- simulate ---------------------------------------------------------------


def _summary_stats(reports) -> dict:
    metrics = {
        "jain_index": [r.jain for r in reports],
        "total_utility_nats": [r.total_utility_nats for r in reports],
        "mean_lifetime_s": [r.mean_lifetime_s for r in reports],
        "mean_throughput_bps": [r.mean_throughput_bps for r in reports],
        "ack_success_ratio": [r.ack_success_ratio for r in reports],
    }
    out = {}
    for name, values in metrics.items():
        arr = np.asarray(values, dtype=float)
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            out[name] = {"mean": "inf", "std": 0.0}
            continue
        std = float(finite.std(ddof=1)) if finite.size > 1 else 0.0
        out[name] = {"mean": float(finite.mean()), "std": std}
    return out


def cmd_simulate(args) -> int:
    config = _load(args.scenario)
    if args.replications < 1:
        raise CliError("--replications must be >= 1")
    seed0 = config.seed if args.seed is None else args.seed
    seeds = [seed0 + k for k in range(args.replications)]
    reports = []
    for k, seed in enumerate(seeds):
        trace = None
        if args.trace:
            suffix = f".seed{seed}" if len(seeds) > 1 else ""
            trace = open(f"{args.trace}{suffix}", "w")
        try:
            reports.append(run_config(config, seed=seed, mode=args.mode,
                                      mac_override=args.mac, trace=trace))
        finally:
            if trace:
                trace.close()

    if len(reports) == 1:
        _write_or_print(emit_report(reports[0], args.format), args.out)
        return EXIT_OK
    if args.format == "csv":
        if not args.out:
            raise CliError("csv with --replications needs --out")
        for seed, report in zip(seeds, reports):
            Path(f"{args.out}.seed{seed}").write_bytes(
                emit_report(report, "csv"))
        sys.stdout.write(json.dumps(
            {"summary": _summary_stats(reports)}, indent=2) + "\n")
        return EXIT_OK
    payload = {"replications": [report_to_dict(r) for r in reports],
               "summary": _summary_stats(reports)}
    _write_or_print((json.dumps(payload, indent=2) + "\n").encode(), args.out)
    return EXIT_OK


# -- validate ---------------------------------------------------------------


def cmd_validate(args) -> int:
    config = _load(args.scenario)
    if args.cycles < 1:
        raise CliError("--cycles must be >= 1")
    topology = config.build_topology()
    if not topology.single_collision_domain:
        raise CliError(
            "validate requires all devices within sensing range of each other")
    effs = config.efficiencies()
    rates, _ = select_rates(topology, effs, config.contention)
    estimates = simulate_cycles(rates, config.contention, args.cycles,
                                seed=config.seed if args.seed is None
                                else args.seed)
    rows = validate_against_formulas(rates, config.contention, estimates)
    ids = config.device_ids()
    lines = [f"cycles={estimates.n_cycles} mean_cycle_s="
             f"{estimates.mean_cycle:.6e} collisions="
             f"{estimates.collision_fraction:.6f}",
             f"{'metric':24s} {'device':8s} {'predicted':>12s} "
             f"{'measured':>12s} {'sigma':>10s} {'z':>7s} verdict"]
    all_ok = True
    for row in rows:
        all_ok &= row.ok
        lines.append(
            f"{row.metric:24s} {ids[row.device]:8s} {row.predicted:12.6f} "
            f"{row.measured:12.6f} {row.sigma:10.2e} {row.z:+7.2f} "
            f"{'ok' if row.ok else 'FAIL'}")
    lines.append("verdict: " + ("all within 3 sigma" if all_ok
                                else "OUTSIDE 3 sigma"))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# -- gap-sweep ----------------------------------------------------------------


def cmd_gap_sweep(args) -> int:
    budgets = [float(x) for x in args.budgets.split(",")]
    if len(budgets) == 1 and args.n > 1:
        budgets = budgets * args.n
    if len(budgets) != args.n:
        raise CliError(f"--budgets needs 1 or {args.n} values")
    ratios = [float(x) for x in args.ratio_list.split(",")]
    busy = args.busy_time
    header = f"{'ratio':>12s} {'lower':>14s} {'upper':>14s} {'gap':>12s}"
    if args.oracle:
        header += f" {'oracle':>14s} {'oracle-assign':>14s}"
    lines = [header]
    for ratio in ratios:
        try:
            params = ContentionParams(sensing_time=ratio * busy,
                                      packet_time=0.9 * busy,
                                      ack_time=0.1 * busy)
        except ValueError as exc:
            raise CliError(f"ratio {ratio:g} with busy time {busy:g} s: "
                           f"{exc}") from None
        lower, upper, gap = optimality_bounds(budgets, params)
        line = f"{ratio:12.6g} {lower:14.6f} {upper:14.6f} {gap:12.6f}"
        if args.oracle:
            result = brute_force_oracle(budgets, params, args.grid)
            achieved = log_throughput_utility(
                assign_rates(budgets, params).rates, params)
            line += f" {result.objective:14.6f} {result.objective - achieved:+14.6f}"
        lines.append(line)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# -- compare -------------------------------------------------------------------


def cmd_compare(args) -> int:
    config = _load(args.scenario)
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else [config.seed + k for k in range(5)])
    rows = []
    for seed in seeds:
        life = run_lifeadd(config, seed=seed, mode="realistic")
        base = run_baseline_dcf(config, seed=seed)
        rows.append((seed, life, base))

    def fmt_lifetime(value: float) -> str:
        return "inf" if math.isinf(value) else f"{value:12.1f}"

    lines = [f"{'seed':>6s} {'mac':>8s} {'mean_lifetime_s':>16s} "
             f"{'mean_tput_bps':>14s} {'jain':>7s} {'ack_ratio':>10s}"]
    wins = {"lifetime": 0, "throughput": 0, "jain": 0, "ack": 0}
    for seed, life, base in rows:
        for tag, rep in (("lifeadd", life), ("dcf", base)):
            lines.append(f"{seed:6d} {tag:>8s} "
                         f"{fmt_lifetime(rep.mean_lifetime_s):>16s} "
                         f"{rep.mean_throughput_bps:14.1f} {rep.jain:7.4f} "
                         f"{rep.ack_success_ratio:10.4f}")
        wins["lifetime"] += life.mean_lifetime_s > base.mean_lifetime_s
        wins["throughput"] += (life.mean_throughput_bps
                               > base.mean_throughput_bps)
        wins["jain"] += life.jain > base.jain
        wins["ack"] += life.ack_success_ratio > base.ack_success_ratio
    lines.append(f"lifeadd wins out of {len(seeds)} seeds: "
                 f"lifetime={wins['lifetime']} "
                 f"throughput={wins['throughput']} jain={wins['jain']} "
                 f"ack={wins['ack']}")
    sys.stdout.write("\n".join(lines) + "\n")

    if args.out:
        payload = {
            "seeds": seeds,
            "runs": [{"seed": seed,
                      "lifeadd": report_to_dict(life),
                      "dcf": report_to_dict(base)}
                     for seed, life, base in rows],
            "wins": wins,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# -- entry ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifeadd",
        description="Sleep-wake WiFi MAC: solver, simulator, validation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the sleep-rate assignment")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run the MAC simulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--trace")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--mode", choices=("renewal", "realistic"))
    p.add_argument("--mac", choices=("lifeadd", "dcf"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate",
                       help="renewal-cycle run against the closed forms")
    p.add_argument("--scenario", required=True)
    p.add_argument("--cycles", type=int, default=1_000_000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gap-sweep",
                       help="optimality gap across sensing ratios")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budgets", required=True)
    p.add_argument("--ratio-list", required=True)
    p.add_argument("--busy-time", type=float, default=1e-3,
                   help="packet+ACK duration in seconds (default 1 ms)")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--grid", type=int, default=50)
    p.set_defaults(func=cmd_gap_sweep)

    p = sub.add_parser("compare",
                       help="lifeadd vs dcf on identical topology and seeds")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seeds", help="comma-separated seed list (default 5)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        return _fail("invalid_input", str(exc), exc.code)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        return _fail(type(exc).__name__, str(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
