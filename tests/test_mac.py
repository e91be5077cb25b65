import dataclasses
import gc
import io
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lifeadd.mac
from lifeadd.energy import EnergyProfile, drain_power, energy_budget
from lifeadd.formulas import ContentionParams, success_time_fraction
from lifeadd.kernel import NS_PER_S, EventKind, EventQueue, RandomStream
from lifeadd.mac import (CW_MAX, DCF, LIFEADD, MACS, REALISTIC, RENEWAL,
                         Simulation, run_config, select_rates)
from lifeadd.report import emit_report
from lifeadd.scenario import parse_scenario
from lifeadd.solver import assign_rates, optimal_total_rate
from lifeadd.topology import Ranges, build_topology

PARAMS = ContentionParams(sensing_time=4e-6, packet_time=0.9e-3,
                          ack_time=1e-4)


def big_profile():
    return EnergyProfile(initial_energy=1e6, battery_capacity=1e6,
                         radio_on_power=1.12, base_power=0.315,
                         recharge_rate=0.16)


def single_ap_topology(n):
    rng = np.random.default_rng(0)
    return build_topology([[25.0, 25.0]], rng.uniform(20, 30, size=(n, 2)),
                          Ranges(110.0, 110.0, 110.0))


def run_simple(n, macs=None, mode="renewal", duration=30.0, seed=3,
               profiles=None, trace=None):
    topo = single_ap_topology(n)
    return Simulation(
        topo, profiles or [big_profile()] * n, [11e6] * n,
        macs or ["lifeadd"] * n, PARAMS, duration, seed,
        mode=mode, trace=trace).run()


# -- the rate plan ---------------------------------------------------------


def near_far_plan(include=None):
    cfg = parse_scenario("scenarios/near_far_pair.json")
    topo = cfg.build_topology()
    return select_rates(topo, cfg.efficiencies(), cfg.contention, include)


def test_single_beacon_rate_matches_waterfilling_form():
    effs = [0.3, 0.9, 0.9]
    rates, per_ap = select_rates(single_ap_topology(3), effs, PARAMS)
    members, assignment = per_ap[0]
    assert members == [0, 1, 2]
    assert assignment.c_star == pytest.approx(0.35)
    assert rates == [min(b, assignment.c_star) * assignment.y_star
                     for b in effs]


def test_two_beacons_take_the_minimum():
    cfg = parse_scenario("scenarios/near_far_pair.json")
    topo = cfg.build_topology()
    rates, per_ap = select_rates(topo, cfg.efficiencies(), cfg.contention)
    offered = {d: [] for d in range(topo.n_devices)}
    for members, assignment in per_ap:
        for d, rate in zip(members, assignment.rates.rates):
            offered[d].append(float(rate))
    assert len(offered[0]) == 2
    assert rates == [min(offered[d]) for d in range(topo.n_devices)]


def test_min_applies_after_per_beacon_evaluation():
    # Ordering by raw total rate would pick the other AP: ap0 has the
    # smaller total rate but offers the near device the larger rate.
    rates, per_ap = near_far_plan()
    (_, near), (_, far) = per_ap
    assert near.y_star < far.y_star
    assert far.c_star * far.y_star < near.c_star * near.y_star
    assert rates[0] == far.c_star * far.y_star


def test_ap_gathering_over_communication_range():
    cfg = parse_scenario("scenarios/near_far_pair.json")
    rates, per_ap = near_far_plan()
    # ap1 hears both devices, ap0 only the near one
    (near_members, near), (far_members, far) = per_ap
    assert near_members == [0] and far_members == [0, 1]
    assert near.c_star == pytest.approx(1.0)
    assert near.y_star == pytest.approx(optimal_total_rate(1, cfg.contention))
    assert far.c_star == pytest.approx(0.5)
    assert far.y_star == pytest.approx(optimal_total_rate(2, cfg.contention))
    # the near device adopts the more contended AP's smaller suggestion
    assert rates[0] == pytest.approx(min(near.y_star, 0.5 * far.y_star))
    assert rates[1] == pytest.approx(0.5 * far.y_star)


def test_gather_include_mask():
    cfg = parse_scenario("scenarios/near_far_pair.json")
    rates, per_ap = near_far_plan(include=[False, True])
    assert per_ap[0] is None
    members, only_far = per_ap[1]
    assert members == [1]
    assert only_far.y_star == pytest.approx(
        optimal_total_rate(1, cfg.contention))
    assert rates == [None, only_far.y_star]


def test_ap_without_included_device_has_no_plan():
    rates, per_ap = near_far_plan(include=[False, False])
    assert per_ap == [None, None]
    assert rates == [None, None]


# -- renewal engine vs closed forms ---------------------------------------


def test_renewal_engine_matches_success_fraction():
    n = 3
    rates = assign_rates([2.0] * n, PARAMS).rates.rates
    duration = 30.0
    rep = run_simple(n, mode="renewal", duration=duration)
    predicted = success_time_fraction(rates, PARAMS)
    cycles = duration / (1.0 / rates.sum() + PARAMS.busy_time)
    sigma = math.sqrt(predicted[0] * (1 - predicted[0]) / cycles)
    for i, row in enumerate(rep.devices):
        measured = row.tx_success * PARAMS.packet_time / duration
        assert abs(measured - predicted[i]) <= 4 * sigma


def test_renewal_single_device_fraction_within_one_percent():
    n_cycles = 100_000
    rate = optimal_total_rate(1, PARAMS)
    expected_cycle = 1.0 / rate + PARAMS.busy_time
    duration = n_cycles * expected_cycle
    rep = run_simple(1, mode="renewal", duration=duration)
    row = rep.devices[0]
    assert row.tx_collision == 0
    measured = row.tx_success * PARAMS.packet_time / duration
    predicted = success_time_fraction([rate], PARAMS)[0]
    assert measured == pytest.approx(predicted, rel=0.01)


def test_renewal_cycle_conservation_from_trace():
    trace = io.StringIO()
    run_simple(3, mode="renewal", duration=5.0, trace=trace)
    starts = [int(line.split("\t")[0])
              for line in trace.getvalue().splitlines()
              if line.split("\t")[1] == "tx_start"]
    busy_ns = int(round((PARAMS.packet_time + PARAMS.ack_time) * 1e9))
    ts_ns = int(round(PARAMS.sensing_time * 1e9))
    cycle_starts = [starts[0]]
    for t in starts[1:]:
        if t - cycle_starts[-1] >= ts_ns:
            cycle_starts.append(t)
    # each cycle occupies exactly packet+ack after its first start; the
    # next first-start can only happen after that window closes
    for a, b in zip(cycle_starts, cycle_starts[1:]):
        assert b >= a + busy_ns


def test_renewal_mode_requires_mutual_sensing():
    topo = build_topology([[0.0, 0.0]], [[0.0, 0.0], [100.0, 0.0]],
                          Ranges(sensing=50.0, interference=200.0,
                                 communication=200.0))
    with pytest.raises(ValueError, match="within sensing range"):
        Simulation(topo, [big_profile()] * 2, [1.0, 1.0],
                   ["lifeadd"] * 2, PARAMS, 1.0, 1, mode="renewal")


# -- determinism ------------------------------------------------------------


def test_identical_runs_are_byte_identical():
    cfg = parse_scenario("scenarios/near_far_pair.json")
    trace_a, trace_b = io.StringIO(), io.StringIO()
    a = emit_report(run_config(cfg, seed=17, mac_override=LIFEADD,
                               trace=trace_a), "json")
    b = emit_report(run_config(cfg, seed=17, mac_override=LIFEADD,
                               trace=trace_b), "json")
    assert a == b
    assert trace_a.getvalue() == trace_b.getvalue()
    c = emit_report(run_config(cfg, seed=18, mac_override=LIFEADD), "json")
    assert a != c


# -- energy, death, lifetime -------------------------------------------------


def test_dead_devices_never_transmit():
    profile = EnergyProfile(initial_energy=2.0, battery_capacity=2.0,
                            radio_on_power=1.0, base_power=0.5)
    trace = io.StringIO()
    rep = run_simple(1, mode="realistic", duration=5.0,
                     profiles=[profile], trace=trace)
    row = rep.devices[0]
    assert math.isfinite(row.lifetime_s)
    assert 1.0 < row.lifetime_s < 2.5
    death_ns = None
    last_tx_ns = 0
    for line in trace.getvalue().splitlines():
        fields = line.split("\t")
        if fields[1] == "dead":
            death_ns = int(fields[0])
        if fields[1] == "tx_start":
            last_tx_ns = int(fields[0])
    assert death_ns is not None
    assert last_tx_ns <= death_ns


def budget_profile(budget):
    """``big_profile`` with the lifetime target that leaves ``budget``."""
    p = big_profile()
    allowed = budget * p.radio_on_power + p.base_power - p.recharge_rate
    return dataclasses.replace(p, target_lifetime=p.initial_energy / allowed)


def test_radio_on_fraction_respects_budget_envelope():
    # budgets below 1 keep the measured on-fraction within 0.02 of the
    # budget over a 100 s window
    budgets = [0.3, 0.45, 0.8]
    profiles = [budget_profile(b) for b in budgets]
    assert [energy_budget(p).efficiency for p in profiles] == pytest.approx(
        budgets)
    rep = run_simple(3, mode="realistic", duration=100.0, profiles=profiles)
    for budget, row in zip(budgets, rep.devices):
        assert row.radio_on_fraction <= budget + 0.02
        assert row.radio_on_fraction > 0.05


def test_congestion_factor_trace_replay():
    cfg = parse_scenario("scenarios/near_far_pair.json")
    trace = io.StringIO()
    run_config(cfg, seed=17, mac_override=LIFEADD, trace=trace)
    factors = {}
    timeouts = 0
    for line in trace.getvalue().splitlines():
        fields = line.split("\t")
        if fields[1] not in ("ack", "timeout"):
            continue
        dev = fields[2]
        seen = int(fields[3].split("=")[1])
        previous = factors.get(dev, 1)
        if fields[1] == "ack":
            assert seen == 1
        else:
            timeouts += 1
            assert seen == min(2 * previous, 32)
        factors[dev] = seen
    assert timeouts > 0


def test_effective_rate_damped_by_collisions():
    cfg = parse_scenario("scenarios/near_far_pair.json")
    rep = run_config(cfg, seed=17, mac_override=LIFEADD)
    victim = rep.devices[1]
    assert victim.tx_collision > 0
    assert victim.mean_effective_rate_hz < victim.assigned_rate_hz


def test_beacon_recompute_after_death_raises_survivor_rate():
    topo = single_ap_topology(2)
    dying = EnergyProfile(initial_energy=1.5, battery_capacity=1.5,
                          radio_on_power=1.0, base_power=0.5)
    sim = Simulation(topo, [dying, big_profile()], [1.0, 1.0],
                     ["lifeadd", "lifeadd"], PARAMS, 8.0, 5,
                     mode="realistic")
    sim.run()
    assert sim.devices[0].death_ns is not None
    two_party = 0.5 * optimal_total_rate(2, PARAMS)
    solo = optimal_total_rate(1, PARAMS)
    assert sim.devices[0].initial_rate == pytest.approx(two_party)
    assert sim.devices[1].assigned_rate == pytest.approx(solo)


class RateWatch(EventQueue):
    """Records each event a run handles, with every device's assigned rate
    and liveness after it."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim
        self.handled = []   # [kind, time, rates, dead] per handled event

    def next(self):
        if self.handled:
            self.handled[-1][2:] = [
                [d.assigned_rate for d in self.sim.devices],
                [d.death_ns is not None for d in self.sim.devices]]
        event = super().next()
        if event.time < self.sim.duration_ns:
            self.handled.append([event.kind, event.time, None, None])
        return event


def test_a_replan_reaches_devices_the_dead_ones_ap_cannot_hear():
    """``near_far_pair``: AP 0 hears only device 0, device 1 only AP 1.
    Device 0, its battery cut, dies within seconds; device 1 adopts the
    survivors' plan at the first beacon after the death, and every rate
    changes only at a beacon, one per period."""
    cfg = parse_scenario("scenarios/near_far_pair.json")
    topo = cfg.build_topology()
    assert [topo.devices_heard_by(ap) for ap in (0, 1)] == [[0], [0, 1]]
    profiles = cfg.profiles()
    profiles[0] = dataclasses.replace(profiles[0], initial_energy=1.0,
                                      battery_capacity=1.0, recharge_rate=0.0)
    sim = Simulation(topo, profiles, cfg.alphas(), [LIFEADD] * 2,
                     cfg.contention, 5.0, 17, mode=REALISTIC)
    sim.queue = watch = RateWatch(sim)
    sim.run()
    assert sim.devices[0].death_ns < 4 * NS_PER_S

    period = sim.beacon_period_ns
    beacons = [time for kind, time, _, _ in watch.handled
               if kind is EventKind.BEACON]
    assert beacons == list(range(period, sim.duration_ns, period))
    survivors, _ = select_rates(topo, cfg.efficiencies(), cfg.contention,
                                [False, True])
    initial = [d.initial_rate for d in sim.devices]
    assert survivors[1] != initial[1]
    changes, rates = [], initial
    for kind, time, after, _ in watch.handled:
        if after != rates:
            changes.append((kind, time, after[1]))
            rates = after
    # The first beacon after the event that found device 0 dead.
    found = next(i for i, (*_, dead) in enumerate(watch.handled) if dead[0])
    replan = next(time for kind, time, _, _ in watch.handled[found:]
                  if kind is EventKind.BEACON)
    assert changes == [(EventKind.BEACON, replan, survivors[1])]


# -- DCF baseline -------------------------------------------------------------


def test_dcf_single_device_is_always_listening():
    rep = run_simple(1, macs=["dcf"], mode="realistic", duration=20.0)
    row = rep.devices[0]
    assert row.radio_on_fraction == 1.0
    assert row.tx_collision == 0
    assert row.tx_success > 10_000
    assert row.throughput_bps > 0.5 * 11e6 * PARAMS.packet_time / (
        PARAMS.busy_time + 5e-5)


def test_dcf_lifetime_below_lifeadd_on_identical_scenario():
    profile = EnergyProfile(initial_energy=10.0, battery_capacity=10.0,
                            radio_on_power=1.12, base_power=0.315,
                            recharge_rate=0.16)
    kwargs = dict(profiles=[profile] * 3, duration=25.0, mode="realistic")
    life = run_simple(3, **kwargs)
    base = run_simple(3, macs=["dcf"] * 3, **kwargs)
    for a, b in zip(life.devices, base.devices):
        assert b.lifetime_s < a.lifetime_s
    # idle listening pins the DCF drain at full power
    assert base.devices[0].lifetime_s == pytest.approx(
        10.0 / (1.12 + 0.315 - 0.16), rel=1e-6)


def dcf_pair():
    """Two mutually sensing DCF stations, driven by hand (no run())."""
    sim = Simulation(single_ap_topology(2), [big_profile()] * 2,
                     [11e6] * 2, ["dcf"] * 2, PARAMS, 1.0, 3,
                     mode="realistic")
    assert sim.dcf_sensing_device[1] == [sim.devices[0]]
    return sim, sim.devices


def start_countdown(sim, dev, residual_slots):
    dev.residual_slots = residual_slots
    sim._dcf_decide(dev, 0)
    assert dev.backoff_end_ns == sim.difs_ns + residual_slots * sim.slot_ns


def test_dcf_interruption_consumes_completed_slots_after_difs():
    sim, (waiting, sender) = dcf_pair()
    start_countdown(sim, waiting, 10)
    # Three whole slots and part of a fourth have passed after DIFS.
    now = sim.difs_ns + 3 * sim.slot_ns + sim.slot_ns // 4
    sim._begin_transmission(sender, now)
    assert waiting.residual_slots == 7
    assert waiting.backoff_end_ns is None
    # A second source keying up does not consume the frozen slots again.
    later = now + 2 * sim.slot_ns
    sim._interrupt_dcf_countdowns(later, later + sim.ack_ns, [waiting],
                                  blind_ns=sim.slot_ns)
    assert waiting.residual_slots == 7


def test_dcf_interruption_inside_difs_consumes_nothing():
    sim, (waiting, sender) = dcf_pair()
    start_countdown(sim, waiting, 10)
    sim._begin_transmission(sender, sim.difs_ns - 1)
    assert waiting.residual_slots == 10
    assert waiting.backoff_end_ns is None


def test_dcf_countdown_ending_in_the_blind_window_keeps_running():
    sim, (waiting, sender) = dcf_pair()
    start_countdown(sim, waiting, 2)
    end = waiting.backoff_end_ns
    sim._begin_transmission(sender, end - sim.slot_ns + 1)
    assert waiting.residual_slots == 2
    assert waiting.backoff_end_ns == end
    event = sim.queue.next()
    assert (event.kind, event.device, event.time) == (
        EventKind.BACKOFF_END, waiting.idx, end)
    sim._on_backoff_end(event)
    assert waiting.current_tx is not None  # sends into the busy channel


def test_dcf_interrupted_station_re_decides_at_its_old_end_time():
    sim, (waiting, sender) = dcf_pair()
    start_countdown(sim, waiting, 10)
    old_end = waiting.backoff_end_ns
    sim._begin_transmission(sender, sim.difs_ns + 3 * sim.slot_ns)
    busy_until = sender.current_tx.end
    event = sim.queue.next()
    assert (event.kind, event.device, event.time) == (
        EventKind.BACKOFF_END, waiting.idx, old_end)
    sim._on_backoff_end(event)
    # Re-decided on a busy channel: no send, wait for the channel to clear.
    assert waiting.current_tx is None and waiting.backoff_end_ns is None
    assert waiting.residual_slots == 7
    pending = [sim.queue.next() for _ in range(len(sim.queue))]
    assert [(e.kind, e.device, e.time) for e in pending] == [
        (EventKind.TX_END, sender.idx, busy_until),
        (EventKind.BACKOFF_END, waiting.idx, busy_until)]


def counted_residual(residual, start_ns, now_ns, difs_ns, slot_ns):
    """The freeze rule when a countdown kept its start: the slots completed
    after DIFS are consumed from the residual."""
    return max(0, residual - max(0, now_ns - start_ns - difs_ns) // slot_ns)


def test_a_frozen_countdown_keeps_the_slots_counted_from_its_start():
    """Every residual 0..CW_MAX, frozen inside DIFS, on a slot boundary,
    one ns either side of it, and at the last ns before the blind window,
    for both blind windows and a start on and off the slot grid: 57,236
    freezes."""
    sim, (waiting, _) = dcf_pair()
    difs, slot = sim.difs_ns, sim.slot_ns
    checked = 0
    for start in (0, 1_234_567):
        for residual in range(CW_MAX + 1):
            end = start + difs + residual * slot
            boundaries = {start + difs + k * slot for k in
                          (0, 1, residual // 2, residual - 1, residual)}
            for blind in (slot, sim.ts_ns):
                instants = {start, start + difs // 2, start + difs - 1,
                            end - blind}
                instants.update(b + e for b in boundaries for e in (-1, 0, 1))
                for now in sorted(instants):
                    if not start <= now <= end - blind:
                        continue  # not frozen: runs into the blind window
                    waiting.residual_slots = residual
                    waiting.backoff_end_ns = end
                    sim._interrupt_dcf_countdowns(now, now + sim.packet_ns,
                                                  [waiting], blind)
                    assert waiting.backoff_end_ns is None
                    assert waiting.residual_slots == counted_residual(
                        residual, start, now, difs, slot), (start, residual,
                                                            blind, now)
                    checked += 1
    assert checked == 57_236


# -- the ACK phase ------------------------------------------------------------


def lifeadd_pair():
    """Two mutually sensing Life-Add devices at one AP, driven by hand."""
    sim = Simulation(single_ap_topology(2), [big_profile()] * 2,
                     [11e6] * 2, ["lifeadd"] * 2, PARAMS, 1.0, 3,
                     mode="realistic")
    a, b = sim.devices
    a.assigned_rate = b.assigned_rate = 100.0
    return sim, a, b


def lifeadd_pair_in_ack():
    """``lifeadd_pair`` where A has sent alone and its AP's ACK has just
    begun."""
    sim, a, b = lifeadd_pair()
    sim._begin_transmission(a, 0)
    tx = a.current_tx
    event = sim.queue.next()
    assert (event.kind, event.device, event.time) == (
        EventKind.TX_END, a.idx, tx.end)
    sim._on_tx_end(event)
    assert tx.ack_end == tx.end + sim.ack_ns
    assert sim.on_air == [tx]
    return sim, a, b, tx


def finish_ack(sim, a, tx):
    """Run A's ACK_END and check that A's record left the air."""
    event = sim.queue.next()
    assert (event.kind, event.device, event.time) == (
        EventKind.ACK_END, a.idx, tx.ack_end)
    sim._on_attempt_done(event)
    assert all(other is not tx for other in sim.on_air)
    assert a.tx_success == 1


def test_wake_inside_an_ack_sleeps_to_its_end():
    sim, a, b, tx = lifeadd_pair_in_ack()
    sim.queue.schedule(tx.end + sim.ts_ns, EventKind.WAKE, b.idx)
    sim._on_wake(sim.queue.next())
    assert b.current_tx is None
    assert b.last_drain_ns == tx.ack_end  # charged at the ACK's end
    finish_ack(sim, a, tx)
    assert sim.on_air == []
    pending = [sim.queue.next() for _ in range(len(sim.queue))]
    assert sorted((e.device, e.kind) for e in pending) == [
        (a.idx, EventKind.WAKE), (b.idx, EventKind.WAKE)]
    assert all(e.time >= tx.ack_end for e in pending)


def test_key_up_during_an_ack_fails():
    sim, a, b, tx = lifeadd_pair_in_ack()
    # B wakes before it can hear the ACK, so it keys up into it.
    sim.queue.schedule(tx.end + sim.ts_ns - 1, EventKind.WAKE, b.idx)
    sim._on_wake(sim.queue.next())
    ack_overlapped_attempt_times_out(sim, a, b, tx)


def ack_overlapped_attempt_times_out(sim, a, b, tx):
    """Check that B's attempt, keyed up under A's ACK, ends in a timeout
    though no sender spoiled either record, running the rest by hand."""
    late = b.current_tx
    assert late.ack_overlap and not late.corrupted and not tx.corrupted
    finish_ack(sim, a, tx)
    assert sim.on_air == [late]
    event = sim.queue.next()
    if event.device == a.idx:  # A's next wake may come first
        event = sim.queue.next()
    assert (event.kind, event.device, event.time) == (
        EventKind.TX_END, b.idx, late.end)
    sim._on_tx_end(event)
    assert late.ack_end == 0
    pending = [sim.queue.next() for _ in range(len(sim.queue))]
    assert [(e.kind, e.time) for e in pending if e.device == b.idx] == [
        (EventKind.TIMEOUT, late.end + sim.ack_ns)]


@pytest.mark.parametrize("wake_first", [True, False])
def test_key_up_at_the_instant_an_ack_begins_fails(wake_first):
    """B keys up at the nanosecond A's data ends, at the same AP.  Ties
    dequeue in scheduling order: B's wake, scheduled before A keys up,
    runs before A's ``TX_END``, and after it otherwise.  Either way B's
    data lies under A's ACK."""
    sim, a, b = lifeadd_pair()
    if wake_first:
        sim.queue.schedule(sim.packet_ns, EventKind.WAKE, b.idx)
    sim._begin_transmission(a, 0)
    if not wake_first:
        sim.queue.schedule(sim.packet_ns, EventKind.WAKE, b.idx)
    handlers = {EventKind.WAKE: sim._on_wake,
                EventKind.TX_END: sim._on_tx_end}
    order = []
    for _ in range(2):
        event = sim.queue.next()
        assert event.time == sim.packet_ns
        order.append(event.device)
        handlers[event.kind](event)
    assert order == ([b.idx, a.idx] if wake_first else [a.idx, b.idx])
    tx = a.current_tx
    assert b.current_tx.start == tx.end
    assert tx.ack_end == tx.end + sim.ack_ns
    ack_overlapped_attempt_times_out(sim, a, b, tx)


# -- hidden terminals ---------------------------------------------------------


def hidden_pair(simulation=Simulation, duration_s=1.0, trace=None):
    """Two Life-Add devices on either side of one AP: both interfere at
    it, and neither senses the other."""
    topo = build_topology([[0.0, 0.0]], [[-60.0, 0.0], [60.0, 0.0]],
                          Ranges(sensing=50.0, interference=100.0,
                                 communication=100.0))
    assert topo.interferes_at.all() and not topo.device_senses_device[0, 1]
    sim = simulation(topo, [big_profile()] * 2, [11e6] * 2, [LIFEADD] * 2,
                     PARAMS, duration_s, 3, mode="realistic", trace=trace)
    return sim, sim.devices


def test_hidden_terminals_spoil_each_other():
    sim, (a, b) = hidden_pair()
    a.assigned_rate = b.assigned_rate = 1.0  # no wake before both end
    sim._begin_transmission(a, 0)
    sim._begin_transmission(b, sim.packet_ns // 2)
    first, second = a.current_tx, b.current_tx
    assert sim._corrupts(first, second) and sim._corrupts(second, first)
    handlers = {EventKind.TX_END: sim._on_tx_end,
                EventKind.TIMEOUT: sim._on_attempt_done,
                EventKind.ACK_END: sim._on_attempt_done}
    ends = []
    for _ in range(4):
        event = sim.queue.next()
        handlers[event.kind](event)
        if event.kind is not EventKind.TX_END:
            ends.append((event.kind, event.device))
    assert ends == [(EventKind.TIMEOUT, a.idx), (EventKind.TIMEOUT, b.idx)]
    assert (a.tx_collision, b.tx_collision) == (1, 1)


class HiddenPairAttempts(Simulation):
    """Both devices sleep 1 ms after each attempt; B's first sleep is half
    a packet longer, so each attempt of A overlaps one of B's.  Records
    every device's congestion factor after each attempt."""

    SLEEP_NS = 1_000_000

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.factors = {dev.idx: [] for dev in self.devices}

    def _sleep_ns(self, dev):
        if dev.idx == 1 and dev.tx_success + dev.tx_collision == 0:
            return self.SLEEP_NS + self.packet_ns // 2
        return self.SLEEP_NS

    def _on_attempt_done(self, event):
        super()._on_attempt_done(event)
        dev = self.devices[event.device]
        self.factors[dev.idx].append(dev.congestion_factor)


def test_congestion_factor_doubles_to_its_cap_under_hidden_terminals():
    # Seven attempts each: A starts at 1 + 2k ms, B half a packet later.
    trace = io.StringIO()
    sim, (a, b) = hidden_pair(HiddenPairAttempts, 0.015, trace)
    sim.run()
    expected = [2, 4, 8, 16, 32, 32, 32]
    assert sim.factors == {a.idx: expected, b.idx: expected}
    traced = {a.idx: [], b.idx: []}
    for line in trace.getvalue().splitlines():
        _, kind, device, detail = line.split("\t")
        assert kind != "ack"
        if kind == "timeout":
            traced[int(device)].append(int(detail.removeprefix("F=")))
    assert traced == sim.factors
    assert (a.tx_success, b.tx_success) == (0, 0)


def test_records_off_the_air_are_freed_without_the_cycle_collector():
    # No record refers to another: each is freed when it leaves the air.
    sim = scenario_simulation("multi_ap_4x30", 0.5, "lifeadd")
    gc.collect()
    gc.disable()
    try:
        sim.run()
        records = [o for o in gc.get_objects()
                   if isinstance(o, lifeadd.mac._Transmission)]
    finally:
        gc.enable()
    assert sum(d.tx_collision for d in sim.devices) > 0
    # Alive: exactly the records on the air at the end.
    assert {id(r) for r in records} == {id(tx) for tx in sim.on_air}


# -- the sleep-wake device rules shared by both engines ----------------------


class FixedSleeps(Simulation):
    """Each device sleeps a fixed time; records every busy window that a
    device sleeps through as ``(device, from_ns, until_ns)``."""

    SLEEPS_NS = (1_000, 50_000)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.windows = []

    def _sleep_ns(self, dev):
        return self.SLEEPS_NS[dev.idx]

    def _sleep_through(self, dev, from_ns, until_ns):
        self.windows.append((dev.idx, from_ns, until_ns))
        return super()._sleep_through(dev, from_ns, until_ns)


def test_the_engines_open_a_busy_window_at_different_instants():
    """Pins today's behaviour, the busy-window FOUND in CHANGES.md: the
    renewal engine opens the window at the wake, the realistic one at the
    wake plus the sensing time.  Mending that FOUND edits this test.

    Device 0 wakes at 1 us and sends; device 1 wakes 50 us in, during the
    packet.  The renewal window ends at the cycle boundary, after the ACK;
    the realistic one at the end of the data frame it senses.
    """
    windows = {}
    for mode in (RENEWAL, REALISTIC):
        sim = FixedSleeps(single_ap_topology(2), [big_profile()] * 2,
                          [11e6] * 2, [LIFEADD] * 2, PARAMS, 0.9e-3, 3,
                          mode=mode)
        sim.run()
        windows[mode] = sim.windows
    first, wake = FixedSleeps.SLEEPS_NS
    assert windows == {
        RENEWAL: [(1, wake, first + sim.busy_ns)],
        REALISTIC: [(1, wake + sim.ts_ns, first + sim.packet_ns)]}


@pytest.mark.xfail(strict=True, reason=(
    "mark_rate FOUND in CHANGES.md: _on_attempt_done folds the rate "
    "integral past a death; mending it moves the single_ap benchmark "
    "references"))
@pytest.mark.parametrize("target", [45.0, 108.0])
def test_the_rate_integral_stops_at_death(target):
    cfg = shortened("single_ap_lifetime", 130.0, target)
    topo = cfg.build_topology()
    sim = Simulation(topo, cfg.profiles(), cfg.alphas(),
                     cfg.device_macs(topo), cfg.contention, cfg.duration_s,
                     11, mode=REALISTIC)
    sim.run()
    dead = [d for d in sim.devices if d.death_ns is not None]
    assert dead
    assert [(d.idx, d.rate_mark_ns - d.death_ns) for d in dead
            if d.rate_mark_ns > d.death_ns] == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "DCF ledger-order FOUND in CHANGES.md: a DCF station drains at "
    "(base - recharge) + P_on, one ulp off drain_power(profile, 1.0) on 22 "
    "of the 71 scenario profiles; ROADMAP item 15 aligns the order and "
    "names the bytes that move"))
def test_a_dcf_station_drains_at_drain_power_when_always_on():
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    off = [(path.stem, i)
           for path in sorted(scenarios.glob("*.json"))
           for i, p in enumerate(parse_scenario(str(path)).profiles())
           if lifeadd.mac._Device(0, DCF, p, 1.0, 1.0, RandomStream(0, 0))
           .drain_rate != drain_power(p, 1.0)]
    assert off == []


def test_near_far_fairness_ordering():
    cfg = parse_scenario("scenarios/near_far_pair.json")
    for seed in (17, 18):
        life = run_config(cfg, seed=seed, mac_override=LIFEADD)
        base = run_config(cfg, seed=seed, mode=REALISTIC, mac_override=DCF)
        lt = [d.throughput_bps for d in life.devices]
        bt = [d.throughput_bps for d in base.devices]
        assert min(lt) > 0
        assert max(lt) / min(lt) <= 2.0
        # victim-to-aggressor ratio is worse under the baseline
        assert bt[1] / bt[0] < lt[1] / lt[0] or min(bt) == 0


def test_mixed_macs_coexist_in_one_run():
    cfg = parse_scenario("scenarios/coexistence_4ap.json")
    cfg = dataclasses.replace(cfg, duration_s=4.0)
    rep = run_config(cfg, seed=101)
    assert len(rep.devices) == 30
    macs = {d.mac for d in rep.devices}
    assert macs == {"lifeadd", "dcf"}
    for d in rep.devices:
        if d.mac == "dcf":
            assert d.radio_on_fraction == 1.0
            assert d.assigned_rate_hz == 0.0
        else:
            assert d.radio_on_fraction < 0.7
            assert d.assigned_rate_hz > 0


def test_trace_format_is_tab_separated():
    trace = io.StringIO()
    run_simple(2, mode="realistic", duration=1.0, trace=trace)
    lines = trace.getvalue().splitlines()
    assert lines
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 4
        int(fields[0])


def test_trace_and_report_agree_on_death_times():
    empty = EnergyProfile(initial_energy=0.0, battery_capacity=1.5,
                          radio_on_power=1.0, base_power=0.5)
    dying = EnergyProfile(initial_energy=1.5, battery_capacity=1.5,
                          radio_on_power=1.0, base_power=0.5)
    trace = io.StringIO()
    rep = run_simple(3, mode="realistic", duration=5.0,
                     profiles=[empty, dying, big_profile()], trace=trace)
    traced = {}
    outcomes = {(d, kind): 0 for d in range(3) for kind in ("ack", "timeout")}
    for line in trace.getvalue().splitlines():
        time_ns, kind, device, _ = line.split("\t")
        if kind == "dead":
            traced[int(device)] = int(time_ns)
        elif kind in ("ack", "timeout"):
            outcomes[int(device), kind] += 1
    assert traced.keys() == {0, 1}
    assert traced[0] == 0
    for d, death_ns in traced.items():
        assert rep.devices[d].lifetime_s == death_ns / 1e9
    for d, row in enumerate(rep.devices):
        assert row.tx_success == outcomes[d, "ack"]
        assert row.tx_collision == outcomes[d, "timeout"]


# -- the energy ledger --------------------------------------------------------


class OneLedgerWriter(Simulation):
    """Only ``_drain`` and ``_kill`` write a device's ledger: whatever they
    leave, the next call from outside them finds unchanged."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.left = [self.ledger(d) for d in self.devices]
        self.depth = 0
        self.entries = 0

    @staticmethod
    def ledger(dev):
        return dev.battery, dev.on_time_ns, dev.last_drain_ns

    def _write(self, step, dev, *args):
        if self.depth == 0:  # a _kill from inside _drain is its own write
            assert self.ledger(dev) == self.left[dev.idx], (
                f"device {dev.idx}: ledger written outside _drain and _kill")
            self.entries += 1
        self.depth += 1
        try:
            return step(dev, *args)
        finally:
            self.depth -= 1
            self.left[dev.idx] = self.ledger(dev)

    def _drain(self, dev, *args):
        return self._write(super()._drain, dev, *args)

    def _kill(self, dev, *args):
        return self._write(super()._kill, dev, *args)


def shortened(name, duration_s, target=None):
    cfg = parse_scenario(f"scenarios/{name}.json")
    if target is not None:
        cfg = dataclasses.replace(cfg, devices=[
            dataclasses.replace(d, energy=dataclasses.replace(
                d.energy, target_lifetime=target)) for d in cfg.devices])
    return dataclasses.replace(cfg, duration_s=duration_s)


@pytest.mark.parametrize("name, duration_s, target, mac", [
    ("multi_ap_4x30", 0.3, None, LIFEADD),
    ("multi_ap_4x30", 0.3, None, DCF),
    ("coexistence_4ap", 0.3, None, None),
    ("single_ap_lifetime", 56.0, 45.0, None),  # all three die
    ("single_ap_validation", 2.0, None, None)])
def test_only_drain_and_kill_write_the_ledger(monkeypatch, name, duration_s,
                                              target, mac):
    cfg = shortened(name, duration_s, target)
    plain = emit_report(run_config(cfg, mac_override=mac), "json")
    made = []

    def checked(*args, **kwargs):
        made.append(OneLedgerWriter(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(lifeadd.mac, "Simulation", checked)
    assert emit_report(run_config(cfg, mac_override=mac), "json") == plain
    sim, = made
    assert sim.entries > len(sim.devices)
    if target is not None:
        assert None not in [d.death_ns for d in sim.devices]


def ledger_device(profile):
    sim = Simulation(single_ap_topology(1), [profile], [11e6], [LIFEADD],
                     PARAMS, 10.0, 3, mode="realistic")
    return sim, sim.devices[0]


def test_a_drain_that_empties_the_battery_kills_where_it_crossed():
    sim, dev = ledger_device(EnergyProfile(
        initial_energy=1.0, battery_capacity=1.0, radio_on_power=1.0,
        base_power=0.5))
    assert sim._drain(dev, 1_000_000_000)
    assert dev.battery == 0.5 and dev.last_drain_ns == 1_000_000_000
    assert not sim._drain(dev, 4_000_000_000, 1.0)
    assert (dev.death_ns, dev.battery) == (2_000_000_000, 0.0)
    assert dev.on_time_ns == 0  # a dead device is charged nothing
    assert not sim._drain(dev, 5_000_000_000)
    assert dev.death_ns == 2_000_000_000


@pytest.mark.parametrize("window_start_ns, death_ns", [
    (None, 3_000_000_000),         # at the charge
    (2_000_000_000, 2_500_000_000),  # where base and radio reach zero
    (2_800_000_000, 2_800_000_000)])  # no earlier than the window
def test_a_charge_that_empties_the_battery_dies_inside_its_window(
        window_start_ns, death_ns):
    sim, dev = ledger_device(EnergyProfile(
        initial_energy=2.0, battery_capacity=2.0, radio_on_power=1.5,
        base_power=0.5))
    assert sim._drain(dev, 2_000_000_000)
    assert not sim._drain(dev, 3_000_000_000, 1.0, window_start_ns)
    assert (dev.death_ns, dev.battery) == (death_ns, 0.0)
    assert dev.on_time_ns == 1_000_000_000


def test_only_a_charge_kills_an_empty_device_without_net_drain():
    sim, dev = ledger_device(EnergyProfile(
        initial_energy=0.0, battery_capacity=1.0, radio_on_power=1.0,
        base_power=0.2, recharge_rate=0.2))
    assert (dev.battery, dev.drain_rate) == (0.0, 0.0)
    assert sim._drain(dev, 1_000_000_000)
    assert (dev.death_ns, dev.battery, dev.last_drain_ns) == (
        None, 0.0, 1_000_000_000)
    assert not sim._drain(dev, 2_000_000_000, 0.0)
    assert dev.death_ns == 2_000_000_000


def test_event_kind_globals_name_their_members():
    names = [getattr(lifeadd.mac, kind.name) for kind in EventKind]
    assert names == list(EventKind)


# -- the one-event-per-device invariant -------------------------------------

DEVICE_EVENTS = frozenset({EventKind.WAKE, EventKind.BACKOFF_END,
                           EventKind.TX_END, EventKind.ACK_END,
                           EventKind.TIMEOUT})


class OneEventPerDevice(EventQueue):
    """Fails the run when a device gets a second device event outstanding."""

    def __init__(self):
        super().__init__()
        self.outstanding = Counter()
        self.device_events = 0

    def schedule(self, time, kind, device=None):
        if kind in DEVICE_EVENTS:
            assert self.outstanding[device] == 0, (
                f"device {device}: {kind} at {time} ns while another device "
                "event is outstanding")
            self.outstanding[device] += 1
            self.device_events += 1
        return super().schedule(time, kind, device)

    def next(self):
        event = super().next()
        if event.kind in DEVICE_EVENTS:
            self.outstanding[event.device] -= 1
        return event


def checked_run(sim):
    sim.queue = OneEventPerDevice()
    report = sim.run()
    assert sim.queue.device_events > len(sim.devices)
    return report


def scenario_simulation(name, duration_s, mac=None):
    cfg = parse_scenario(f"scenarios/{name}.json")
    topo = cfg.build_topology()
    return Simulation(topo, cfg.profiles(), cfg.alphas(),
                      cfg.device_macs(topo, mac), cfg.contention, duration_s,
                      cfg.seed, mode="realistic")


@pytest.mark.parametrize("name, mac", [("multi_ap_4x30", "lifeadd"),
                                       ("multi_ap_4x30", "dcf"),
                                       ("coexistence_4ap", None)])
def test_one_device_event_outstanding_in_field_runs(name, mac):
    sim = scenario_simulation(name, 1.0, mac)
    checked_run(sim)
    assert {d.mac for d in sim.devices} == (
        {"lifeadd", "dcf"} if mac is None else {mac})


def test_one_device_event_outstanding_through_deaths():
    dying = EnergyProfile(initial_energy=1.5, battery_capacity=1.5,
                          radio_on_power=1.0, base_power=0.5)
    macs = ["lifeadd", "dcf", "lifeadd", "dcf"]
    profiles = [dying, dying] + [big_profile()] * 2
    sim = Simulation(single_ap_topology(4), profiles, [11e6] * 4,
                     macs, PARAMS, 5.0, 3, mode="realistic")
    rep = checked_run(sim)
    alive = [d.death_ns is None for d in sim.devices]
    assert alive == [False, False, True, True]
    assert all(row.tx_success > 0 for row in rep.devices)


# -- the DCF busy horizon ----------------------------------------------------


def scanned_busy_until(sim, dev, now_ns):
    """The DCF channel reader the busy horizon replaced: a scan of every
    active source the station senses, of any age, but its own ACK."""
    busy_until = None
    senses, senses_ap = sim.senses_device[dev.idx], sim.senses_ap[dev.idx]
    for tx in sim.on_air:
        if tx.start <= now_ns < tx.end and senses[tx.device]:
            busy_until = max(busy_until or 0, tx.end)
        if (tx.end <= now_ns < tx.ack_end and senses_ap[tx.ap]
                and tx.device != dev.idx):
            busy_until = max(busy_until or 0, tx.ack_end)
    return busy_until


class HorizonChecked(Simulation):
    """At every DCF decision, every DCF station's horizon answer must be
    the scan's."""

    decisions = 0

    def _dcf_decide(self, dev, now_ns):
        for station in self.devices:
            if station.mac == DCF:
                horizon = station.busy_horizon_ns
                answer = horizon if horizon > now_ns else None
                assert answer == scanned_busy_until(self, station, now_ns), (
                    f"station {station.idx} at {now_ns} ns")
        self.decisions += 1
        super()._dcf_decide(dev, now_ns)


def any_ap_macs(n_aps):
    return st.lists(st.sampled_from(MACS), min_size=n_aps, max_size=n_aps)


@st.composite
def field_arguments(draw, ap_macs, duration_s, dying_energy):
    """``Simulation`` arguments for a random realistic field.

    1-3 APs and 2-8 devices; each device runs its AP's MAC, from the list
    ``ap_macs(n_aps)`` draws.  Some devices start with ``dying_energy``
    joules, which they spend at 1.5 W on DCF and at least 0.5 W on
    Life-Add.
    """
    n_aps, n_devices = draw(st.integers(1, 3)), draw(st.integers(2, 8))
    point = st.lists(st.floats(0.0, 120.0), min_size=2, max_size=2)
    topo = build_topology(
        draw(st.lists(point, min_size=n_aps, max_size=n_aps)),
        draw(st.lists(point, min_size=n_devices, max_size=n_devices)),
        Ranges(draw(st.floats(20.0, 150.0)), draw(st.floats(20.0, 150.0)),
               200.0))
    ap_mac = draw(ap_macs(n_aps))
    dying = EnergyProfile(initial_energy=dying_energy,
                          battery_capacity=dying_energy,
                          radio_on_power=1.0, base_power=0.5)
    profiles = [dying if short else big_profile() for short in draw(
        st.lists(st.booleans(), min_size=n_devices, max_size=n_devices))]
    return dict(
        topology=topo, profiles=profiles, alphas=[11e6] * n_devices,
        macs=[ap_mac[ap] for ap in topo.associated_ap], params=PARAMS,
        duration_s=duration_s, seed=draw(st.integers(0, 2**32)),
        mode=REALISTIC)


@st.composite
def dcf_fields(draw):
    # Half the fields are all DCF; stations short of energy die at 0.1 s.
    arguments = draw(field_arguments(
        lambda n_aps: st.one_of(st.just([DCF] * n_aps), any_ap_macs(n_aps)),
        0.2, 0.15))
    assume(DCF in arguments["macs"])
    return HorizonChecked(**arguments)


@settings(max_examples=60, deadline=None)
@given(dcf_fields())
def test_busy_horizon_equals_the_channel_scan(sim):
    checked_run(sim)
    assert sim.decisions > 0


# -- the trace -----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(field_arguments(any_ap_macs, 0.3, 0.1))
def test_a_trace_never_changes_the_report_and_agrees_with_it(arguments):
    untraced = emit_report(Simulation(**arguments).run(), "json")
    trace = io.StringIO()
    report = Simulation(**arguments, trace=trace).run()
    assert emit_report(report, "json") == untraced
    counts, deaths = Counter(), {}
    for line in trace.getvalue().splitlines():
        time_ns, kind, device, _ = line.split("\t")
        counts[int(device), kind] += 1
        if kind == "dead":
            deaths[int(device)] = int(time_ns)
    for d, row in enumerate(report.devices):
        assert row.tx_success == counts[d, "ack"]
        assert row.tx_collision == counts[d, "timeout"]
        assert counts[d, "dead"] <= 1
        if d in deaths:
            assert row.lifetime_s == deaths[d] / 1e9
        else:  # survived: extrapolated past the run
            assert row.lifetime_s >= arguments["duration_s"]
