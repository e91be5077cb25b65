import dataclasses
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lifeadd.mac
from lifeadd.energy import EnergyProfile
from lifeadd.formulas import ContentionParams, success_time_fraction
from lifeadd.kernel import EventKind, EventQueue
from lifeadd.mac import (DCF, LIFEADD, MACS, REALISTIC, Simulation,
                         run_config, select_rates)
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
               efficiencies=None, profiles=None, trace=None):
    topo = single_ap_topology(n)
    return Simulation(
        topo, profiles or [big_profile()] * n,
        efficiencies if efficiencies is not None else [2.0] * n,
        [11e6] * n, macs or ["lifeadd"] * n, PARAMS, duration, seed,
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
        Simulation(topo, [big_profile()] * 2, [2.0, 2.0], [1.0, 1.0],
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


def test_radio_on_fraction_respects_budget_envelope():
    # budgets below 1 keep the measured on-fraction within 0.02 of the
    # budget over a 100 s window
    budgets = [0.3, 0.45, 0.8]
    rep = run_simple(3, mode="realistic", duration=100.0,
                     efficiencies=budgets)
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
    sim = Simulation(topo, [dying, big_profile()], [2.0, 2.0], [1.0, 1.0],
                     ["lifeadd", "lifeadd"], PARAMS, 8.0, 5,
                     mode="realistic")
    sim.run()
    assert not sim.devices[0].alive
    two_party = 0.5 * optimal_total_rate(2, PARAMS)
    solo = optimal_total_rate(1, PARAMS)
    assert sim.devices[0].initial_rate == pytest.approx(two_party)
    assert sim.devices[1].assigned_rate == pytest.approx(solo)


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
    sim = Simulation(single_ap_topology(2), [big_profile()] * 2, [2.0] * 2,
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


def test_packet_length_distribution_runs_deterministically():
    cfg = parse_scenario("scenarios/near_far_pair.json")
    import lifeadd.scenario as sc
    dist = sc.PacketDistribution(choices=(400.0, 1500.0), weights=(0.5, 0.5))
    cfg = dataclasses.replace(cfg, packet_bytes=dist, duration_s=5.0)
    a = emit_report(run_config(cfg, seed=3, mac_override=LIFEADD), "json")
    b = emit_report(run_config(cfg, seed=3, mac_override=LIFEADD), "json")
    assert a == b


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

    def schedule(self, time, kind, device=None, ap=None):
        if kind in DEVICE_EVENTS:
            assert self.outstanding[device] == 0, (
                f"device {device}: {kind} at {time} ns while another device "
                "event is outstanding")
            self.outstanding[device] += 1
            self.device_events += 1
        return super().schedule(time, kind, device, ap)

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
    return Simulation(topo, cfg.profiles(), cfg.efficiencies(), cfg.alphas(),
                      cfg.device_macs(topo, mac), cfg.contention, duration_s,
                      cfg.seed, mode="realistic",
                      beacon_period_s=cfg.beacon_period_s)


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
    sim = Simulation(single_ap_topology(4), profiles, [2.0] * 4, [11e6] * 4,
                     macs, PARAMS, 5.0, 3, mode="realistic")
    rep = checked_run(sim)
    assert [d.alive for d in sim.devices] == [False, False, True, True]
    assert all(row.tx_success > 0 for row in rep.devices)


# -- the DCF busy horizon ----------------------------------------------------


def scanned_busy_until(sim, dev, now_ns):
    """The DCF channel reader the busy horizon replaced: a scan of every
    active source the station senses, of any age, but its own ACK."""
    busy_until = None
    senses = sim.senses_device[dev.idx]
    for tx in sim.active_tx:
        if tx.end > now_ns and tx.start <= now_ns and senses[tx.device]:
            busy_until = max(busy_until or 0, tx.end)
    senses = sim.senses_ap[dev.idx]
    for ack in sim.active_acks:
        if (ack.end > now_ns and ack.start <= now_ns and senses[ack.ap]
                and ack.device != dev.idx):
            busy_until = max(busy_until or 0, ack.end)
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


PACKET_BYTES = np.array([400.0, 1500.0])


def mixed_packets(dev):
    return dev.stream.choice(PACKET_BYTES, [0.3, 0.7]) * 8.0 / dev.alpha


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
        topology=topo, profiles=profiles, efficiencies=[2.0] * n_devices,
        alphas=[11e6] * n_devices,
        macs=[ap_mac[ap] for ap in topo.associated_ap], params=PARAMS,
        duration_s=duration_s, seed=draw(st.integers(0, 2**32)),
        mode=REALISTIC,
        packet_sampler=draw(st.sampled_from([None, mixed_packets])))


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
