"""Event-driven MAC simulation: sleep-wake contention and baseline DCF.

``Simulation.run`` picks one of two engines from the mode, once:

* renewal (``_on_cycle_start``, the ``CYCLE_START`` engine): the whole
  network advances cycle by cycle and every sleep timer re-arms at each
  cycle boundary (statistically identical to letting the residual timers
  run, by memorylessness).  Only devices waking within the sensing window
  of the first wake transmit, they collide when there is more than one,
  the rest sleep through the busy period, and the congestion factor stays
  at 1.  This reproduces the analytic cycle structure exactly and exists
  for formula validation; it needs one collision domain of Life-Add
  devices (``renewal_violations``).

* realistic (every other handler): devices run independent timers, so
  the event handlers carry what the renewal model omits:
  hidden-terminal overlap collisions, transmissions started during an
  inaudible ACK failing at the AP, wake-ups during a timeout going ahead,
  the timeout-doubling congestion factor, and the DCF baseline, which
  keeps its radio on permanently (idle-listening) and contends with
  slotted binary exponential backoff.  These handlers never run in
  renewal mode.

In both engines every packet lasts the contention packet time.  The DCF
baseline uses fixed 802.11b timing: a ``SLOT_S`` of 20 us, a ``DIFS_S``
of 50 us, and a contention window from ``CW_MIN`` = 31 doubling to
``CW_MAX`` = 1023; a source keying up freezes a running countdown
(``backoff_end_ns``) to the ``residual_slots`` whose end has not passed.
The APs beacon together: one ``BEACON`` every ``BEACON_PERIOD_S`` = 0.1 s.

A device never has more than one device event (``WAKE``, ``BACKOFF_END``,
``TX_END``, ``ACK_END`` or ``TIMEOUT``) outstanding; the handlers rely on
it, so none of them checks for a stale or superseded event.

The topology's boolean matrices are copied once into nested Python lists,
together with, for each device and each AP, the DCF stations that sense
it; the per-event code indexes those rather than numpy.  What is on the
air is one list, ``on_air``, of one record per attempt: it joins at
key-up and leaves at its own ``ACK_END`` or ``TIMEOUT``, and readers tell
its data (``start``..``end``) from its ACK (``end``..``ack_end``, set by
a successful ``TX_END``) by time.  An attempt's fate is decided at
key-up: it and each record still sending judge each other once
(``_corrupts``), so ``TX_END`` reads two flags, ``corrupted`` and
``ack_overlap``, and success is the event kind, ``ACK_END``.  A DCF
station, which hears a source from its first nanosecond, reads no list:
``busy_horizon_ns``, the latest end of any source it hears, rises where
a source keys up.  Sources start only at the current event time and
never end early, so its channel is busy until the horizon if that is
later than now, and idle otherwise.  The rule holds only for DCF
readers.

Both engines apply one copy of each sleep-wake device rule: ``_sleep_ns``,
the exponential sleep; ``_settle``, an attempt's outcome and energy; and
the busy-window rule, ``_sleep_through``: the wakes inside a busy window
are one Poisson count, each charged one sensing time at the window's end
(exact, since the first wake after it is a fresh exponential).  The
engines differ only in where the window opens: at the wake in renewal
mode, at the wake plus the sensing time in realistic mode.

Each device draws from its own ``RandomStream``: doubles come in blocks
from the device's PCG64 stream, and every value equals the scalar
``Generator`` call's (``kernel`` states the rules that keep it so).
"""

from __future__ import annotations

from math import floor, log
from dataclasses import dataclass

from .energy import EnergyProfile, drain_power, energy_budget, time_to_empty
from .formulas import ContentionParams
from .kernel import (NS_PER_S, PRNG_ID, Event, EventKind, EventQueue,
                     RandomStream, ns_to_seconds, seconds_to_ns)
from .report import DeviceMetrics, SimReport
from .solver import assign_rates
from .topology import Topology

# The event kinds as globals, in EventKind's order (a test checks the
# names): reading an Enum member through its class costs about 0.2 us, as
# EnumType defines __getattr__, and reading a global a tenth of that.
(WAKE, TX_END, ACK_END, TIMEOUT, BACKOFF_END, BEACON, CYCLE_START,
 END_OF_SIM) = EventKind

MAX_CONGESTION_FACTOR = 32
BEACON_PERIOD_S = 0.1
SLOT_S = 20e-6
DIFS_S = 50e-6
CW_MIN = 31
CW_MAX = 1023

LIFEADD = "lifeadd"
DCF = "dcf"
RENEWAL = "renewal"
REALISTIC = "realistic"
MACS = (LIFEADD, DCF)
MODES = (RENEWAL, REALISTIC)


@dataclass(slots=True, eq=False)  # on_air.remove matches by identity
class _Transmission:
    device: int
    ap: int
    start: int
    end: int
    corrupted: bool = False     # an overlapping sender spoiled it at its AP
    ack_overlap: bool = False   # own AP transmitted an ACK over this
    ack_end: int = 0            # end of its ACK; 0 until a success


class _Device:
    """Mutable per-device simulation state and accounting."""

    def __init__(self, idx: int, mac: str, profile: EnergyProfile,
                 efficiency: float, alpha: float, stream: RandomStream):
        self.idx = idx
        self.mac = mac
        self.profile = profile
        self.drain_rate = drain_power(profile, 0.0)
        if mac == DCF:  # idle-listening: always on
            self.drain_rate += profile.radio_on_power
        self.efficiency = efficiency
        self.alpha = alpha
        self.stream = stream
        self.battery = profile.initial_energy
        self.last_drain_ns = 0
        self.death_ns: int | None = None  # None while alive
        # sleep-wake state
        self.assigned_rate = 0.0
        self.initial_rate = 0.0
        self.congestion_factor = 1  # effective rate: assigned_rate / it
        self.current_tx: _Transmission | None = None
        # DCF state
        self.cw = 0
        self.residual_slots = 0
        self.busy_horizon_ns = 0    # latest end of any source it hears
        # End of the running countdown; None while the station waits for
        # a busy channel to clear, after an interruption, or transmits.
        self.backoff_end_ns: int | None = None
        # accounting
        self.on_time_ns = 0         # radio on, sleep-wake only
        self.tx_success = 0
        self.tx_collision = 0
        self.rate_integral = 0.0    # integral of effective rate over time
        self.rate_mark_ns = 0

    def mark_rate(self, now_ns: int) -> None:
        """Fold the running effective rate into its time integral."""
        self.rate_integral += (self.assigned_rate / self.congestion_factor
                               * ns_to_seconds(now_ns - self.rate_mark_ns))
        self.rate_mark_ns = now_ns


class Simulation:
    """One deterministic run; usually driven via run_config()."""

    def __init__(self, topology: Topology, profiles: list[EnergyProfile],
                 alphas, macs: list[str],
                 params: ContentionParams, duration_s: float, seed: int,
                 mode: str = REALISTIC, trace=None):
        self.topology = topology
        self.params = params
        self.mode = mode
        self.seed = seed
        self.duration_ns = seconds_to_ns(duration_s)
        self.beacon_period_ns = seconds_to_ns(BEACON_PERIOD_S)
        self.trace = trace

        self.ts_ns = seconds_to_ns(params.sensing_time)
        self.packet_ns = seconds_to_ns(params.packet_time)
        self.ack_ns = seconds_to_ns(params.ack_time)
        self.busy_ns = self.packet_ns + self.ack_ns  # one attempt's airtime
        self.slot_ns = seconds_to_ns(SLOT_S)
        self.difs_ns = seconds_to_ns(DIFS_S)

        self.queue = EventQueue()
        self.devices = [
            _Device(i, macs[i], profiles[i],
                    energy_budget(profiles[i]).efficiency, float(alphas[i]),
                    RandomStream(seed, i))
            for i in range(topology.n_devices)
        ]
        self.on_air: list[_Transmission] = []
        self.membership_dirty = False

        self.senses_device = topology.device_senses_device.tolist()
        self.senses_ap = topology.device_senses_ap.tolist()
        self.interferes_at = topology.interferes_at.tolist()
        self.ap_of = topology.associated_ap.tolist()
        # The DCF stations that sense each device and each AP.
        dcf = [d for d in self.devices if d.mac == DCF]
        self.dcf_sensing_device = [
            [o for o in dcf if self.senses_device[o.idx][d]]
            for d in range(topology.n_devices)]
        self.dcf_sensing_ap = [[o for o in dcf if self.senses_ap[o.idx][ap]]
                               for ap in range(topology.n_aps)]

        if mode == RENEWAL:
            violations = renewal_violations(macs, topology)
            if violations:
                raise ValueError("; ".join(violations))

    # -- energy ---------------------------------------------------------

    def _drain(self, dev: _Device, now_ns: int,
               on_seconds: float | None = None,
               window_start_ns: int | None = None) -> bool:
        """The one energy-ledger step; returns whether ``dev`` is alive.

        Drains base power less recharge from the last update to
        ``now_ns``, clamped at the capacity; a level that reaches 0 kills
        the device where it crossed.  Given ``on_seconds`` (sleep-wake
        only, 0.0 included), then charges that much radio-on time at
        ``now_ns``; a battery left at or below 0 dies inside the charged
        window, where base and radio together cross zero if
        ``window_start_ns`` is given, else at ``now_ns``.
        """
        if dev.death_ns is not None:
            return False
        if now_ns > dev.last_drain_ns:
            rate = dev.drain_rate
            level = dev.battery - rate * ((now_ns - dev.last_drain_ns)
                                          / NS_PER_S)
            if level <= 0.0 and rate > 0:
                self._kill(dev, now_ns - seconds_to_ns(-level / rate))
                return False
            cap = dev.profile.battery_capacity  # not killed, so level >= 0
            dev.battery = level if level <= cap else cap
            dev.last_drain_ns = now_ns
        if on_seconds is None:
            return True
        dev.on_time_ns += floor(on_seconds * NS_PER_S + 0.5)
        dev.battery -= dev.profile.radio_on_power * on_seconds
        if dev.battery <= 0.0:
            total = drain_power(dev.profile, 1.0)
            if window_start_ns is not None and total > 0:
                self._kill(dev, max(window_start_ns, now_ns - seconds_to_ns(
                    -dev.battery / total)))
            else:
                self._kill(dev, now_ns)
            return False
        return True

    def _kill(self, dev: _Device, death_ns: int) -> None:
        dev.death_ns = death_ns
        dev.mark_rate(death_ns)
        dev.battery = 0.0
        self.membership_dirty = True
        self._emit_trace(death_ns, "dead", dev.idx, "")

    # -- channel --------------------------------------------------------

    def _begin_transmission(self, dev: _Device, now_ns: int) -> None:
        tx = _Transmission(dev.idx, self.ap_of[dev.idx], now_ns,
                           now_ns + self.packet_ns)
        for other in self.on_air:
            if other.end > now_ns:
                tx.corrupted = tx.corrupted or self._corrupts(other, tx)
                other.corrupted = other.corrupted or self._corrupts(tx, other)
            elif other.ap == tx.ap and other.ack_end > now_ns:
                tx.ack_overlap = True
        if listeners := self.dcf_sensing_device[dev.idx]:
            self._interrupt_dcf_countdowns(  # every listener is DCF
                now_ns, tx.end, listeners, self._window_ns(dev.mac, DCF))
        self.on_air.append(tx)
        dev.current_tx = tx
        self.queue.schedule(tx.end, TX_END, dev.idx)
        self._emit_trace(now_ns, "tx_start", dev.idx, "ap=", tx.ap)

    def _corrupts(self, src: _Transmission, victim: _Transmission) -> bool:
        """True when ``src`` spoils the overlapping ``victim`` at its AP.

        Only a sender that interferes at the victim's AP can spoil it, and
        a hidden one (the victim's sender cannot sense it) always does.
        Mutually-sensing transmitters collide when their starts fall
        within one vulnerability window (``_window_ns``).
        """
        if not self.interferes_at[src.device][victim.ap]:
            return False
        if not self.senses_device[victim.device][src.device]:
            return True  # hidden terminal
        return abs(src.start - victim.start) < self._window_ns(
            self.devices[src.device].mac, self.devices[victim.device].mac)

    def _window_ns(self, mac: str, other_mac: str) -> int:
        """How far apart two senders can key up unaware of each other: the
        sensing time, or one backoff slot between two DCF stations, whose
        post-busy countdowns share slot boundaries and so tie at slot
        granularity (which a continuous-time model cannot reproduce with
        the bare sensing window)."""
        return self.slot_ns if mac == DCF == other_mac else self.ts_ns

    # -- sleep-wake device ---------------------------------------------

    def _on_wake(self, event: Event) -> None:
        """Transmit if the channel is sensed idle, else sleep through it.

        A source is sensed once it has been on for the sensing time: a
        data frame through ``senses_device``, an ACK through ``senses_ap``
        (never the device's own: it has no ``WAKE`` outstanding then).  The
        next wake is drawn from the anchor, the end of the busy window.
        """
        dev, now_ns = self.devices[event.device], event.time
        if not self._drain(dev, now_ns):
            return
        heard = now_ns - self.ts_ns
        anchor = now_ns  # becomes the latest end of a sensed source
        senses = self.senses_device[dev.idx]
        senses_ap = self.senses_ap[dev.idx]
        for tx in self.on_air:
            if tx.end > anchor and tx.start <= heard and senses[tx.device]:
                anchor = tx.end
            elif tx.ack_end > anchor and tx.end <= heard and senses_ap[tx.ap]:
                anchor = tx.ack_end
        if anchor == now_ns:
            self._begin_transmission(dev, now_ns)
            return
        sensed_ns = now_ns + self.ts_ns
        if anchor < sensed_ns:
            anchor = sensed_ns
        if self._sleep_through(dev, sensed_ns, anchor):
            self.queue.schedule(anchor + self._sleep_ns(dev), WAKE, dev.idx)

    @staticmethod
    def _sleep_ns(dev: _Device) -> int:
        """An exponential sleep at the effective rate, in whole ns."""
        rate = dev.assigned_rate / dev.congestion_factor
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        return floor(-log(dev.stream.uniform()) / rate * NS_PER_S + 0.5)

    def _sleep_through(self, dev: _Device, from_ns: int,
                       until_ns: int) -> bool:
        """The busy-window rule (module docstring); True if ``dev`` lives."""
        wakes = 1  # the one that found the channel busy
        if until_ns > from_ns:
            wakes += dev.stream.poisson(
                dev.assigned_rate / dev.congestion_factor
                * ((until_ns - from_ns) / NS_PER_S))
        return self._drain(dev, until_ns, wakes * self.params.sensing_time)

    def _settle(self, dev: _Device, success: bool, start_ns: int,
                end_ns: int) -> None:
        """Count an attempt's outcome and drain to its end; a Life-Add
        radio pays the busy time, dying no earlier than ``start_ns``."""
        if success:
            dev.tx_success += 1
        else:
            dev.tx_collision += 1
        if dev.mac == LIFEADD:
            self._drain(dev, end_ns, self.busy_ns / NS_PER_S, start_ns)
        else:
            self._drain(dev, end_ns)

    def _on_tx_end(self, event: Event) -> None:
        dev, now_ns = self.devices[event.device], event.time
        tx = dev.current_tx
        success = not (tx.corrupted or tx.ack_overlap)
        if success:
            tx.ack_end = now_ns + self.ack_ns
            for other in self.on_air:
                if other.ap == tx.ap and other.end > now_ns:
                    other.ack_overlap = True
            if listeners := self.dcf_sensing_ap[tx.ap]:
                self._interrupt_dcf_countdowns(
                    now_ns, tx.ack_end, listeners, self.ts_ns, dev)
        self.queue.schedule(now_ns + self.ack_ns,
                            ACK_END if success else TIMEOUT, dev.idx)
        self._emit_trace(now_ns, "tx_end", dev.idx, "")

    def _on_attempt_done(self, event: Event) -> None:
        """Shared ACK/timeout completion: energy, counters, next action."""
        dev, now_ns = self.devices[event.device], event.time
        tx = dev.current_tx
        dev.current_tx = None
        self.on_air.remove(tx)
        success = event.kind is ACK_END
        self._settle(dev, success, tx.start, now_ns)
        if dev.mac == LIFEADD:
            # dev.mark_rate, even after a death: an over-count goldens pin.
            dev.mark_rate(now_ns)
            if success:
                dev.congestion_factor = 1
            else:
                dev.congestion_factor = min(
                    dev.congestion_factor * 2, MAX_CONGESTION_FACTOR)
            self._emit_trace(now_ns, "ack" if success else "timeout",
                             dev.idx, "F=", dev.congestion_factor)
            if dev.death_ns is None:
                self.queue.schedule(now_ns + self._sleep_ns(dev), WAKE,
                                    dev.idx)
        else:
            if success:
                dev.cw = CW_MIN
            else:
                dev.cw = min(2 * (dev.cw + 1) - 1, CW_MAX)
            dev.residual_slots = dev.stream.integers(0, dev.cw)
            self._emit_trace(now_ns, "ack" if success else "timeout",
                             dev.idx, "cw=", dev.cw)
            if dev.death_ns is None:
                self._dcf_decide(dev, now_ns)

    # -- DCF device -------------------------------------------------------

    def _interrupt_dcf_countdowns(self, now_ns: int, end_ns: int,
                                  listeners: list[_Device], blind_ns: int,
                                  skip: _Device | None = None) -> None:
        """Raise the DCF listeners' busy horizons to a keyed-up source's end
        and freeze their countdowns; ``skip`` is an ACK's own station.

        A frozen countdown keeps the slots whose end has not yet passed, as
        in binary exponential backoff.  A countdown ending inside the blind
        window (the source's vulnerability window, ``_window_ns``) keeps
        running: the station cannot detect the new source in time, and will
        usually produce a collision.
        """
        for other in listeners:
            if end_ns > other.busy_horizon_ns and other is not skip:
                other.busy_horizon_ns = end_ns
            if (other.death_ns is not None or other.backoff_end_ns is None
                    or other.backoff_end_ns < now_ns + blind_ns):
                continue
            other.residual_slots = min(other.residual_slots, -(
                (now_ns - other.backoff_end_ns) // self.slot_ns))
            other.backoff_end_ns = None

    def _dcf_decide(self, dev: _Device, now_ns: int) -> None:
        if dev.busy_horizon_ns > now_ns:  # wait for the channel to clear
            dev.backoff_end_ns = None
            self.queue.schedule(dev.busy_horizon_ns, BACKOFF_END, dev.idx)
            return
        dev.backoff_end_ns = (now_ns + self.difs_ns
                              + dev.residual_slots * self.slot_ns)
        self.queue.schedule(dev.backoff_end_ns, BACKOFF_END, dev.idx)

    def _on_backoff_end(self, event: Event) -> None:
        """The channel cleared or the countdown ran out: re-decide or send."""
        dev, now_ns = self.devices[event.device], event.time
        if not self._drain(dev, now_ns):
            return
        if dev.backoff_end_ns is None:
            self._dcf_decide(dev, now_ns)
            return
        dev.backoff_end_ns = None
        self._begin_transmission(dev, now_ns)

    # -- beacons / rate control ------------------------------------------

    def _plan_rates(self) -> None:
        """Solve the rate plan over the alive Life-Add devices."""
        include = [d.death_ns is None and d.mac == LIFEADD
                   for d in self.devices]
        self.planned_rates, _ = select_rates(
            self.topology, [d.efficiency for d in self.devices], self.params,
            include)
        self.membership_dirty = False

    def _on_beacon(self, event: Event) -> None:
        """Every AP's beacon: re-plan after a death, then hand out the plan.

        The plan is global, a beacon takes no airtime and every device hears
        some AP (``Topology`` checks it), so one event stands for them all.
        """
        now_ns = event.time
        if self.membership_dirty:
            self._plan_rates()
        for dev, rate in zip(self.devices, self.planned_rates):
            if (dev.death_ns is None and dev.mac == LIFEADD
                    and rate != dev.assigned_rate):
                dev.mark_rate(now_ns)
                dev.assigned_rate = rate
        self.queue.schedule(now_ns + self.beacon_period_ns, BEACON)

    # -- renewal-mode cycle engine ----------------------------------------

    def _on_cycle_start(self, event: Event) -> None:
        now_ns = event.time
        alive = [d for d in self.devices if d.death_ns is None]
        if not alive:
            return
        wakes = [now_ns + self._sleep_ns(d) for d in alive]
        first_ns = min(wakes)
        heard_ns = first_ns + self.ts_ns
        transmitters = [d for d, w in zip(alive, wakes) if w < heard_ns]
        success = len(transmitters) == 1
        boundary = first_ns + self.busy_ns

        for d in transmitters:
            self._emit_trace(first_ns, "tx_start", d.idx,
                             "ok" if success else "collision")
            self._settle(d, success, first_ns, boundary)
        for d, wake_ns in zip(alive, wakes):  # the others, all alive
            if wake_ns < heard_ns:
                continue
            if wake_ns >= boundary:
                self._drain(d, boundary)
            else:  # the window opens at the wake itself (module docstring)
                self._sleep_through(d, wake_ns, boundary)
        if boundary < self.duration_ns and any(
                d.death_ns is None for d in self.devices):
            self.queue.schedule(boundary, CYCLE_START)

    # -- main loop ---------------------------------------------------------

    def _emit_trace(self, time_ns: int, kind: str, device, detail="",
                    value="") -> None:
        if self.trace is not None:  # the detail is formatted only if traced
            self.trace.write(f"{time_ns}\t{kind}\t{device}\t{detail}{value}\n")

    def run(self) -> SimReport:
        self._plan_rates()
        for dev, rate in zip(self.devices, self.planned_rates):
            if dev.mac == LIFEADD:
                dev.assigned_rate = dev.initial_rate = rate
        if self.mode == RENEWAL:
            self.queue.schedule(0, CYCLE_START)
        else:
            for dev in self.devices:
                if dev.mac == LIFEADD:
                    self.queue.schedule(self._sleep_ns(dev), WAKE, dev.idx)
                else:
                    dev.cw = CW_MIN
                    dev.residual_slots = dev.stream.integers(0, dev.cw)
                    self._dcf_decide(dev, 0)
            if LIFEADD in (dev.mac for dev in self.devices):
                self.queue.schedule(self.beacon_period_ns, BEACON)

        handlers = {WAKE: self._on_wake, TX_END: self._on_tx_end,
                    ACK_END: self._on_attempt_done,
                    TIMEOUT: self._on_attempt_done,
                    BACKOFF_END: self._on_backoff_end, BEACON: self._on_beacon,
                    CYCLE_START: self._on_cycle_start}
        next_event = self.queue.next
        duration_ns = self.duration_ns
        end = END_OF_SIM
        while True:
            event = next_event()
            if event.kind is end or event.time >= duration_ns:
                break
            handlers[event.kind](event)
        return self._build_report()

    # -- reporting ----------------------------------------------------------

    def _build_report(self) -> SimReport:
        duration_s = ns_to_seconds(self.duration_ns)
        rows = []
        for dev in self.devices:
            if self._drain(dev, self.duration_ns):
                dev.mark_rate(self.duration_ns)
            alive_ns = (dev.death_ns if dev.death_ns is not None
                        else self.duration_ns)
            alive_s = max(ns_to_seconds(alive_ns), 1e-12)
            if dev.mac == DCF:
                on_fraction = 1.0  # idle-listening: on whenever alive
            else:
                on_fraction = ns_to_seconds(dev.on_time_ns) / alive_s
            lifetime = self._lifetime(dev, on_fraction)
            rows.append(DeviceMetrics(
                device_id=str(dev.idx),
                mac=dev.mac,
                throughput_bps=dev.alpha * ns_to_seconds(
                    dev.tx_success * self.packet_ns) / duration_s,
                radio_on_fraction=on_fraction,
                lifetime_s=lifetime,
                tx_success=dev.tx_success,
                tx_collision=dev.tx_collision,
                assigned_rate_hz=dev.initial_rate,
                mean_effective_rate_hz=dev.rate_integral / alive_s,
            ))
        report = SimReport(mode=self.mode, seed=self.seed, devices=rows,
                           prng=PRNG_ID, duration_s=duration_s)
        return report.finalize()

    def _lifetime(self, dev: _Device, on_fraction: float) -> float:
        if dev.death_ns is not None:
            return ns_to_seconds(dev.death_ns)
        # Survived the run: extrapolate from the measured mean drain.
        return ns_to_seconds(self.duration_ns) + time_to_empty(
            dev.battery, dev.profile, on_fraction)


def renewal_violations(macs, topology: Topology) -> list[str]:
    """What stops the renewal engine from running ``macs`` on ``topology``.

    The engine models one collision domain of Life-Add devices; an empty
    list means it can run.
    """
    violations = []
    if any(m != LIFEADD for m in macs):
        violations.append("renewal mode requires every AP on lifeadd")
    if not topology.single_collision_domain:
        violations.append("renewal mode requires all devices within sensing "
                          "range of each other")
    return violations


def select_rates(topology: Topology, efficiencies, params: ContentionParams,
                 include=None) -> tuple[list[float | None], list]:
    """The rate plan: per-AP assignments, then each device's minimum.

    Every AP solves the assignment over the devices it hears, masked by
    ``include`` (all devices when None); a device adopts the smallest
    rate any of those assignments gives it, deferring to the most
    contended AP around it.  Returns ``(rates, per_ap)``: ``rates[d]`` is
    None for a device no AP includes, and ``per_ap[ap]`` is
    ``(members, assignment)`` or None when the AP includes no device.
    """
    rates: list[float | None] = [None] * topology.n_devices
    per_ap = []
    for ap in range(topology.n_aps):
        members = [d for d in topology.devices_heard_by(ap)
                   if include is None or include[d]]
        if not members:
            per_ap.append(None)
            continue
        assignment = assign_rates([efficiencies[d] for d in members], params)
        per_ap.append((members, assignment))
        for d, rate in zip(members, assignment.rates.rates.tolist()):
            if rates[d] is None or rate < rates[d]:
                rates[d] = rate
    return rates, per_ap


def run_config(config, seed: int | None = None, mode: str | None = None,
               mac_override: str | None = None, trace=None) -> SimReport:
    """Run a parsed scenario, optionally overriding seed, mode, or MAC."""
    topology = config.build_topology()
    report = Simulation(
        topology=topology,
        profiles=config.profiles(),
        alphas=config.alphas(),
        macs=config.device_macs(topology, mac_override),
        params=config.contention,
        duration_s=config.duration_s,
        seed=config.seed if seed is None else seed,
        mode=mode or config.mode,
        trace=trace,
    ).run()
    ids = config.device_ids()
    for i, row in enumerate(report.devices):
        row.device_id = ids[i]
    return report

