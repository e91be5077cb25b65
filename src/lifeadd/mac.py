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

A device never has more than one device event (``WAKE``, ``BACKOFF_END``,
``TX_END``, ``ACK_END`` or ``TIMEOUT``) outstanding; the handlers rely on
it, so none of them checks for a stale or superseded event.

The topology's boolean matrices are copied once into nested Python lists,
together with, for each device and each AP, the DCF stations that sense
it; the per-event code indexes those rather than numpy.  Every channel
reader skips sources with ``end <= now``, so the active transmission list
is pruned only at a ``TX_END`` and the ACK list only at an ``ACK_END``.
A DCF station, which hears a source from its first nanosecond, reads no
list: ``busy_horizon_ns``, the latest end of any source it hears, rises
where a source keys up.  Sources start only at the current event time and
never end early, so its channel is busy until the horizon if that is later
than now, and idle otherwise.  The rule holds only for DCF readers.

Per-wake sensing inside a known-busy window is aggregated into one Poisson
draw for the wake count (each wake costs one sensing time of energy); the
first wake after the window is a fresh exponential by memorylessness, so
the aggregation is exact.

Each device draws from its own ``RandomStream``: doubles come in blocks
from the device's PCG64 stream, and every value equals the scalar
``Generator`` call's (``kernel`` states the rules that keep it so).
"""

from __future__ import annotations

from math import floor, inf, log
from dataclasses import dataclass, field

from .energy import EnergyProfile
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

LIFEADD = "lifeadd"
DCF = "dcf"
RENEWAL = "renewal"
REALISTIC = "realistic"
MACS = (LIFEADD, DCF)
MODES = (RENEWAL, REALISTIC)


@dataclass(frozen=True)
class DcfParams:
    slot_s: float = 20e-6
    difs_s: float = 50e-6
    cw_min: int = 31
    cw_max: int = 1023


@dataclass(slots=True)
class _Transmission:
    device: int
    ap: int
    start: int
    end: int
    # (other_device, other_start) for every transmission overlapping this
    # one; populated when either transmission starts.
    overlaps: list[tuple[int, int]] = field(default_factory=list)
    ack_overlap: bool = False   # own AP transmitted an ACK over this
    success: bool = False       # decided when the transmission ends


@dataclass(slots=True)
class _Ack:
    ap: int
    device: int
    start: int
    end: int


class _Device:
    """Mutable per-device simulation state and accounting."""

    def __init__(self, idx: int, mac: str, profile: EnergyProfile,
                 efficiency: float, alpha: float, stream: RandomStream):
        self.idx = idx
        self.mac = mac
        self.profile = profile
        self.drain_rate = profile.base_power - profile.recharge_rate
        if mac == DCF:  # idle-listening: always on
            self.drain_rate += profile.radio_on_power
        self.efficiency = efficiency
        self.alpha = alpha
        self.stream = stream
        self.alive = True
        self.battery = profile.initial_energy
        self.last_drain_ns = 0
        self.death_ns: int | None = None
        # sleep-wake state
        self.assigned_rate = 0.0
        self.initial_rate = 0.0
        self.congestion_factor = 1  # effective rate: assigned_rate / it
        self.current_tx: _Transmission | None = None
        # DCF state
        self.cw = 0
        self.residual_slots = 0
        self.countdown_start_ns = 0
        self.busy_horizon_ns = 0    # latest end of any source it hears
        # End of the running countdown; None while the station waits for
        # a busy channel to clear, after an interruption, or transmits.
        self.backoff_end_ns: int | None = None
        # accounting
        self.on_time_ns = 0         # radio on, sleep-wake only
        self.tx_success = 0
        self.tx_collision = 0
        self.success_air_ns = 0
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
                 efficiencies, alphas, macs: list[str],
                 params: ContentionParams, duration_s: float, seed: int,
                 mode: str = REALISTIC, dcf: DcfParams = DcfParams(),
                 packet_sampler=None, beacon_period_s: float = BEACON_PERIOD_S,
                 trace=None):
        self.topology = topology
        self.params = params
        self.mode = mode
        self.dcf = dcf
        self.seed = seed
        self.duration_ns = seconds_to_ns(duration_s)
        self.packet_sampler = packet_sampler
        self.beacon_period_ns = seconds_to_ns(beacon_period_s)
        self.trace = trace

        self.ts_ns = seconds_to_ns(params.sensing_time)
        self.packet_ns = seconds_to_ns(params.packet_time)
        self.ack_ns = seconds_to_ns(params.ack_time)
        self.slot_ns = seconds_to_ns(self.dcf.slot_s)
        self.difs_ns = seconds_to_ns(self.dcf.difs_s)

        self.queue = EventQueue()
        self.devices = [
            _Device(i, macs[i], profiles[i], float(efficiencies[i]),
                    float(alphas[i]), RandomStream(seed, i))
            for i in range(topology.n_devices)
        ]
        self.active_tx: list[_Transmission] = []
        self.active_acks: list[_Ack] = []
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

    def _drain(self, dev: _Device, now_ns: int) -> bool:
        """Apply wall-clock drain since the last update; return dev.alive."""
        if not dev.alive or now_ns <= dev.last_drain_ns:
            return dev.alive
        dt = (now_ns - dev.last_drain_ns) / NS_PER_S
        rate = dev.drain_rate
        level = dev.battery - rate * dt
        if level <= 0.0 and rate > 0:
            overshoot = -level
            self._kill(dev, now_ns - seconds_to_ns(overshoot / rate))
            return False
        cap = dev.profile.battery_capacity
        dev.battery = (level if 0.0 <= level <= cap
                       else min(max(level, 0.0), cap))
        dev.last_drain_ns = now_ns
        return True

    def _charge_radio(self, dev: _Device, now_ns: int, on_seconds: float,
                      window_start_ns: int | None = None) -> None:
        """Charge radio-on energy accrued up to now (sleep-wake only)."""
        if not self._drain(dev, now_ns):
            return
        dev.on_time_ns += floor(on_seconds * NS_PER_S + 0.5)
        dev.battery -= dev.profile.radio_on_power * on_seconds
        if dev.battery <= 0.0:
            # Died inside the charged window; place the death where the
            # combined drain crosses zero when the window is known.
            total = (dev.profile.radio_on_power + dev.profile.base_power
                     - dev.profile.recharge_rate)
            if window_start_ns is not None and total > 0:
                undershoot = -dev.battery
                self._kill(dev, max(window_start_ns,
                                    now_ns - seconds_to_ns(undershoot / total)))
            else:
                self._kill(dev, now_ns)

    def _kill(self, dev: _Device, death_ns: int) -> None:
        dev.death_ns = death_ns
        dev.mark_rate(death_ns)
        dev.battery = 0.0
        dev.alive = False
        self.membership_dirty = True
        self._emit_trace(death_ns, "dead", dev.idx, "")

    # -- channel --------------------------------------------------------

    def _begin_transmission(self, dev: _Device, now_ns: int) -> None:
        length = (self.packet_ns if self.packet_sampler is None
                  else seconds_to_ns(self.packet_sampler(dev)))
        tx = _Transmission(dev.idx, self.ap_of[dev.idx], now_ns,
                           now_ns + length)
        for other in self.active_tx:
            if other.end > now_ns:
                other.overlaps.append((dev.idx, now_ns))
                tx.overlaps.append((other.device, other.start))
        for ack in self.active_acks:
            if ack.ap == tx.ap and ack.end > now_ns:
                tx.ack_overlap = True
        self._interrupt_dcf_countdowns(
            now_ns, tx.end, self.dcf_sensing_device[dev.idx],
            self.slot_ns if dev.mac == DCF else self.ts_ns)
        self.active_tx.append(tx)
        dev.current_tx = tx
        self.queue.schedule(tx.end, TX_END, dev.idx)
        self._emit_trace(now_ns, "tx_start", dev.idx, "ap=", tx.ap)

    def _evaluate_transmission(self, tx: _Transmission) -> bool:
        """True when the AP decodes the packet (no qualifying interferer).

        Mutually-sensing transmitters collide when their starts fall in the
        same vulnerability window: the carrier-sensing time, widened to one
        backoff slot between two DCF stations (slotted countdowns tie at
        slot granularity, which a continuous-time model cannot reproduce
        with the bare sensing window).
        """
        dev = self.devices[tx.device]
        interferes = self.interferes_at
        senses = self.senses_device[tx.device]
        for other_dev, other_start in tx.overlaps:
            if not interferes[other_dev][tx.ap]:
                continue
            if not senses[other_dev]:
                return False  # hidden terminal
            window = (self.slot_ns if dev.mac == DCF
                      and self.devices[other_dev].mac == DCF
                      else self.ts_ns)
            if abs(other_start - tx.start) < window:
                return False
        return not tx.ack_overlap

    # -- sleep-wake device ---------------------------------------------

    def _on_wake(self, event: Event) -> None:
        """Transmit if the channel is sensed idle, else sleep through it.

        A source is sensed once it has been on for the sensing time.  The
        wakes in a busy window are aggregated (module docstring) and
        charged at its end, the anchor, which the next wake is drawn from.
        Inlined: ``_drain`` (a drain that does not kill leaves ``level >=
        0``), ``_charge_radio`` and ``RandomStream.exponential``.
        """
        dev, now_ns = self.devices[event.device], event.time
        if not dev.alive:
            return
        if now_ns > dev.last_drain_ns:
            drain = dev.drain_rate
            level = dev.battery - drain * ((now_ns - dev.last_drain_ns)
                                           / NS_PER_S)
            if level <= 0.0 and drain > 0:
                self._kill(dev, now_ns - seconds_to_ns(-level / drain))
                return
            cap = dev.profile.battery_capacity
            dev.battery = level if level <= cap else cap
            dev.last_drain_ns = now_ns
        heard = now_ns - self.ts_ns
        anchor = now_ns  # becomes the latest end of a sensed source
        senses = self.senses_device[dev.idx]
        for tx in self.active_tx:
            if tx.end > anchor and tx.start <= heard and senses[tx.device]:
                anchor = tx.end
        senses = self.senses_ap[dev.idx]
        for ack in self.active_acks:
            if (ack.end > anchor and ack.start <= heard and senses[ack.ap]
                    and ack.device != dev.idx):
                anchor = ack.end
        if anchor == now_ns:
            self._begin_transmission(dev, now_ns)
            return
        rate = dev.assigned_rate / dev.congestion_factor
        sensed_ns = now_ns + self.ts_ns
        extra = 0
        if anchor > sensed_ns:
            extra = dev.stream.poisson(rate * ((anchor - sensed_ns)
                                               / NS_PER_S))
        else:
            anchor = sensed_ns
        drain = dev.drain_rate  # anchor > now_ns >= dev.last_drain_ns
        level = dev.battery - drain * ((anchor - dev.last_drain_ns)
                                       / NS_PER_S)
        if level <= 0.0 and drain > 0:
            self._kill(dev, anchor - seconds_to_ns(-level / drain))
            return
        cap = dev.profile.battery_capacity
        dev.battery = level if level <= cap else cap
        dev.last_drain_ns = anchor
        on_seconds = (1 + extra) * self.params.sensing_time
        dev.on_time_ns += floor(on_seconds * NS_PER_S + 0.5)
        dev.battery -= dev.profile.radio_on_power * on_seconds
        if dev.battery <= 0.0:
            self._kill(dev, anchor)
            return
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        delay_ns = floor(-log(dev.stream.uniform()) / rate * NS_PER_S + 0.5)
        self.queue.schedule(anchor + delay_ns, WAKE, dev.idx)

    def _on_tx_end(self, event: Event) -> None:
        dev, now_ns = self.devices[event.device], event.time
        tx = dev.current_tx
        tx.success = self._evaluate_transmission(tx)
        if tx.success:
            ack = _Ack(tx.ap, dev.idx, now_ns, now_ns + self.ack_ns)
            self.active_acks.append(ack)
            for other in self.active_tx:
                if other is not tx and other.ap == tx.ap and other.end > now_ns:
                    other.ack_overlap = True
            self._interrupt_dcf_countdowns(
                now_ns, ack.end, self.dcf_sensing_ap[tx.ap], self.ts_ns, dev)
            self.queue.schedule(now_ns + self.ack_ns, ACK_END, dev.idx, tx.ap)
        else:
            self.queue.schedule(now_ns + self.ack_ns, TIMEOUT, dev.idx, tx.ap)
        self.active_tx = [t for t in self.active_tx if t.end > now_ns]
        self._emit_trace(now_ns, "tx_end", dev.idx, "")

    def _on_attempt_done(self, event: Event) -> None:
        """Shared ACK/timeout completion: energy, counters, next action."""
        dev, now_ns = self.devices[event.device], event.time
        tx = dev.current_tx
        dev.current_tx = None
        air_ns = tx.end - tx.start
        success = tx.success
        if success:
            # This attempt's ACK just ended.
            self.active_acks = [a for a in self.active_acks if a.end > now_ns]
            dev.tx_success += 1
            dev.success_air_ns += air_ns
        else:
            dev.tx_collision += 1
        if dev.mac == LIFEADD:
            self._charge_radio(
                dev, now_ns, (air_ns + self.ack_ns) / NS_PER_S,
                window_start_ns=tx.start)
            # dev.mark_rate, even after a death: an over-count goldens pin.
            dev.rate_integral += (dev.assigned_rate / dev.congestion_factor
                                  * ((now_ns - dev.rate_mark_ns) / NS_PER_S))
            dev.rate_mark_ns = now_ns
            if success:
                dev.congestion_factor = 1
            else:
                dev.congestion_factor = min(
                    dev.congestion_factor * 2, MAX_CONGESTION_FACTOR)
            self._emit_trace(now_ns, "ack" if success else "timeout",
                             dev.idx, "F=", dev.congestion_factor)
            if dev.alive:  # the next wake, as in _on_wake
                rate = dev.assigned_rate / dev.congestion_factor
                if rate <= 0:
                    raise ValueError(f"rate must be > 0, got {rate}")
                delay_ns = floor(-log(dev.stream.uniform()) / rate * NS_PER_S
                                 + 0.5)
                self.queue.schedule(now_ns + delay_ns, WAKE, dev.idx)
        else:
            self._drain(dev, now_ns)
            if success:
                dev.cw = self.dcf.cw_min
            else:
                dev.cw = min(2 * (dev.cw + 1) - 1, self.dcf.cw_max)
            dev.residual_slots = dev.stream.integers(0, dev.cw)
            self._emit_trace(now_ns, "ack" if success else "timeout",
                             dev.idx, "cw=", dev.cw)
            if dev.alive:
                self._dcf_decide(dev, now_ns)

    # -- DCF device -------------------------------------------------------

    def _interrupt_dcf_countdowns(self, now_ns: int, end_ns: int,
                                  listeners: list[_Device], blind_ns: int,
                                  skip: _Device | None = None) -> None:
        """Raise the DCF listeners' busy horizons to a keyed-up source's end
        and freeze their countdowns; ``skip`` is an ACK's own station.

        The slots completed before the interruption are consumed from the
        residual, as in binary exponential backoff.  A countdown ending
        inside the blind window keeps running (the station cannot detect
        the new source in time) and will usually produce a collision; the
        blind window is one slot between two DCF stations, since their
        post-busy countdowns share slot boundaries.
        """
        for other in listeners:
            if end_ns > other.busy_horizon_ns and other is not skip:
                other.busy_horizon_ns = end_ns
            if (not other.alive or other.backoff_end_ns is None
                    or other.backoff_end_ns < now_ns + blind_ns):
                continue
            elapsed = now_ns - (other.countdown_start_ns + self.difs_ns)
            consumed = max(0, elapsed) // self.slot_ns
            other.residual_slots = max(0, other.residual_slots - consumed)
            other.backoff_end_ns = None

    def _dcf_decide(self, dev: _Device, now_ns: int) -> None:
        if dev.busy_horizon_ns > now_ns:  # wait for the channel to clear
            dev.backoff_end_ns = None
            self.queue.schedule(dev.busy_horizon_ns, BACKOFF_END, dev.idx)
            return
        wait_ns = seconds_to_ns(self.dcf.difs_s
                                + dev.residual_slots * self.dcf.slot_s)
        dev.countdown_start_ns = now_ns
        dev.backoff_end_ns = now_ns + wait_ns
        self.queue.schedule(dev.backoff_end_ns, BACKOFF_END, dev.idx)

    def _on_backoff_end(self, event: Event) -> None:
        """The channel cleared or the countdown ran out: re-decide or send."""
        dev, now_ns = self.devices[event.device], event.time
        if not dev.alive:
            return
        if now_ns > dev.last_drain_ns:  # self._drain, inlined
            drain = dev.drain_rate
            level = dev.battery - drain * ((now_ns - dev.last_drain_ns)
                                           / NS_PER_S)
            if level <= 0.0 and drain > 0:
                self._kill(dev, now_ns - seconds_to_ns(-level / drain))
                return
            cap = dev.profile.battery_capacity  # level >= 0, as in _on_wake
            dev.battery = level if level <= cap else cap
            dev.last_drain_ns = now_ns
        if dev.backoff_end_ns is None:
            self._dcf_decide(dev, now_ns)
            return
        dev.backoff_end_ns = None
        self._begin_transmission(dev, now_ns)

    # -- beacons / rate control ------------------------------------------

    def _plan_rates(self) -> None:
        """Solve the rate plan over the alive Life-Add devices."""
        include = [d.alive and d.mac == LIFEADD for d in self.devices]
        self.planned_rates, self.ap_plans = select_rates(
            self.topology, [d.efficiency for d in self.devices], self.params,
            include)
        self.membership_dirty = False

    def _on_beacon(self, event: Event) -> None:
        """Re-plan after a death, then hand out the plan to the AP's devices.

        Every AP's beacons of one period share a timestamp and run back to
        back, so each device adopts its new rate before any other event.
        """
        ap, now_ns = event.ap, event.time
        if self.membership_dirty:
            self._plan_rates()
        for d in self.topology.devices_heard_by(ap):
            dev = self.devices[d]
            if (dev.alive and dev.mac == LIFEADD
                    and self.planned_rates[d] != dev.assigned_rate):
                dev.mark_rate(now_ns)
                dev.assigned_rate = self.planned_rates[d]
        self.queue.schedule(now_ns + self.beacon_period_ns, BEACON, ap=ap)

    # -- renewal-mode cycle engine ----------------------------------------

    def _on_cycle_start(self, event: Event) -> None:
        now_ns = event.time
        alive = [d for d in self.devices if d.alive]
        if not alive:
            return
        wakes = [floor(d.stream.exponential(
            d.assigned_rate / d.congestion_factor) * NS_PER_S + 0.5)
            for d in alive]  # seconds_to_ns, inlined
        first_ns = min(wakes)
        heard_ns = first_ns + self.ts_ns
        transmitters = [d for d, w in zip(alive, wakes) if w < heard_ns]
        success = len(transmitters) == 1
        busy_ns = self.packet_ns + self.ack_ns
        boundary = now_ns + first_ns + busy_ns

        for d in transmitters:
            if success:
                d.tx_success += 1
                d.success_air_ns += self.packet_ns
                self._emit_trace(now_ns + first_ns, "tx_start", d.idx, "ok")
            else:
                d.tx_collision += 1
                self._emit_trace(now_ns + first_ns, "tx_start", d.idx,
                                 "collision")
            self._charge_radio(d, boundary, busy_ns / NS_PER_S,
                               window_start_ns=now_ns + first_ns)
        for d, wake_ns in zip(alive, wakes):  # the others, all alive
            if wake_ns < heard_ns:
                continue
            if wake_ns >= first_ns + busy_ns:
                self._drain(d, boundary)
                continue
            window = (first_ns + busy_ns) - wake_ns
            extra = d.stream.poisson(
                d.assigned_rate / d.congestion_factor * (window / NS_PER_S))
            self._charge_radio(d, boundary,
                               (1 + extra) * self.params.sensing_time)
        if boundary < self.duration_ns and any(d.alive for d in self.devices):
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
                if dev.mac == LIFEADD:  # congestion factor 1
                    delay = dev.stream.exponential(dev.assigned_rate)
                    self.queue.schedule(seconds_to_ns(delay), WAKE, dev.idx)
                else:
                    dev.cw = self.dcf.cw_min
                    dev.residual_slots = dev.stream.integers(0, dev.cw)
                    self._dcf_decide(dev, 0)
            for ap in range(self.topology.n_aps):
                if self.ap_plans[ap] is not None:
                    self.queue.schedule(self.beacon_period_ns, BEACON, ap=ap)

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
                throughput_bps=dev.alpha * ns_to_seconds(dev.success_air_ns)
                / duration_s,
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
        net = (dev.profile.radio_on_power * on_fraction
               + dev.profile.base_power - dev.profile.recharge_rate)
        if net <= 0:
            return inf
        return ns_to_seconds(self.duration_ns) + dev.battery / net


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
        members = [int(d) for d in topology.devices_heard_by(ap)
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
        efficiencies=config.efficiencies(),
        alphas=config.alphas(),
        macs=config.device_macs(topology, mac_override),
        params=config.contention,
        duration_s=config.duration_s,
        seed=config.seed if seed is None else seed,
        mode=mode or config.mode,
        dcf=config.dcf,
        packet_sampler=config.packet_sampler(),
        beacon_period_s=config.beacon_period_s,
        trace=trace,
    ).run()
    ids = config.device_ids()
    for i, row in enumerate(report.devices):
        row.device_id = ids[i]
    return report

