"""The lifetime knob: raise the target, live longer, send less.

Three identical battery-powered devices share one AP.  Sweeping the
target lifetime re-solves the sleep rates; the measured lifetime tracks
the target while throughput pays for it.  The idle-listening baseline
cannot trade at all: its lifetime is pinned by the always-on radio.
"""

import dataclasses

from lifeadd import parse_scenario
from lifeadd.mac import DCF, LIFEADD, REALISTIC, run_config

base = parse_scenario("scenarios/single_ap_lifetime.json")

def while_alive_mbps(report):
    """Mean throughput over each device's own lifetime, not the window."""
    rates = [d.throughput_bps * report.duration_s / d.lifetime_s
             for d in report.devices]
    return sum(rates) / len(rates) / 1e6


print(f"{'target [s]':>10s} {'measured lifetime [s]':>22s} "
      f"{'while-alive throughput [Mbps]':>30s}")
for target in (45.0, 72.0, 108.0):
    devices = [dataclasses.replace(
        d, energy=dataclasses.replace(d.energy, target_lifetime=target))
        for d in base.devices]
    config = dataclasses.replace(base, devices=devices)
    rep = run_config(config, seed=11, mode=REALISTIC, mac_override=LIFEADD)
    lifetime = min(d.lifetime_s for d in rep.devices)
    print(f"{target:10.0f} {lifetime:22.1f} {while_alive_mbps(rep):30.3f}")

baseline = run_config(base, seed=11, mode=REALISTIC, mac_override=DCF)
lifetime = min(d.lifetime_s for d in baseline.devices)
print(f"{'baseline':>10s} {lifetime:22.1f} "
      f"{while_alive_mbps(baseline):30.3f}   (any target)")
