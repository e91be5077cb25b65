"""Asymmetric interference and what device collaboration does about it.

The near device corrupts receptions at the far device's AP, but not the
other way around.  Under plain CSMA the near device never loses and the
far one starves.  With collaboration, the near device also hears the far
AP's beacon, sees two contenders there, and adopts the slower rate the
crowd calls for; timeouts additionally damp the far device's rate.
"""

from lifeadd import parse_scenario
from lifeadd.mac import DCF, LIFEADD, REALISTIC, run_config

config = parse_scenario("scenarios/near_far_pair.json")

for label, mode, mac in (("sleep-wake + collaboration", None, LIFEADD),
                         ("idle-listening baseline", REALISTIC, DCF)):
    rep = run_config(config, seed=17, mode=mode, mac_override=mac)
    near, far = rep.devices
    print(label)
    print(f"  near device: {near.throughput_bps / 1e6:6.2f} Mbps "
          f"({near.tx_collision} collisions)")
    print(f"  far device:  {far.throughput_bps / 1e6:6.2f} Mbps "
          f"({far.tx_collision} collisions)")
    ratio = far.throughput_bps / near.throughput_bps
    print(f"  far/near throughput ratio {ratio:.2f}, "
          f"fairness index {rep.jain:.3f}")
    print()

print("the full 4-AP, 30-device comparison lives in "
      "scenarios/multi_ap_4x30.json:")
print("  lifeadd compare --scenario scenarios/multi_ap_4x30.json")
