"""Turn battery specs and a lifetime target into a radio-on budget.

A device that must survive its target lifetime can only let the WiFi
radio burn whatever the battery and recharge leave over after the base
load.  The leftover, expressed as a fraction of the radio's on-power, is
the target energy efficiency that drives the sleep-rate solver.
"""

from lifeadd import (EnergyProfile, drain_power, energy_budget,
                     joules_from_mah, max_feasible_lifetime)

phone = EnergyProfile(
    initial_energy=joules_from_mah(300),      # 300 mAh at 3.7 V nominal
    battery_capacity=joules_from_mah(1200),
    radio_on_power=1.120,                     # measured smartphone radio
    base_power=0.315,                         # CPU, screen, ...
    recharge_rate=0.160,                      # small solar panel
)

print(f"battery energy: {phone.initial_energy:.0f} J")
print(f"radio off, the device survives {max_feasible_lifetime(phone):.0f} s")
print()

print(f"{'target [s]':>10s} {'radio budget [W]':>17s} {'on-time fraction':>17s}")
for target in (3600, 7200, 10800, 18000):
    budget = energy_budget(EnergyProfile(
        phone.initial_energy, phone.battery_capacity, phone.radio_on_power,
        phone.base_power, phone.recharge_rate, target_lifetime=float(target)))
    print(f"{target:10d} {budget.allowed_radio_power:17.3f} "
          f"{budget.efficiency:17.3f}")

# Running the radio at exactly the budgeted fraction drains the battery
# exactly at the target.
target = 7200.0
profile = EnergyProfile(phone.initial_energy, phone.battery_capacity,
                        phone.radio_on_power, phone.base_power,
                        phone.recharge_rate, target_lifetime=target)
b = energy_budget(profile).efficiency
drain = drain_power(profile, b)
print()
print(f"holding the radio on {100 * b:.1f}% of the time drains "
      f"{drain:.3f} W net:")
for t in (0.25, 0.5, 0.75, 1.0):
    # at the target, rounding may leave a hair below 0 J
    level = max(profile.initial_energy - drain * t * target, 0.0)
    print(f"  at {t * target:7.0f} s the battery holds {level:8.1f} J")
