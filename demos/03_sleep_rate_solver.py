"""Sleep-rate assignment in both regimes of the energy budgets.

When the budgets sum to at least 1, there is slack to optimize: rates
are shares of an optimal total, with a water-filling cap so no device
exceeds its radio-on budget.  When they sum below 1, every budget binds
and the rates solve a linear fixed point exactly.
"""

import numpy as np

from lifeadd import (ContentionParams, assign_rates, energy_slack,
                     log_throughput_utility, optimality_bounds,
                     radio_on_fraction)

params = ContentionParams(sensing_time=4e-6, packet_time=0.9e-3,
                          ack_time=1e-4)

for budgets in ([0.2, 0.3, 0.9], [0.2, 0.3, 0.4]):
    a = assign_rates(budgets, params)
    print(f"budgets {budgets}  (sum {sum(budgets):.2f}) -> {a.case}")
    print(f"  water level c* = {a.c_star:.4f}, total rate y* = "
          f"{a.y_star:,.1f} 1/s")
    for i, rate in enumerate(a.rates.rates):
        capped = "capped at c*" if budgets[i] >= a.c_star else "budget-bound"
        print(f"  device {i}: rate {rate:9,.1f} 1/s  ({capped}), "
              f"predicted on-fraction "
              f"{radio_on_fraction(a.rates, params)[i]:.4f}")
    slack = energy_slack(a.rates, params, np.asarray(budgets))
    print(f"  budget slack per device: {np.round(slack, 4)}")
    lower, upper, gap = optimality_bounds(budgets, params)
    value = log_throughput_utility(a.rates, params)
    print(f"  utility {value:.4f} nats; optimum provably in "
          f"[{lower:.4f}, {upper:.4f}] (gap {gap:.4f})")
    print()
