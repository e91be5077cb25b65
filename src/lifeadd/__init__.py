"""Sleep-wake WiFi MAC toolkit.

Building blocks:

* energy: battery and lifetime-target budgets;
* formulas: closed-form renewal-cycle performance of the contention scheme;
* solver: the lifetime-constrained sleep-rate assignment and its
  optimality bounds, plus a brute-force oracle;
* kernel / topology / mac: a deterministic discrete-event simulator of the
  sleep-wake MAC and an idle-listening DCF baseline, single or multi-AP;
* renewal: vectorized Monte-Carlo of the renewal cycle for formula
  validation;
* scenario / report / cli: scenario files, metrics and the command line.
"""

# Set before the submodule imports: report reads it while the package is
# still initializing, and pyproject.toml reads it as the package version.
__version__ = "0.1.0"

from .energy import (DeviceBudget, EnergyProfile, InfeasibleLifetime,
                     battery_level, energy_budget, joules_from_mah,
                     max_feasible_lifetime)
from .formulas import (ContentionParams, RateVector, attempt_probability,
                       collision_probability, energy_slack,
                       log_throughput_utility, radio_on_fraction,
                       success_probability, success_time_fraction,
                       throughput)
from .kernel import (CausalityViolation, Event, EventKind, EventQueue,
                     RandomStream)
from .mac import run_config, select_rates
from .renewal import simulate_cycles, validate_against_formulas
from .report import (AllZero, SimReport, emit_report, jain_index,
                     total_utility)
from .scenario import (ParseError, ScenarioConfig, ValidationError,
                       parse_scenario)
from .solver import (DegenerateBudget, NoFeasiblePoint, OracleResult,
                     SleepRateAssignment, SubUnitRegime, assign_rates,
                     brute_force_oracle, optimal_total_rate,
                     optimality_bounds, water_filling_level)
from .topology import Ranges, Topology, UnassociatedDevice, build_topology
