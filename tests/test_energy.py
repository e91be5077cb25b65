import math

import pytest

from lifeadd.energy import (DeviceBudget, EnergyProfile, InfeasibleLifetime,
                            drain_power, energy_budget, joules_from_mah,
                            max_feasible_lifetime, time_to_empty)


def profile(**kw):
    defaults = dict(initial_energy=3600.0, battery_capacity=5000.0,
                    radio_on_power=1.0, base_power=0.3, recharge_rate=0.1)
    defaults.update(kw)
    return EnergyProfile(**defaults)


def test_mah_conversion_li_ion_default():
    # 1 mAh = 3.6 C, so 13.32 J at the 3.7 V default
    assert joules_from_mah(1.0) == pytest.approx(13.32)
    assert joules_from_mah(300.0) == pytest.approx(3996.0)
    assert joules_from_mah(100.0, voltage=5.0) == pytest.approx(1800.0)


def test_max_feasible_lifetime_hand_value():
    # 3600 J draining at 0.3 - 0.1 = 0.2 W lasts 18000 s
    assert max_feasible_lifetime(profile()) == pytest.approx(18000.0)


def test_max_feasible_lifetime_recharge_covers_base():
    assert max_feasible_lifetime(profile(recharge_rate=0.3)) == math.inf
    assert max_feasible_lifetime(profile(recharge_rate=0.5)) == math.inf


def test_max_feasible_lifetime_empty_battery():
    assert max_feasible_lifetime(profile(initial_energy=0.0)) == 0.0


@pytest.mark.parametrize("on_fraction, drain, lifetime", [
    (0.0, 0.2, 18000.0),    # 0.3 - 0.1
    (1.0, 1.2, 3000.0),     # 1.0 + 0.3 - 0.1
    (0.25, 0.45, 8000.0),   # 0.25 + 0.3 - 0.1
])
def test_drain_power_and_time_to_empty_hand_values(on_fraction, drain,
                                                   lifetime):
    p = profile()
    assert drain_power(p, on_fraction) == pytest.approx(drain)
    assert time_to_empty(3600.0, p, on_fraction) == pytest.approx(lifetime)


def test_time_to_empty_when_recharge_meets_or_beats_base():
    balanced = profile(recharge_rate=0.3)
    assert drain_power(balanced, 0.0) == 0.0
    assert time_to_empty(3600.0, balanced, 0.0) == math.inf
    # the radio alone still drains a balanced battery
    assert time_to_empty(3600.0, balanced, 1.0) == pytest.approx(3600.0)
    surplus = profile(recharge_rate=0.5)
    assert drain_power(surplus, 0.0) == pytest.approx(-0.2)
    assert time_to_empty(3600.0, surplus, 0.0) == math.inf
    assert time_to_empty(3600.0, surplus, 0.1) == math.inf


def test_time_to_empty_of_an_empty_battery_is_zero():
    assert time_to_empty(0.0, profile(), 0.25) == 0.0


def test_energy_budget_hand_value():
    # 3600/3600 + 0.1 - 0.3 = 0.8 W allowed; efficiency 0.8 at 1 W radio
    budget = energy_budget(profile(target_lifetime=3600.0))
    assert budget.allowed_radio_power == pytest.approx(0.8)
    assert budget.efficiency == pytest.approx(0.8)


def test_energy_budget_at_max_lifetime_is_zero():
    budget = energy_budget(profile(target_lifetime=18000.0))
    assert budget.allowed_radio_power == pytest.approx(0.0, abs=1e-12)
    assert budget.efficiency == pytest.approx(0.0, abs=1e-12)


def test_energy_budget_smartphone_profile():
    # 300 mAh at 3.7 V nominal with a 2 h target: 3996/7200 + 0.16 - 0.315
    p = EnergyProfile(initial_energy=joules_from_mah(300.0),
                      battery_capacity=joules_from_mah(1200.0),
                      radio_on_power=1.120, base_power=0.315,
                      recharge_rate=0.160, target_lifetime=7200.0)
    budget = energy_budget(p)
    assert budget.allowed_radio_power == pytest.approx(0.400)
    assert budget.efficiency == pytest.approx(0.400 / 1.120)


def test_energy_budget_infeasible_target():
    with pytest.raises(InfeasibleLifetime):
        energy_budget(profile(target_lifetime=18001.0))


def test_energy_budget_unconstrained_marker():
    budget = energy_budget(profile())
    assert budget.efficiency == 2.0


def test_on_fraction_at_budget_depletes_exactly_at_target():
    # Holding the radio on for exactly the budgeted fraction (a real
    # fraction only when the budget is below 1) exhausts the battery at
    # the target lifetime.
    for target in (3600.0, 9000.0, 17999.0):
        p = profile(target_lifetime=target)
        b = energy_budget(p).efficiency
        assert b <= 1.0
        assert time_to_empty(p.initial_energy, p, b) == pytest.approx(
            target)


def test_budget_monotonicity():
    targets = [600.0, 1200.0, 3600.0, 9000.0, 17000.0]
    effs = [energy_budget(profile(target_lifetime=t)).efficiency
            for t in targets]
    assert all(a >= b for a, b in zip(effs, effs[1:]))
    recharges = [0.0, 0.05, 0.1, 0.2, 0.29]
    effs = [energy_budget(profile(recharge_rate=r,
                                  target_lifetime=3600.0)).efficiency
            for r in recharges]
    assert all(a <= b for a, b in zip(effs, effs[1:]))


def test_profile_validation():
    with pytest.raises(ValueError):
        EnergyProfile(initial_energy=10.0, battery_capacity=5.0,
                      radio_on_power=1.0, base_power=0.1)
    with pytest.raises(ValueError):
        profile(radio_on_power=0.0)
    with pytest.raises(ValueError):
        profile(target_lifetime=-1.0)
    # NaN fails every comparison: a `<= 0` check let it through, and
    # energy_budget returned efficiency nan
    with pytest.raises(ValueError, match="target_lifetime must be > 0"):
        profile(target_lifetime=math.nan)
    with pytest.raises(ValueError):
        profile(base_power=-0.1)


@pytest.mark.parametrize("power", [math.nan, -1.0])
def test_device_budget_rejects_nan_or_negative_power(power):
    with pytest.raises(ValueError, match="allowed_radio_power must be >= 0"):
        DeviceBudget(allowed_radio_power=power, efficiency=0.5)
