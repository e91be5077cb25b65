"""Sleep-rate assignment maximizing proportional-fair throughput.

Splits on the total target energy efficiency of the contenders:

* super-unit (sum of efficiencies >= 1): rates are shares of an optimal
  total rate, capped per device by a water-filling level so the radio-on
  constraints hold;
* sub-unit (sum < 1): every energy constraint binds and the rates solve a
  linear fixed point exactly.

Also provides the analytic optimality bounds for the assignment and a
grid-search oracle that maximizes the true (non-relaxed) problem for
small device counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formulas import ContentionParams, RateVector, log_throughput_utility

SUPER_UNIT = "super_unit"
SUB_UNIT = "sub_unit"

MAX_GRID_POINTS = 10_000_000  # cap on the oracle's grid_resolution ** n
_GRID_BLOCK = 1 << 17         # oracle grid points evaluated at once


class SubUnitRegime(ValueError):
    """Efficiencies sum below 1; the water-filling split does not apply."""


class DegenerateBudget(ValueError):
    """A zero efficiency would force a zero rate and minus-infinite utility."""


class NoFeasiblePoint(RuntimeError):
    """Every oracle grid point violates the radio-on constraints."""


@dataclass(frozen=True)
class SleepRateAssignment:
    """Solver output: regime tag, water level, total rate and per-device rates.

    Every rate equals min(efficiency, c_star) * y_star.
    """

    case: str
    c_star: float
    y_star: float
    rates: RateVector


def _validated_budgets(efficiencies, allow_zero: bool = False) -> np.ndarray:
    b = np.asarray(efficiencies, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("efficiencies must be a non-empty 1-D vector")
    if not np.all(np.isfinite(b)) or np.any(b < 0):
        raise ValueError("efficiencies must be finite and >= 0")
    if not allow_zero and np.any(b == 0):
        raise DegenerateBudget(
            f"devices {np.flatnonzero(b == 0).tolist()} have zero energy "
            "budget; exclude them or raise their lifetime target")
    return b


def water_filling_level(efficiencies) -> float:
    """Common cap c such that sum(min(b_i, c)) == 1, solved exactly.

    The map c -> sum(min(b_i, c)) is piecewise linear and nondecreasing
    with breakpoints at the b_i, so the root is found by sorting the
    breakpoints and solving the linear segment that brackets 1.  No
    iteration, no tolerance.

    Raises:
        SubUnitRegime: sum(b) < 1, where no solution exists.
    """
    b = _validated_budgets(efficiencies, allow_zero=True)
    if b.sum() < 1.0:
        raise SubUnitRegime(
            f"sum of efficiencies {b.sum():.6g} < 1; every budget binds")
    s = np.sort(b)
    n = s.size
    prefix = 0.0  # sum of breakpoints below the current segment
    for j in range(n):
        # On segment [s[j-1], s[j]]: sum(min) = prefix + (n - j) * c.
        c = (1.0 - prefix) / (n - j)
        if c <= s[j] + 1e-15:
            return c
        prefix += s[j]
    # sum(b) == 1 exactly: any c >= max(b) works; return the smallest.
    return float(s[-1])


def optimal_total_rate(n_devices: int, params: ContentionParams) -> float:
    """Total sleep rate maximizing the utility for the super-unit regime.

    Balances the idle-time loss of a low total rate against the collision
    loss of a high one; the stationary point of the one-dimensional
    objective has a closed form.  For a single device the collision term
    vanishes and the objective keeps increasing, so the divisor that would
    be n-1 is floored at 1 to return a finite, near-optimal rate.
    """
    if n_devices < 1:
        raise ValueError("n_devices must be >= 1")
    if params.sensing_time <= 0:
        raise ValueError("sensing_time must be > 0 to solve for the total rate")
    lt = params.busy_time
    nm1 = max(n_devices - 1, 1)
    disc = 1.0 + 4.0 * n_devices * lt / (nm1 * params.sensing_time)
    return (-1.0 + math.sqrt(disc)) / (2.0 * lt)


def assign_rates(efficiencies, params: ContentionParams) -> SleepRateAssignment:
    """Full assignment procedure: regime split, (c*, y*), per-device rates.

    Sub-unit, all radio-on constraints bind: the unique fixed point of
    ``rate_n = b_n * (sum(rates) + 1/busy_time)`` is
    ``rate_n = b_n / (busy_time * (1 - sum(b)))``, that is a water level
    of 1 and a total-rate parameter of ``1 / (busy_time * (1 - sum(b)))``.
    """
    b = _validated_budgets(efficiencies)
    total = b.sum()
    if total >= 1.0:
        c_star = water_filling_level(b)
        y_star = optimal_total_rate(b.size, params)
        rates = RateVector(np.minimum(b, c_star) * y_star)
        return SleepRateAssignment(SUPER_UNIT, c_star, y_star, rates)
    y_star = 1.0 / (params.busy_time * (1.0 - total))
    return SleepRateAssignment(SUB_UNIT, 1.0, y_star, RateVector(b * y_star))


def optimality_bounds(efficiencies, params: ContentionParams
                      ) -> tuple[float, float, float]:
    """(lower, upper, gap) bracketing the relaxed problem's optimum, in nats.

    The assignment achieves the lower bound; the upper bound drops the
    idle and collision losses entirely, so the gap
    ``n*log(1 + 1/(y* busy)) + (n-1) y* t_s`` vanishes as the sensing
    ratio goes to zero.  In the sub-unit regime the assignment is exactly
    optimal and the gap is zero.
    """
    b = _validated_budgets(efficiencies)
    n = b.size
    lt = params.busy_time
    assignment = assign_rates(b, params)
    if assignment.case == SUB_UNIT:
        value = log_throughput_utility(assignment.rates, params)
        return value, value, 0.0
    y_star = assignment.y_star
    shared = n * math.log(params.packet_time / lt) + float(
        np.log(np.minimum(b, assignment.c_star)).sum())
    gap = (n * math.log1p(1.0 / (y_star * lt))
           + (n - 1) * y_star * params.sensing_time)
    upper = shared
    lower = shared - gap
    return lower, upper, gap


@dataclass(frozen=True)
class OracleResult:
    """Best grid point of the true problem, with grid-resolution context."""

    rates: np.ndarray
    objective: float
    cell_span: float       # objective variation across the winning cell
    at_boundary: bool      # best point sits on the grid edge


def _axis_terms(axis: np.ndarray, ts: float) -> tuple[np.ndarray, ...]:
    """Per-value factors of the objective along one device's axis:
    r, log r, 1 - exp(-r ts) and exp(-r ts) r."""
    ert = np.exp(-axis * ts)
    return axis, np.log(axis), 1.0 - ert, ert * axis


def _grid_objective(terms, params: ContentionParams,
                    b: np.ndarray) -> np.ndarray:
    """True-constraint objective over the broadcast product of the devices'
    ``_axis_terms``; -inf where infeasible.

    Sums over devices run in device order, ``((r0 + r1) + r2) + ...``, the
    order in which numpy adds the rows of a (points, n) array.
    """
    n = len(terms)
    ts = params.sensing_time
    lt = params.busy_time
    y, log_sum = terms[0][:2]
    for r, log_r, _, _ in terms[1:]:
        y = y + r
        log_sum = log_sum + log_r
    total = y + 1.0 / lt
    # Full-size arrays are reused in place; each step keeps the operands
    # and rounding of ``((1 - ert) * y + ert * r) / total <= b`` and of
    # ``log_sum - n * log(total) - (n - 1) * y * ts + const``.
    on = np.empty_like(total)
    infeasible = np.zeros(total.shape, dtype=bool)
    for d, (_, _, one_minus_ert, ert_r) in enumerate(terms):
        np.multiply(one_minus_ert, y, out=on)
        on += ert_r
        on /= total
        infeasible |= on > b[d]
    obj = np.log(total, out=on)
    obj *= n
    np.subtract(log_sum, obj, out=obj)
    idle = np.multiply(y, n - 1, out=total)
    idle *= ts
    obj -= idle
    obj += n * math.log(params.packet_time / lt)
    obj[infeasible] = -np.inf
    return obj


def _best_on_axes(axes: list[np.ndarray], params: ContentionParams,
                  b: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Exhaustive search over the cartesian product of per-device axes.

    Each block is a (rows, cols) grid of at most ``_GRID_BLOCK`` points:
    the index tuples of the trailing axes ``k..`` run along the columns,
    those of the leading axes ``..k`` along the rows, in row-major order,
    with ``k >= 1`` the fewest leading axes that let one row fit.  The
    first maximum in row-major order wins, so ties go to the
    lexicographically smallest index.
    """
    n = len(axes)
    sizes = [a.size for a in axes]
    terms = [_axis_terms(a, params.sensing_time) for a in axes]
    k = 1
    while math.prod(sizes[k:]) > _GRID_BLOCK:
        k += 1
    tail = math.prod(sizes[k:])
    lead = math.prod(sizes[:k])
    step = _GRID_BLOCK // tail
    tail_index = np.unravel_index(np.arange(tail), sizes[k:]) if k < n else ()
    cols = [[t[i] for t in terms[d]] for d, i in zip(range(k, n), tail_index)]
    best_obj = -np.inf
    best_flat = None
    for start in range(0, lead, step):
        lead_index = np.unravel_index(
            np.arange(start, min(start + step, lead)), sizes[:k])
        rows = [[t[i, None] for t in terms[d]]
                for d, i in enumerate(lead_index)]
        obj = _grid_objective(rows + cols, params, b).ravel()
        j = int(np.argmax(obj))
        if obj[j] > best_obj:
            best_obj = float(obj[j])
            best_flat = start * tail + j
    if best_flat is None:
        raise NoFeasiblePoint("no grid point satisfies the radio-on constraints")
    index = np.array(np.unravel_index(best_flat, sizes))
    rates = np.array([a[i] for a, i in zip(axes, index)])
    return rates, best_obj, index


def brute_force_oracle(efficiencies, params: ContentionParams,
                       grid_resolution: int = 50) -> OracleResult:
    """Estimate the true optimum by log-spaced grid search plus refinement.

    Maximizes the utility under the exact radio-on constraints (not the
    relaxation) over ``grid_resolution`` points per device spanning
    [1, 10 * y*], then re-grids the cell around the winner once at the
    same resolution.  Each search evaluates all ``grid_resolution ** n``
    points, in blocks of at most ``_GRID_BLOCK`` (2**17) points, so memory
    stays a few MB; ``grid_resolution ** n`` above ``MAX_GRID_POINTS``
    (10 million; 50**4 is 6.25 million) is refused before any work.  At
    n = 3 and the default resolution one call takes about 10 ms.
    """
    b = _validated_budgets(efficiencies)
    n = b.size
    if grid_resolution < 50:
        raise ValueError("grid_resolution must be >= 50")
    if grid_resolution ** n > MAX_GRID_POINTS:
        raise ValueError(
            f"grid_resolution ** n = {grid_resolution}**{n} exceeds the "
            f"oracle's cap of {MAX_GRID_POINTS} grid points")
    scale = assign_rates(b, params).y_star
    lo, hi = 1.0, 10.0 * scale
    axes = [np.logspace(math.log10(lo), math.log10(hi), grid_resolution)
            for _ in range(n)]
    rates, obj, index = _best_on_axes(axes, params, b)

    at_boundary = bool(np.any(index == 0)
                       or np.any(index == grid_resolution - 1))
    refined_axes = []
    for d in range(n):
        axis = axes[d]
        k = index[d]
        a_lo = axis[max(k - 1, 0)]
        a_hi = axis[min(k + 1, axis.size - 1)]
        refined_axes.append(
            np.logspace(math.log10(a_lo), math.log10(a_hi), grid_resolution))
    r_rates, r_obj, r_index = _best_on_axes(refined_axes, params, b)
    if r_obj >= obj:
        rates, obj, index = r_rates, r_obj, r_index

    # Objective variation across one refined cell around the winner, used
    # as the resolution allowance when comparing against analytic bounds.
    span = 0.0
    for d in range(n):
        axis = refined_axes[d]
        k = min(int(r_index[d]), axis.size - 1)
        for nb in (k - 1, k + 1):
            if 0 <= nb < axis.size:
                probe = rates.copy()
                probe[d] = axis[nb]
                val = _grid_objective(
                    [_axis_terms(probe[e:e + 1], params.sensing_time)
                     for e in range(n)], params, b)[0]
                if math.isfinite(val):
                    span = max(span, abs(obj - val))
    return OracleResult(rates, obj, span, at_boundary)
