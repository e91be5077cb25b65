"""Monte-Carlo simulation of the sleep-wake renewal cycle, vectorized.

Draws the residual sleep times of every device cycle by cycle and applies
the contention rules directly (first waker transmits; anyone waking within
the sensing window also transmits and collides).  This estimates the
per-cycle win and attempt probabilities and the airtime fractions without
using the closed forms, so it serves as an independent check of them.

Probabilities get binomial confidence bands; the time fractions are
renewal-reward ratios and get delta-method bands.

Cycles run in chunks of ``_CHUNK`` rows.  Rewards are summed over the
transmitting cells only, about one per cycle, instead of over dense
(cycles, devices) arrays that are almost all 0.0, and the sums are the
same bits: numpy reduces axis 0 of a C-ordered array with two or more
columns row by row, which is the order ``np.bincount`` adds its weights
in, and the skipped ``+ 0.0`` terms change nothing.  A lone column is
summed pairwise, so for one device the column is rebuilt and summed as
before.  The chunk size fixes the pairwise grouping of the cycle-length
sums, so changing it moves the ``mean_cycle`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import (ContentionParams, _as_rates, attempt_probability,
                       radio_on_fraction, success_probability,
                       success_time_fraction)

_CHUNK = 200_000


@dataclass
class RenewalEstimates:
    """Measured per-device metrics with one-sigma standard errors."""

    n_cycles: int
    win: np.ndarray            # per-cycle success probability
    win_sigma: np.ndarray
    attempt: np.ndarray        # per-cycle transmit probability
    attempt_sigma: np.ndarray
    success_fraction: np.ndarray   # successful airtime / elapsed
    success_fraction_sigma: np.ndarray
    on_fraction: np.ndarray        # (tx + ack/timeout) time / elapsed
    on_fraction_sigma: np.ndarray
    collision_fraction: float      # cycles with >= 2 transmitters
    mean_cycle: float


def _reward_sums(rows, cols, value, cycle, n: int) -> np.ndarray:
    """Column sums of ``R``, ``R * R`` and ``R * cycle[:, None]`` for the
    (m, n) reward array ``R`` that is ``value`` at the cells ``(rows, cols)``,
    given in row-major order, and 0.0 elsewhere; bit for bit what
    ``.sum(axis=0)`` of the dense arrays gives."""
    w = np.full(rows.size, value)
    terms = (w, w * w, w * cycle[rows])
    if n > 1:  # numpy adds the rows in order, as bincount does
        return np.array([np.bincount(cols, weights=t, minlength=n)
                         for t in terms])
    dense = np.zeros((cycle.size, 1))  # a lone column is summed pairwise
    sums = []
    for t in terms:
        dense[rows, 0] = t
        sums.append(dense.sum(axis=0))
    return np.array(sums)


def simulate_cycles(rates, params: ContentionParams, n_cycles: int,
                    seed: int) -> RenewalEstimates:
    """Run ``n_cycles`` renewal cycles and measure the four metrics."""
    r = _as_rates(rates)
    if params.sensing_time <= 0:
        raise ValueError("sensing_time must be > 0: with none, no device "
                         "transmits")
    n = r.size
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    ts = params.sensing_time
    packet = params.packet_time
    busy = params.busy_time

    win_count = np.zeros(n)
    attempt_count = np.zeros(n)
    collision_cycles = 0
    # Ratio-estimator accumulators: per-device reward sums, their squares
    # and cross terms against the cycle length, for the successful airtime
    # and the radio-on time.
    sum_c = 0.0
    sum_c2 = 0.0
    p_sums = np.zeros((3, n))
    on_sums = np.zeros((3, n))

    remaining = n_cycles
    while remaining > 0:
        m = min(remaining, _CHUNK)
        remaining -= m
        residual = rng.standard_exponential((m, n))
        residual /= r
        first = residual.min(axis=1)
        transmits = residual < (first + ts)[:, None]
        del residual  # the (m, n) arrays go before the next chunk's draw
        rows, cols = np.nonzero(transmits)
        del transmits
        success = np.bincount(rows, minlength=m) == 1
        won = success[rows]

        attempt_count += np.bincount(cols, minlength=n)
        win_count += np.bincount(cols[won], minlength=n)
        collision_cycles += m - int(np.count_nonzero(success))

        cycle = first + busy
        sum_c += cycle.sum()
        sum_c2 += (cycle * cycle).sum()
        p_sums += _reward_sums(rows[won], cols[won], packet, cycle, n)
        on_sums += _reward_sums(rows, cols, busy, cycle, n)

    m = float(n_cycles)
    win = win_count / m
    attempt = attempt_count / m
    win_sigma = np.sqrt(np.maximum(win * (1 - win), 0.0) / m)
    attempt_sigma = np.sqrt(np.maximum(attempt * (1 - attempt), 0.0) / m)

    mean_c = sum_c / m
    var_c = max(sum_c2 / m - mean_c**2, 0.0)

    def ratio_estimate(s_r, s_r2, s_rc):
        mean_r = s_r / m
        ratio = mean_r / mean_c
        var_r = np.maximum(s_r2 / m - mean_r**2, 0.0)
        cov_rc = s_rc / m - mean_r * mean_c
        resid_var = np.maximum(
            var_r - 2 * ratio * cov_rc + ratio**2 * var_c, 0.0)
        sigma = np.sqrt(resid_var / m) / mean_c
        return ratio, sigma

    p_hat, p_sigma = ratio_estimate(*p_sums)
    on_hat, on_sigma = ratio_estimate(*on_sums)

    return RenewalEstimates(
        n_cycles=n_cycles,
        win=win, win_sigma=win_sigma,
        attempt=attempt, attempt_sigma=attempt_sigma,
        success_fraction=p_hat, success_fraction_sigma=p_sigma,
        on_fraction=on_hat, on_fraction_sigma=on_sigma,
        collision_fraction=collision_cycles / m,
        mean_cycle=mean_c,
    )


@dataclass
class ValidationRow:
    metric: str
    device: int
    predicted: float
    measured: float
    sigma: float
    ok: bool

    @property
    def z(self) -> float:
        if self.sigma == 0:
            return 0.0 if self.measured == self.predicted else float("inf")
        return (self.measured - self.predicted) / self.sigma


def validate_against_formulas(rates, params: ContentionParams,
                              estimates: RenewalEstimates,
                              n_sigma: float = 3.0) -> list[ValidationRow]:
    """Compare measured metrics to the closed forms, one row per metric."""
    r = np.asarray(rates, dtype=float)
    predictions = {
        "win_probability": success_probability(r, params),
        "attempt_probability": attempt_probability(r, params),
        "success_time_fraction": success_time_fraction(r, params),
        "radio_on_fraction": radio_on_fraction(r, params),
    }
    measured = {
        "win_probability": (estimates.win, estimates.win_sigma),
        "attempt_probability": (estimates.attempt, estimates.attempt_sigma),
        "success_time_fraction": (estimates.success_fraction,
                                  estimates.success_fraction_sigma),
        "radio_on_fraction": (estimates.on_fraction,
                              estimates.on_fraction_sigma),
    }
    rows = []
    for metric, predicted in predictions.items():
        values, sigmas = measured[metric]
        for dev in range(r.size):
            delta = abs(values[dev] - predicted[dev])
            rows.append(ValidationRow(
                metric=metric, device=dev,
                predicted=float(predicted[dev]),
                measured=float(values[dev]),
                sigma=float(sigmas[dev]),
                ok=bool(delta <= n_sigma * sigmas[dev]),
            ))
    return rows
