"""Monte-Carlo simulation of the sleep-wake renewal cycle, vectorized.

Draws the residual sleep times of every device cycle by cycle and applies
the contention rules directly (first waker transmits; anyone waking within
the sensing window also transmits and collides).  This estimates the
per-cycle win and attempt probabilities and the airtime fractions without
using the closed forms, so it serves as an independent check of them.

Probabilities get binomial confidence bands; the time fractions are
renewal-reward ratios and get delta-method bands.

Cycles run in chunks of ``_CHUNK`` rows, each drawn in row blocks of
``_BLOCK`` rows; a block's draw, row minimum, transmit cells, counts and
rewards are done before the next is drawn, so only the chunk's (m,)
cycle lengths outlive a block.  The block size moves no bits: split
``standard_exponential`` draws concatenate to the single draw, and a row
minimum is exact in any order.  The chunk size fixes the pairwise
grouping of the cycle-length sums, so changing ``_CHUNK`` moves the
``mean_cycle`` bits.

Rewards are summed over the transmitting cells only, about one per cycle,
with ``np.bincount``, and give the same bits as ``.sum(axis=0)`` of the
dense (cycles, devices) arrays: numpy reduces axis 0 of a C-ordered array
with two or more columns row by row, which is the order ``np.bincount``
adds its weights in, and the skipped ``+ 0.0`` terms change nothing.
Each block's ``np.bincount`` takes the chunk's running per-device sums as
its first ``n`` weights, so every bin adds the same terms in the same
order as one call over the chunk (plain per-block sums added together
would not).  A lone column is summed pairwise, so for one device each
reward column is rebuilt over the whole chunk, from whether the device
sent in each cycle, and summed as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import (ContentionParams, _as_rates, attempt_probability,
                       radio_on_fraction, success_probability,
                       success_time_fraction)

_CHUNK = 200_000
_BLOCK = 8_192  # rows drawn at once; any size gives the same bits
N_SIGMA = 3.0   # a measured metric within this many sigmas passes


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
    # (rows 0-2) and the radio-on time (rows 3-5).
    sum_c = 0.0
    sum_c2 = 0.0
    reward_sums = np.zeros((6, n))
    lanes = np.arange(n)
    # One buffer pair for all chunks, so no chunk's outlives the next's.
    cycles = np.empty(min(n_cycles, _CHUNK))
    transmitted = np.empty(cycles.size, dtype=bool)

    remaining = n_cycles
    while remaining > 0:
        m = min(remaining, _CHUNK)
        remaining -= m
        cycle = cycles[:m]
        sent = transmitted[:m]  # n = 1: the cycles it transmits in
        chunk_sums = np.zeros((6, n))  # n >= 2: the running per-bin sums
        for start in range(0, m, _BLOCK):
            residual = rng.standard_exponential((min(_BLOCK, m - start), n))
            residual /= r
            first = cycle[start:start + residual.shape[0]]
            first[:] = residual[:, 0]
            for j in range(1, n):
                np.minimum(first, residual[:, j], out=first)
            window = first + ts
            # first + ts rounds to first when ts is below half an ulp of
            # it, and the first waker must still transmit
            np.nextafter(first, np.inf, out=window, where=window == first)
            rows, cols = divmod(np.flatnonzero(residual < window[:, None]), n)
            del residual  # free the draw before the next block's
            success = np.bincount(rows, minlength=first.size) == 1
            won = success[rows]
            attempt_count += np.bincount(cols, minlength=n)
            win_count += np.bincount(cols[won], minlength=n)
            collision_cycles += first.size - int(np.count_nonzero(success))
            if n == 1:  # a lone transmitter always succeeds
                sent[start:start + first.size] = success
                continue

            c = first[rows] + busy
            for k, keep, value in ((0, won, packet), (3, slice(None), busy)):
                at = cols[keep]
                terms = (np.full(at.size, value),
                         np.full(at.size, value * value), value * c[keep])
                at = np.concatenate((lanes, at))  # running sums go in first
                for s, t in zip(chunk_sums[k:k + 3], terms):
                    s[:] = np.bincount(at, weights=np.concatenate((s, t)),
                                       minlength=n)

        cycle += busy
        if n == 1:  # a lone column is summed pairwise, so over the chunk
            chunk_sums[:, 0] = [np.where(sent, t, 0.0).sum()
                                for v in (packet, busy)
                                for t in (v, v * v, v * cycle)]
        reward_sums += chunk_sums
        sum_c += cycle.sum()
        cycle *= cycle
        sum_c2 += cycle.sum()

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

    p_hat, p_sigma = ratio_estimate(*reward_sums[:3])
    on_hat, on_sigma = ratio_estimate(*reward_sums[3:])

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
                              estimates: RenewalEstimates
                              ) -> list[ValidationRow]:
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
                ok=bool(delta <= N_SIGMA * sigmas[dev]),
            ))
    return rows
