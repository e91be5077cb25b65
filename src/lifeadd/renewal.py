"""Monte-Carlo simulation of the sleep-wake renewal cycle, vectorized.

Draws the residual sleep times of every device cycle by cycle and applies
the contention rules directly (first waker transmits; anyone waking within
the sensing window also transmits and collides).  This estimates the
per-cycle win and attempt probabilities and the airtime fractions without
using the closed forms, so it serves as an independent check of them.

Probabilities get binomial confidence bands; the time fractions are
renewal-reward ratios and get delta-method bands.

Cycles run in chunks of ``_CHUNK`` rows.  A chunk's cycle lengths are
summed one leaf at a time: the chunk is halved by numpy's pairwise-sum
rule (``half = m // 2`` less ``half % 8``) down to leaves of at most
``_LEAF`` values, and the leaves' ``.sum()`` are added in tree order,
which is numpy's ``0.0 + pairwise(x)`` bit for bit for non-negative
terms.  numpy adds up to 128 values (its ``PW_BLOCKSIZE``) without
halving them, so the leaf bound is at least 128.  The chunk size fixes
the tree, so changing ``_CHUNK`` moves the ``mean_cycle`` bits.  Each
leaf is drawn in blocks of at most ``_CELLS`` (cycle, device) cells and
``_ROWS`` cycles, into buffers made once per call; a block's draw, row
minimum, transmit cells, counts and rewards are done before the next is
drawn.  The block size moves no bits: split ``standard_exponential``
draws concatenate to the single draw, and a row minimum is exact in any
order.  A block's transmit-cell index arrays hold about one entry per
cycle, so ``_ROWS`` keeps each under 64 KB, and glibc trims its heap only
when a chunk of 64 KB or more is freed: the blocks reuse the same pages
rather than fault them in again.

Each device's wins and sends are counted per chunk.  Four of the six
reward sums add a constant: the packet time and its square per win, the
busy time and its square per send.  A chunk's sum starts at 0.0 and adds
its constant once per count, in order, which is the running total of
``np.add.accumulate`` over that many copies of it, read at the count
(``_repeated_sums``, one pass per constant up to the call's largest
count).  The two sums against the cycle length c are added over the
transmitting cells only, about one per cycle, with ``np.add.at`` into
the chunk's per-device sums.  All six give the same bits as
``.sum(axis=0)`` of the dense (cycles, devices) arrays: numpy reduces
axis 0 of a C-ordered array with two or more columns row by row,
``np.add.at`` adds its terms in index order, block after block,
``np.add.accumulate`` adds in order too, and the skipped ``+ 0.0`` terms
change nothing.  A lone column is summed pairwise, not row by row, so
for one device, which sends and wins every cycle (the window always
holds its own wake), each reward column is built from the leaf's cycle
lengths and summed in their tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import (ContentionParams, _as_rates, attempt_probability,
                       radio_on_fraction, success_probability,
                       success_time_fraction)

_CHUNK = 200_000
_CELLS = 1 << 15  # (cycle, device) cells drawn at once; any size, same bits
_ROWS = 1 << 12   # and at most this many cycles: index arrays under 64 KB
_LEAF = 1 << 15   # cycle lengths summed at once; >= 128, numpy's PW_BLOCKSIZE
N_SIGMA = 3.0   # a measured metric within this many sigmas passes


def _pairwise(m: int, leaf_sum):
    """Add ``leaf_sum(size)`` over numpy's pairwise-sum tree of m values."""
    if m <= _LEAF:
        return leaf_sum(m)
    half = m // 2
    half -= half % 8
    return _pairwise(half, leaf_sum) + _pairwise(m - half, leaf_sum)


def _repeated_sums(value: float, counts: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
    """``0.0 + value + value + ...`` over each of ``counts`` terms, in order.

    One ``np.add.accumulate`` pass (sequential, where ``.sum()`` is
    pairwise) runs up to the largest count, ``scratch.size`` terms at a
    time, each total carried into the first term of the next; every count
    reads its sum on the way.
    """
    sums = np.zeros(counts.shape)
    total = 0.0
    end = int(counts.max())
    for start in range(0, end, scratch.size):
        terms = scratch[:min(scratch.size, end - start)]
        terms.fill(value)
        terms[0] += total
        np.add.accumulate(terms, out=terms)
        here = (counts > start) & (counts <= start + terms.size)
        sums[here] = terms[counts[here] - start - 1]
        total = terms[-1]
    return sums


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

    # Each chunk's per-device wins (row 0) and sends (row 1).
    counts = np.zeros((-(-n_cycles // _CHUNK), 2, n), dtype=np.int64)
    collision_cycles = 0
    # Ratio-estimator accumulators: per-device reward sums, their squares
    # and cross terms against the cycle length, for the successful airtime
    # (rows 0-2) and the radio-on time (rows 3-5).
    sum_c = 0.0
    sum_c2 = 0.0
    reward_sums = np.zeros((6, n))
    chunk_sums = np.empty((6, n))  # the same sums over one chunk
    block = max(1, min(_ROWS, _CELLS // n))  # rows drawn at once
    # One leaf-sized cycle-length buffer for every leaf of every chunk, and
    # one draw, wake-window and transmit-test buffer for every block.
    cycles = np.empty(min(n_cycles, _LEAF))
    draws = np.empty((min(block, cycles.size), n))
    windows = np.empty(draws.shape[0])
    sends = np.empty(draws.shape, dtype=bool)
    # Divide and compare down each device's column while a row of n cells
    # is too short an inner loop, else row by row; the bits are the same.
    order = "C" if n < 6 else "K"

    def leaf_sums(size: int) -> np.ndarray:
        """The next ``size`` cycles' sums of c, c**2 and n = 1 rewards."""
        nonlocal collision_cycles
        cycle = cycles[:size]
        for start in range(0, size, block):
            rows = min(block, size - start)
            residual = rng.standard_exponential(out=draws[:rows])
            np.divide(residual.T, r[:, None], out=residual.T, order=order)
            first = cycle[start:start + rows]
            first[:] = residual[:, 0]
            for j in range(1, n):
                np.minimum(first, residual[:, j], out=first)
            if n == 1:  # it sends and wins every cycle; rewards come below
                tally[:, 0] += rows
                continue

            window = np.add(first, ts, out=windows[:rows])
            # first + ts rounds to first when ts is below half an ulp of
            # it, and the first waker must still transmit
            np.nextafter(first, np.inf, out=window, where=window == first)
            sent = sends[:rows]
            np.less(residual.T, window, out=sent.T, order=order)
            cell = np.flatnonzero(sent)
            row = cell // n
            col = cell - row * n
            success = np.bincount(row, minlength=rows) == 1
            won = success[row]
            tally[0] += np.bincount(col[won], minlength=n)
            tally[1] += np.bincount(col, minlength=n)
            collision_cycles += rows - int(np.count_nonzero(success))

            c = first[row] + busy
            np.add.at(chunk_sums[2], col[won], packet * c[won])
            np.add.at(chunk_sums[5], col, busy * c)

        cycle += busy
        # a lone device sends and wins every cycle, and a lone column is
        # summed pairwise, so leaf by leaf as the lengths
        lone = [(v * np.broadcast_to(w, size)).sum() for v in (packet, busy)
                for w in (1.0, v, cycle)] if n == 1 else []
        total = cycle.sum()
        cycle *= cycle
        return np.array([total, cycle.sum(), *lone])

    remaining = n_cycles
    for tally in counts:
        m = min(remaining, _CHUNK)
        remaining -= m
        chunk_sums.fill(0.0)
        sums = _pairwise(m, leaf_sums)
        if n == 1:
            chunk_sums[:, 0] = sums[2:]
        reward_sums += chunk_sums
        sum_c += sums[0]
        sum_c2 += sums[1]
    if n > 1:  # the constant rewards, once per win or send of each chunk
        for k, v, tallies in ((0, packet, counts[:, 0]),
                              (1, packet * packet, counts[:, 0]),
                              (3, busy, counts[:, 1]),
                              (4, busy * busy, counts[:, 1])):
            for chunk_sum in _repeated_sums(v, tallies, cycles):
                reward_sums[k] += chunk_sum

    m = float(n_cycles)
    win, attempt = counts.sum(axis=0) / m
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
            predict, sigma = predicted[dev], sigmas[dev]
            if sigma == 0:  # a measured 0 or 1: use the prediction's band
                predict = min(max(predict, 0.0), 1.0)  # less its roundoff
                sigma = np.sqrt(predict * (1 - predict) / estimates.n_cycles)
            rows.append(ValidationRow(
                metric=metric, device=dev,
                predicted=float(predict),
                measured=float(values[dev]),
                sigma=float(sigma),
                ok=bool(abs(values[dev] - predict) <= N_SIGMA * sigma),
            ))
    return rows
