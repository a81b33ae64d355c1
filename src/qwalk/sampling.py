"""Repeated position measurement of the averaged walk.

One measured step draws a time uniformly from [0, T], evolves the walker
from its current vertex for that long, and measures position.  Iterating
the step samples (approximately) from the averaged transition kernel, and
after enough steps from the limiting distribution.  The measurement draws
a (flip, offset) cell of the P_t profile and moves the walker by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import check_step_count, half_uniform_distances
from .dihedral import blocks, cell_vertex, check_odd_order, check_vertex
from .walk import ROW_SUM_TOL, check_horizon, probability_profiles


@dataclass(frozen=True)
class SamplerConfig:
    """Inputs of a measured-walk run.

    horizon is the measurement window T, steps the number of measured
    steps per trial, trials the number of independent walks, and seed the
    root of the run's one random stream, PCG64(SeedSequence(seed)): trial
    k reads the 2 steps doubles that start at draw 2 steps k.
    """

    n: int
    start_vertex: int
    horizon: float
    steps: int
    trials: int
    seed: int

    def __post_init__(self):
        check_odd_order(self.n)
        check_vertex(self.n, self.start_vertex)
        check_horizon(self.horizon)
        check_step_count(self.steps)
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValueError(f"trial count must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


def trial_rng(seed, trial, steps) -> np.random.Generator:
    """The run's stream advanced to trial `trial`'s segment: PCG64 spends
    one 64-bit draw per double, so `advance` jumps 2 steps trial doubles.
    A negative jump would wrap to the end of the 2^128 stream, so `trial`
    must be a nonnegative integer."""
    if not isinstance(trial, (int, np.integer)) or trial < 0:
        raise ValueError(f"trial must be a nonnegative integer, got {trial!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)).advance(2 * steps * trial))


def _measured_step(n, horizon, draws) -> np.ndarray:
    """The (flip, offset) cells of len(draws) measurements: measurement k
    runs for time horizon draws[k, 0], and draws[k, 1] picks a cell of its
    P_t profile by inverse CDF in cell order, clamped to 2n - 1 as a uniform
    times the last CDF entry can round up to it.  P_t is invariant under the
    translations of Z_n x Z_2, so the cell does not depend on where the
    walker stands.  Every measurement goes through here."""
    cdf = np.cumsum(probability_profiles(n, horizon * draws[:, 0]).transpose(1, 2, 0).reshape(2 * n, -1), axis=0)
    drifted = ~(np.abs(cdf[-1] - 1.0) <= ROW_SUM_TOL)
    if drifted.any():
        raise RuntimeError(f"a probability profile sums to {cdf[-1, drifted][0]}, drifted away from 1")
    drawn = np.minimum((cdf <= draws[:, 1] * cdf[-1]).sum(axis=0), 2 * n - 1)
    return np.stack(np.divmod(drawn, n), axis=1)


def _walk(config, rng, trials) -> np.ndarray:
    """Endpoint counts over the 2n vertices of `trials` walks from
    `config.start_vertex` that read `rng` in order: walk k's step s is
    measured on the (time fraction, uniform) pair at draw 2 (steps k + s).

    The pairs are read as one flat stream, BLOCK doubles at a time, and
    measured in runs of about BLOCK / (4n) pairs that may cross from one
    walk into the next, so memory is O(n + BLOCK) for any steps and trials.
    A full run's P_t arrays are then half the size of a full block of
    draws: glibc's malloc sizes what it keeps by the largest block freed,
    so it keeps their pages from run to run, where runs as large as the
    draws were returned and faulted in again each time.  A walk ends at
    its start moved by the sum of its cells, flips mod 2 and offsets mod n;
    `carry` holds the sum of the walk a run leaves unfinished."""
    n, steps = config.n, config.steps
    counts = np.zeros(2 * n, dtype=np.int64)
    if not steps:
        counts[config.start_vertex] = trials
        return counts
    carry = 0
    for piece in blocks(steps * trials, 2):
        draws = rng.random((piece.stop - piece.start, 2))
        for run in blocks(len(draws), 4 * n):
            cells = _measured_step(n, config.horizon, draws[run])
            first, stop = piece.start + run.start, piece.start + run.stop
            # one segment per walk the run touches: a walk starts at each
            # multiple of steps, and a run that starts inside a walk finishes it
            head = -first % steps
            starts = np.arange(head, len(cells), steps)
            if head:
                starts = np.concatenate([[0], starts])
            sums = np.add.reduceat(cells, starts, axis=0)
            sums[0] += carry
            sums, carry = (sums[:-1], sums[-1] % (2, n)) if stop % steps else (sums, 0)
            ends = cell_vertex(n, config.start_vertex, sums[:, 0] % 2, sums[:, 1] % n)
            counts += np.bincount(ends, minlength=2 * n)
    return counts


def measured_walk(config: SamplerConfig, trial=0) -> int:
    """Final vertex of one walk of `config.steps` measured steps.

    Deterministic in (config.seed, trial); `empirical_check` reproduces it
    trial by trial.
    """
    return int(_walk(config, trial_rng(config.seed, trial, config.steps), 1).argmax())


@dataclass
class SampleHistogram:
    """Endpoint counts over the 2n vertices for a batch of trials."""

    counts: np.ndarray
    trials: int

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.trials

    @property
    def tv_to_uniform(self) -> float:
        n = self.counts.shape[0] // 2
        return float(half_uniform_distances(n, self.frequencies.reshape(2, n)))

    @property
    def stderr_envelope(self) -> float:
        """sqrt(2n / trials), the scale of the TV statistic's sampling noise."""
        return float(np.sqrt(self.counts.shape[0] / self.trials))


def empirical_check(config: SamplerConfig) -> SampleHistogram:
    """Histogram of the endpoints of `config.trials` independent walks.

    One generator serves the run: trial k owns the 2 steps doubles from
    draw 2 steps k, a (time fraction, inverse-CDF uniform) pair per step.
    The walker loop `_walk` reads them in order as one flat stream, in runs
    of about BLOCK / (4n) pairs, so memory is O(n + BLOCK) for any steps
    and trials, and the histogram does not depend on BLOCK.
    `measured_walk(config, trial)` runs the same loop on its own segment,
    on the same draws, so the batch reproduces it exactly for every trial.
    """
    counts = _walk(config, trial_rng(config.seed, 0, config.steps), config.trials)
    return SampleHistogram(counts, config.trials)
