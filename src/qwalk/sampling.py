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

from .classical import check_step_count
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


def _measured_step(n, current, horizon, draws):
    """Move each walker in `current` by one measurement: walker k's time is
    horizon draws[k, 0], and draws[k, 1] picks a cell of its P_t profile by
    inverse CDF in cell order, clamped to 2n - 1 as a uniform times the last
    CDF entry can round up to it.  Every measurement goes through here."""
    cdf = np.cumsum(probability_profiles(n, horizon * draws[:, 0]).reshape(-1, 2 * n), axis=1)
    drifted = ~(np.abs(cdf[:, -1] - 1.0) <= ROW_SUM_TOL)
    if drifted.any():
        raise RuntimeError(f"a probability profile sums to {cdf[drifted, -1][0]}, drifted away from 1")
    drawn = np.minimum((cdf <= (draws[:, 1] * cdf[:, -1])[:, None]).sum(axis=1), 2 * n - 1)
    return cell_vertex(n, current, *np.divmod(drawn, n))


def _walk(config, draws):
    """Endpoints of len(draws) walkers from `config.start_vertex`: at step s
    walker k is measured on the (time fraction, uniform) pair draws[k, s]."""
    current = np.full(len(draws), config.start_vertex, dtype=np.int64)
    for step in draws.transpose(1, 0, 2):
        current = _measured_step(config.n, current, config.horizon, step)
    return current


def measured_walk(config: SamplerConfig, trial=0) -> int:
    """Final vertex of one walk of `config.steps` measured steps.

    Deterministic in (config.seed, trial); `empirical_check` reproduces it
    trial by trial.
    """
    draws = trial_rng(config.seed, trial, config.steps).random((1, config.steps, 2))
    return int(_walk(config, draws)[0])


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
        size = self.counts.shape[0]
        return 0.5 * float(np.abs(self.frequencies - 1.0 / size).sum())

    @property
    def stderr_envelope(self) -> float:
        """sqrt(2n / trials), the scale of the TV statistic's sampling noise."""
        return float(np.sqrt(self.counts.shape[0] / self.trials))


def empirical_check(config: SamplerConfig) -> SampleHistogram:
    """Histogram of the endpoints of `config.trials` independent walks.

    Trials go in chunks of about BLOCK / (2 max(n, steps)), so memory is
    O(n + steps + BLOCK) for any trial count.  One generator serves the
    run: trial k owns the 2 steps doubles from draw 2 steps k, a (time
    fraction, inverse-CDF uniform) pair per step, so each chunk reads its
    trials' segments in one call and the histogram does not depend on
    BLOCK.  Each chunk runs the walker loop `_walk` that
    `measured_walk(config, trial)` runs on its own segment, on the same
    draws, so the batch reproduces it exactly for every trial.
    """
    n = config.n
    counts = np.zeros(2 * n, dtype=np.int64)
    rng = trial_rng(config.seed, 0, config.steps)
    for chunk in blocks(config.trials, 2 * max(n, config.steps)):
        draws = rng.random((chunk.stop - chunk.start, config.steps, 2))
        counts += np.bincount(_walk(config, draws), minlength=2 * n)
    return SampleHistogram(counts, config.trials)
