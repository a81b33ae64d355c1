"""Repeated position measurement of the averaged walk.

One measured step draws a time uniformly from [0, T], evolves the walker
from its current vertex for that long, and measures position.  Iterating
the step samples (approximately) from the averaged transition kernel, and
after enough steps from the limiting distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import check_step_count
from .dihedral import blocks, check_odd_order, check_vertex
from .walk import ROW_SUM_TOL, check_horizon, probability_row, probability_rows


@dataclass(frozen=True)
class SamplerConfig:
    """Inputs of a measured-walk run.

    horizon is the measurement window T, steps the number of measured
    steps per trial, trials the number of independent walks, and seed the
    root of the per-trial random streams.
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


def trial_rng(seed, trial) -> np.random.Generator:
    """Independent stream for one trial: child (trial,) of the root seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def single_measured_step(n, current, horizon, rng) -> int:
    """One measured step: draw t ~ U[0, horizon], then sample the position
    distribution of the walk run for time t by inverse CDF."""
    check_odd_order(n)
    check_vertex(n, current)
    check_horizon(horizon)
    t = rng.uniform(0.0, horizon)
    row = probability_row(n, current, t)
    total = row.sum()
    if not (abs(total - 1.0) <= ROW_SUM_TOL):
        raise RuntimeError(f"probability row sums to {total}, outside tolerance")
    u = rng.random() * total
    idx = int(np.searchsorted(np.cumsum(row), u, side="right"))
    return min(idx, 2 * n - 1)


def measured_walk(config: SamplerConfig, trial=0) -> int:
    """Final vertex of one walk of `config.steps` measured steps.

    Deterministic in (config.seed, trial); `empirical_check` reproduces it
    trial by trial.
    """
    rng = trial_rng(config.seed, trial)
    vertex = config.start_vertex
    for _ in range(config.steps):
        vertex = single_measured_step(config.n, vertex, config.horizon, rng)
    return vertex


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
    O(n + steps + BLOCK) for any trial count.  A measured step takes two
    doubles from its trial's stream, the time fraction and then the
    inverse-CDF uniform, so each trial draws all its steps at once;
    `horizon * u` is the value `rng.uniform(0, horizon)` returns for the
    same draw.  The batch thus reproduces `measured_walk(config, trial)`
    exactly for every trial.
    """
    n = config.n
    counts = np.zeros(2 * n, dtype=np.int64)
    for chunk in blocks(config.trials, 2 * max(n, config.steps)):
        draws = np.empty((chunk.stop - chunk.start, config.steps, 2))
        for trial, trial_draws in zip(range(chunk.start, chunk.stop), draws):
            trial_rng(config.seed, trial).random(out=trial_draws)
        current = np.full(len(draws), config.start_vertex, dtype=np.int64)
        for times, uniforms in zip(config.horizon * draws[:, :, 0].T, draws[:, :, 1].T):
            rows = probability_rows(n, current, times)
            totals = rows.sum(axis=1)
            if not (np.abs(totals - 1.0).max() <= ROW_SUM_TOL):
                raise RuntimeError("a probability row drifted away from total 1")
            cumulative = np.cumsum(rows, axis=1)
            current = np.minimum(
                (cumulative <= (uniforms * totals)[:, None]).sum(axis=1), 2 * n - 1
            ).astype(np.int64)
        counts += np.bincount(current, minlength=2 * n)
    return SampleHistogram(counts, config.trials)
