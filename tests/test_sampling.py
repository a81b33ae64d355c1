"""Measured-walk sampler: determinism, batching, and statistics.

The batched runner must reproduce the scalar walk trial by trial, since
both read the same per-trial random streams in the same order.
"""

import tracemalloc

import numpy as np
import pytest

from qwalk import dihedral, sampling, walk


def test_config_validation():
    good = sampling.SamplerConfig(n=5, start_vertex=0, horizon=10.0, steps=3, trials=4, seed=1)
    assert good.n == 5
    with pytest.raises(ValueError):
        sampling.SamplerConfig(n=4, start_vertex=0, horizon=10.0, steps=3, trials=4, seed=1)
    with pytest.raises(ValueError):
        sampling.SamplerConfig(n=5, start_vertex=10, horizon=10.0, steps=3, trials=4, seed=1)
    with pytest.raises(ValueError):
        sampling.SamplerConfig(n=5, start_vertex=0, horizon=0.0, steps=3, trials=4, seed=1)
    with pytest.raises(ValueError):
        sampling.SamplerConfig(n=5, start_vertex=0, horizon=10.0, steps=-1, trials=4, seed=1)
    with pytest.raises(ValueError):
        sampling.SamplerConfig(n=5, start_vertex=0, horizon=10.0, steps=3, trials=0, seed=1)
    with pytest.raises(ValueError):
        sampling.SamplerConfig(n=5, start_vertex=0, horizon=10.0, steps=3, trials=4, seed=1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        sampling.SamplerConfig(n=5, start_vertex=0, horizon=10.0, steps=3, trials=4, seed=-1)


def test_nan_row_trips_row_sum_guard(monkeypatch):
    monkeypatch.setattr(sampling, "probability_row", lambda n, i, t: np.full(2 * n, np.nan))
    monkeypatch.setattr(sampling, "probability_rows", lambda n, vs, ts: np.full((len(vs), 2 * n), np.nan))
    with pytest.raises(RuntimeError, match="sums to"):
        sampling.single_measured_step(5, 0, 10.0, sampling.trial_rng(0, 0))
    config = sampling.SamplerConfig(n=5, start_vertex=0, horizon=10.0, steps=2, trials=3, seed=0)
    with pytest.raises(RuntimeError, match="drifted"):
        sampling.empirical_check(config)


def test_trial_streams_are_independent_and_stable():
    first = sampling.trial_rng(123, 0).random(4)
    again = sampling.trial_rng(123, 0).random(4)
    other = sampling.trial_rng(123, 1).random(4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_measured_walk_deterministic():
    config = sampling.SamplerConfig(n=7, start_vertex=2, horizon=50.0, steps=5, trials=1, seed=99)
    results = [sampling.measured_walk(config, trial=3) for _ in range(3)]
    assert len(set(results)) == 1
    assert 0 <= results[0] < 14


def test_zero_steps_returns_start():
    config = sampling.SamplerConfig(n=5, start_vertex=7, horizon=50.0, steps=0, trials=1, seed=5)
    assert sampling.measured_walk(config) == 7


def test_tiny_horizon_keeps_walker_in_place():
    # at t <= 1e-12 the stay-put probability is 1 up to 1e-24
    rng = sampling.trial_rng(0, 0)
    for _ in range(20):
        assert sampling.single_measured_step(5, 3, 1e-12, rng) == 3


def test_batched_check_reproduces_scalar_walk():
    config = sampling.SamplerConfig(n=5, start_vertex=0, horizon=30.0, steps=4, trials=12, seed=42)
    hist = sampling.empirical_check(config)
    scalar_counts = np.zeros(10, dtype=int)
    for trial in range(config.trials):
        scalar_counts[sampling.measured_walk(config, trial)] += 1
    assert np.array_equal(hist.counts, scalar_counts)
    assert hist.trials == 12


@pytest.mark.parametrize("buffer", [24, 72])
def test_batched_check_crosses_draw_blocks(monkeypatch, buffer):
    # 12 trials of 4 steps at n = 5: BLOCK 24 walks them in chunks of 2
    # trials, BLOCK 72 in chunks of 7 and then 5
    config = sampling.SamplerConfig(n=5, start_vertex=0, horizon=30.0, steps=4, trials=12, seed=42)
    expected = sampling.empirical_check(config).counts
    monkeypatch.setattr(dihedral, "BLOCK", buffer)
    assert np.array_equal(sampling.empirical_check(config).counts, expected)


def test_batched_check_in_small_memory():
    """Trials are walked in chunks: O(n + steps + BLOCK) memory, not the
    O(trials n) of rows for every trial at once (255 MiB here)."""
    config = sampling.SamplerConfig(n=1001, start_vertex=0, horizon=100.0, steps=2, trials=3000, seed=0)
    tracemalloc.start()
    try:
        hist = sampling.empirical_check(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.counts.sum() == 3000
    assert peak <= 32 * 2**20


def test_histogram_statistics():
    counts = np.array([4, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    hist = sampling.SampleHistogram(counts=counts, trials=4)
    assert hist.frequencies.sum() == pytest.approx(1.0)
    assert hist.tv_to_uniform == pytest.approx(0.5 * (0.9 + 9 * 0.1))
    assert hist.stderr_envelope == pytest.approx(np.sqrt(10.0 / 4.0))


def test_seed_changes_distribution_draws():
    base = sampling.SamplerConfig(n=7, start_vertex=0, horizon=100.0, steps=3, trials=200, seed=1)
    other = sampling.SamplerConfig(n=7, start_vertex=0, horizon=100.0, steps=3, trials=200, seed=2)
    h1 = sampling.empirical_check(base)
    h2 = sampling.empirical_check(other)
    assert not np.array_equal(h1.counts, h2.counts)
    assert h1.counts.sum() == h2.counts.sum() == 200


def test_one_step_kernel_tracks_averaged_row():
    n = 5
    horizon = 30.0
    config = sampling.SamplerConfig(n=n, start_vertex=0, horizon=horizon, steps=1, trials=20000, seed=13)
    hist = sampling.empirical_check(config)
    kernel = walk.averaged_matrix(n, horizon).row(0)
    tv = 0.5 * float(np.abs(hist.frequencies - kernel).sum())
    assert tv <= 0.05


def test_endpoint_distribution_forgets_start():
    common = dict(n=5, horizon=500.0, steps=12, trials=4000, seed=7)
    h_a = sampling.empirical_check(sampling.SamplerConfig(start_vertex=0, **common))
    h_b = sampling.empirical_check(sampling.SamplerConfig(start_vertex=8, **common))
    tv = 0.5 * float(np.abs(h_a.frequencies - h_b.frequencies).sum())
    assert tv <= 0.1
