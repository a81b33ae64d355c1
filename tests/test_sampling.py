"""Measured-walk sampler: determinism, batching, and statistics.

A run reads one PCG64(SeedSequence(seed)) stream: trial k owns the
2 steps doubles from draw 2 steps k.  The batched runner reads the stream
in trial order, in runs of (time fraction, uniform) pairs that may cross
from one trial into the next, and the scalar walk jumps to its trial's
segment with `advance`; both run one walker loop on those draws, so the
two agree trial by trial.  Their histograms are tested against the exact
law of the measured walk.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from qwalk import dihedral, sampling, walk

import oracles


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
    # both paths draw from P_t's factors, so NaN factors must trip them
    monkeypatch.setattr(
        sampling, "probability_factors", lambda n, ts: (np.full((2, len(ts)), np.nan), np.full((len(ts), n), np.nan))
    )
    config = sampling.SamplerConfig(n=5, start_vertex=0, horizon=10.0, steps=2, trials=3, seed=0)
    with pytest.raises(RuntimeError, match="sums to"):
        sampling.measured_walk(config)
    with pytest.raises(RuntimeError, match="drifted"):
        sampling.empirical_check(config)


def test_trial_streams_are_independent_and_stable():
    first = sampling.trial_rng(123, 0, 2).random(4)
    again = sampling.trial_rng(123, 0, 2).random(4)
    other = sampling.trial_rng(123, 1, 2).random(4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


@pytest.mark.parametrize("seed, trial, steps", [(0, 0, 1), (123, 1, 2), (7, 5, 3)])
def test_trial_segment_is_a_slice_of_the_run_stream(seed, trial, steps):
    # `advance` counts 64-bit draws, so this pins one draw per double
    run = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).random(2 * steps * (trial + 1))
    assert np.array_equal(sampling.trial_rng(seed, trial, steps).random(2 * steps), run[-2 * steps:])


def test_measured_walk_deterministic():
    config = sampling.SamplerConfig(n=7, start_vertex=2, horizon=50.0, steps=5, trials=1, seed=99)
    results = [sampling.measured_walk(config, trial=3) for _ in range(3)]
    assert len(set(results)) == 1
    assert 0 <= results[0] < 14


@pytest.mark.parametrize("trial", [-1, 2.5])
def test_trial_rng_rejects_a_bad_trial(trial):
    # the check sits where the stream is advanced, so every caller gets it
    with pytest.raises(ValueError, match="trial must be a nonnegative integer"):
        sampling.trial_rng(0, trial, 3)


@pytest.mark.parametrize("trial", [-1, 2.5])
def test_measured_walk_rejects_a_bad_trial(trial):
    # a negative jump would wrap to the end of the 2^128 stream, a segment
    # no run reads
    config = sampling.SamplerConfig(n=7, start_vertex=2, horizon=50.0, steps=5, trials=1, seed=99)
    with pytest.raises(ValueError, match="trial must be a nonnegative integer"):
        sampling.measured_walk(config, trial)


def test_zero_steps_returns_start():
    # no pair is drawn, so no run is cut: every trial ends where it starts
    config = sampling.SamplerConfig(n=5, start_vertex=7, horizon=50.0, steps=0, trials=3, seed=5)
    assert sampling.measured_walk(config) == 7
    assert sampling.measured_walk(config, trial=2) == 7
    assert np.array_equal(sampling.empirical_check(config).counts, np.eye(10, dtype=int)[7] * 3)


def test_tiny_horizon_keeps_walker_in_place():
    # at t <= 1e-12 the stay-put probability is 1 up to 1e-24
    config = sampling.SamplerConfig(n=5, start_vertex=3, horizon=1e-12, steps=20, trials=1, seed=0)
    assert sampling.measured_walk(config) == 3


def test_batched_check_reproduces_scalar_walk(monkeypatch):
    # BLOCK 12 n measures the 48 pairs in runs of 3, so most runs end
    # inside a trial, and the folded P_t must give both paths the same bits
    # at every n.  At n = 1009 every time of T = 30 runs on the 125-cycle,
    # T = 1e3 mixes times inside the light cone with times outside it, and
    # every time of T = 1e12 runs at length n
    for n in (5, 7, 21, 101, 1009):
        monkeypatch.setattr(dihedral, "BLOCK", 12 * n)
        for horizon in (30.0, 1e3, 1e12):
            config = sampling.SamplerConfig(n=n, start_vertex=0, horizon=horizon, steps=4, trials=12, seed=42)
            hist = sampling.empirical_check(config)
            scalar_counts = np.zeros(2 * n, dtype=int)
            for trial in range(config.trials):
                scalar_counts[sampling.measured_walk(config, trial)] += 1
            assert np.array_equal(hist.counts, scalar_counts), (n, horizon)
            assert hist.trials == 12


@pytest.mark.parametrize("buffer", [24, 72])
def test_batched_check_crosses_draw_blocks(monkeypatch, buffer):
    # 12 trials of 4 steps at n = 5: BLOCK 24 reads their 48 pairs 12 at a
    # time and measures them one by one, and BLOCK 72 reads them 36 at a
    # time and measures them in runs of 3, which end at every step of a
    # trial in turn
    config = sampling.SamplerConfig(n=5, start_vertex=0, horizon=30.0, steps=4, trials=12, seed=42)
    expected = sampling.empirical_check(config).counts
    monkeypatch.setattr(dihedral, "BLOCK", buffer)
    assert np.array_equal(sampling.empirical_check(config).counts, expected)


def test_batched_check_builds_one_generator(monkeypatch):
    # BLOCK 24 reads the 12 trials' pairs 12 at a time, all from one stream
    calls = []
    real = sampling.trial_rng

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sampling, "trial_rng", counted)
    monkeypatch.setattr(dihedral, "BLOCK", 24)
    config = sampling.SamplerConfig(n=5, start_vertex=0, horizon=30.0, steps=4, trials=12, seed=42)
    assert sampling.empirical_check(config).counts.sum() == 12
    assert len(calls) == 1


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_check_in_small_memory():
    """Pairs are walked in runs of about BLOCK / (4n): O(n + BLOCK) memory,
    not the O(trials n) of rows for every trial at once (255 MiB here).
    The peak measured 1.6 MiB when P_t's per-length tables are built
    inside the trace and 0.7 MiB once they exist; the bound allows 0.9 MiB
    more than the first."""
    config = sampling.SamplerConfig(n=1001, start_vertex=0, horizon=100.0, steps=2, trials=3000, seed=0)
    hist, peak = traced_peak(lambda: sampling.empirical_check(config))
    assert hist.counts.sum() == 3000
    assert peak <= 2.5 * 2**20


@pytest.mark.parametrize("n", [7, 1001])
def test_measured_step_holds_one_phase_buffer(n):
    """One run of k = BLOCK / (4n) measurements peaks no higher than the
    inverse DFT's input and output, two (n, k) complex arrays, plus one
    ((n + 1) / 2, k) float array and four doubles per measurement for the
    step's short vectors (times, light-cone picks, coin).  The phases are
    built time-minor in the DFT's input buffer from two ((n + 1) / 2, k)
    float arrays, u = tan(x / 2) and 1 + u^2, and both are freed before
    the transform.  The step takes the coin and the law |a|^2, an (n, k)
    float array it reads through its transpose without a copy, never their
    2n-cell product, and sums the law in place or into one copy.
    Measured: 583 kB at n = 7 against a bound of 674 kB, and 516 kB at
    n = 1001 against 577 kB; 604 and 515 kB when the step summed the
    2n-cell profile.  Over the bound: the exp form, which also
    held the folded complex phases (754 and 644 kB), a build that keeps one
    float array (679 and 580 kB) or both (754 and 644 kB) through the
    transform; a step that holds the profile while it builds the CDF is
    over at n = 1001 (612 kB; 636 kB at n = 7).  The times at n = 1001 lie
    outside every usable short cycle's reach, so `light_cone` runs them all
    on n and allocates no stack of its own."""
    k = dihedral.BLOCK // (4 * n)
    draws = np.random.default_rng(n).random((k, 2))
    draws[:, 0] = 0.5 + draws[:, 0] / 2
    sampling._measured_step(n, 1e3, draws)
    cells, peak = traced_peak(lambda: sampling._measured_step(n, 1e3, draws))
    assert cells.shape == (k, 2)
    assert peak <= 2 * 16 * k * n + 8 * k * (n // 2 + 1) + 32 * k


@pytest.mark.parametrize("n", [7, 21, 63, 65, 101, 1001])
def test_measured_step_is_its_per_draw_inverse_cdf(n):
    # each draw's own 2n-cell profile summed in (flip, offset) order, counted
    # against u times its total and clamped.  The step never forms that
    # profile: it scales the law's cumulative sum by the coin, so it adds
    # other numbers, and its cells must still be these.  A full run at
    # n = 63 sums the law row by row, at n = 65 by np.cumsum (at n = 1001
    # some times run on short cycles)
    draws = np.random.default_rng(n + 1).random((dihedral.BLOCK // (4 * n), 2))
    drawn = []
    for t, u in draws:
        cdf = np.cumsum(walk.probability_profiles(n, [1e3 * t])[0].ravel())
        drawn.append(min(int((cdf <= u * cdf[-1]).sum()), 2 * n - 1))
    assert np.array_equal(sampling._measured_step(n, 1e3, draws), np.stack(np.divmod(drawn, n), axis=1))


@pytest.mark.parametrize("n", [7, 21, 45])
def test_wide_run_is_its_narrow_slices(n):
    # a full run sums the law row by row, a slice of fewer than 256 draws by
    # np.cumsum: the same additions in the same order, so the cells agree
    # bit for bit, as `measured_walk` and `empirical_check` need when they
    # cut the same draws into different runs.  Half the uniforms sit on a
    # cell boundary of their profile's CDF, where a sum rounded differently
    # in either run would move the cell
    rng = np.random.default_rng(n + 2)
    draws = rng.random((dihedral.BLOCK // (4 * n), 2))
    assert len(draws) >= 256
    coin, law = walk.probability_factors(n, 1e3 * draws[:, 0])
    cdf = np.cumsum((coin.T[:, :, None] * law[:, None, :]).reshape(len(draws), -1), axis=1)
    edge = rng.integers(0, 2 * n - 1, len(draws))
    draws[::2, 1] = (cdf[np.arange(len(draws)), edge] / cdf[:, -1])[::2]
    wide = sampling._measured_step(n, 1e3, draws)
    narrow = [sampling._measured_step(n, 1e3, draws[i : i + 100]) for i in range(0, len(draws), 100)]
    assert np.array_equal(wide, np.concatenate(narrow))


@pytest.mark.parametrize("n", [7, 21])
def test_measured_step_at_exact_zero_coin_weights(n):
    # at t = 0 the other-block weight is 0, and at t = 3 pi / 2, where t / 3
    # rounds to pi / 2 and tan gives 1.6e16, the same-block weight is 0: the
    # draw must never land in the block of weight 0, for any u from 0 up to
    # the largest double below 1, and must divide by neither weight
    u = np.linspace(0.0, 1.0, 301)
    u[-1] = np.nextafter(1.0, 0.0)
    for horizon, flip in ((1.0, 0), (1.5 * np.pi, 1)):
        draws = np.stack([np.full_like(u, flip), u], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (draws, draws[:10], draws[-10:]):
                cells = sampling._measured_step(n, horizon, run)
                assert (cells[:, 0] == flip).all() and ((0 <= cells[:, 1]) & (cells[:, 1] < n)).all()


def test_long_walk_in_small_memory(monkeypatch):
    """A walk's draws are read in runs too, so its memory does not grow
    with steps: 5 * 10^4 steps drew 800 kB at once when a trial's segment
    was one array.  At BLOCK = 2^10 the stream is read 512 pairs at a time
    and measured 36 at a time at n = 7, and the peak measured 33 kB at
    5 * 10^4 and at 2 * 10^5 steps."""
    monkeypatch.setattr(dihedral, "BLOCK", 2**10)
    config = sampling.SamplerConfig(n=7, start_vertex=0, horizon=300.0, steps=50000, trials=2, seed=1)
    vertex, peak = traced_peak(lambda: sampling.measured_walk(config, trial=1))
    assert 0 <= vertex < 14
    assert peak <= 256 * 2**10


def test_results_do_not_depend_on_block(monkeypatch):
    # the same doubles in the same order: a 2000-step walk measured in 1
    # run or in 58, and 3 trials of 700 steps in 1 run or in 62, two of
    # which cross a trial boundary, give the same bits
    walk_config = sampling.SamplerConfig(n=7, start_vertex=3, horizon=300.0, steps=2000, trials=1, seed=8)
    check_config = sampling.SamplerConfig(n=7, start_vertex=5, horizon=40.0, steps=700, trials=3, seed=9)
    expected = sampling.measured_walk(walk_config), sampling.empirical_check(check_config).counts
    monkeypatch.setattr(dihedral, "BLOCK", 2**10)
    assert sampling.measured_walk(walk_config) == expected[0]
    assert np.array_equal(sampling.empirical_check(check_config).counts, expected[1])


def test_runs_straddling_trials_match_scalar_walk_trial_by_trial(monkeypatch):
    # runs of 3 pairs against trials of 4 steps: a run ends inside a trial,
    # at its end, or takes the tail of one trial and the head of the next.
    # The first k trials' histogram less the first k - 1 trials' is trial
    # k - 1's endpoint alone
    monkeypatch.setattr(dihedral, "BLOCK", 3 * 4 * 7)
    config = sampling.SamplerConfig(n=7, start_vertex=4, horizon=60.0, steps=4, trials=1, seed=21)
    previous = np.zeros(14, dtype=int)
    for trials in range(1, 13):
        counts = sampling.empirical_check(replace(config, trials=trials)).counts
        assert np.array_equal(counts - previous, np.eye(14, dtype=int)[sampling.measured_walk(config, trials - 1)])
        previous = counts


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


@pytest.mark.parametrize("n, horizon, steps", [(7, 500.0, 2), (21, 1e3, 7), (11, 37.0, 50)])
def test_measured_law_matches_dense_kernel_power(n, horizon, steps):
    dense = np.linalg.matrix_power(walk.averaged_matrix(n, horizon).to_dense(), steps)
    for start in range(2 * n):
        assert np.abs(oracles.measured_law(n, horizon, steps, start) - dense[start]).max() <= 1e-13
    assert np.abs(oracles.measured_law(n, horizon, 0, 3) - np.eye(2 * n)[3]).max() <= 1e-15


@pytest.mark.parametrize("steps", [1, 2])
def test_sampler_histogram_passes_chi_square_against_exact_law(steps):
    n, horizon, trials = 7, 500.0, 20000
    config = sampling.SamplerConfig(n=n, start_vertex=0, horizon=horizon, steps=steps, trials=trials, seed=7)
    counts = sampling.empirical_check(config).counts
    assert chisquare(counts, trials * oracles.measured_law(n, horizon, steps, 0)).pvalue > 1e-3
    if steps == 1:
        # one step is far from uniform (TV 0.12), so the test has the power
        # to reject a wrong law
        assert chisquare(counts, np.full(2 * n, trials / (2 * n))).pvalue < 1e-6
