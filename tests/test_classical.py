"""Discrete-time random walk: powers, distances, and mixing time.

Oracles: numpy matrix powers for the profile fast path, a brute scan of
dense powers for the mixing time, random Birkhoff (doubly stochastic)
matrices for the norm sandwich, and the two-theta model D_cl(a) for the
distance at step a n^2 and its crossing a* of 1/(2e).
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from qwalk import classical, dihedral, spectra

import oracles


def random_doubly_stochastic(rng, size, terms=6):
    # convex combination of permutation matrices
    weights = rng.dirichlet(np.ones(terms))
    mat = np.zeros((size, size))
    for w in weights:
        mat += w * np.eye(size)[rng.permutation(size)]
    return mat


def test_power_at_small_steps():
    n = 5
    assert np.array_equal(oracles.classical_power(n, 0), np.eye(2 * n))
    assert np.max(np.abs(oracles.classical_power(n, 1) - oracles.normalized_adjacency(n))) == 0.0


@pytest.mark.parametrize("n,t", [(3, 4), (5, 7), (9, 12)])
def test_profile_matches_matrix_power(n, t):
    oracle = oracles.classical_power(n, t)
    dense = dihedral.pair_values_dense(n, classical.classical_profile(n, t))
    assert np.max(np.abs(oracle - dense)) < 1e-12


def test_profiles_batch_matches_loop():
    n = 7
    ts = [0, 1, 5, 30, 131]
    batch = classical.classical_profiles(n, ts)
    distances = classical.half_uniform_distances(n, batch)
    assert distances.shape == (len(ts),)
    for k, t in enumerate(ts):
        single = classical.classical_profile(n, t)
        assert np.max(np.abs(batch[k] - single)) < 1e-13
        assert distances[k] == pytest.approx(classical.half_uniform_distance(n, t), abs=1e-15)


def test_powers_are_symmetric_doubly_stochastic():
    n = 7
    for t in (2, 9, 40):
        mat = oracles.classical_power(n, t)
        assert np.max(np.abs(mat - mat.T)) < 1e-12
        assert np.max(np.abs(mat.sum(axis=0) - 1.0)) < 1e-10
        assert np.min(mat) > -1e-15


def test_one_norm_distance_frozen_cases():
    n = 3
    uniform = oracles.uniform_matrix(n)
    eye = np.eye(2 * n)
    assert oracles.one_norm_distance(eye, uniform) == pytest.approx(2.0 * (1.0 - 1.0 / (2 * n)), rel=1e-12)
    assert oracles.one_norm_distance(uniform, uniform) == 0.0
    step = oracles.classical_power(n, 1)
    # column 0 puts mass 1/3 on three vertices and none on the other three
    assert oracles.induced_one_norm_distance(step, uniform) == pytest.approx(1.0, rel=1e-12)
    entrywise = oracles.one_norm_distance(step, uniform, kind="entrywise")
    assert entrywise == pytest.approx(2 * n * 1.0, rel=1e-12)
    with pytest.raises(ValueError):
        oracles.one_norm_distance(step, uniform, kind="spectral")


def test_half_uniform_distance_matches_dense():
    n = 5
    for t in (0, 3, 17, 64):
        mat = oracles.classical_power(n, t)
        oracle = 0.5 * np.abs(mat - oracles.uniform_matrix(n))[:, 0].sum()
        assert classical.half_uniform_distance(n, t) == pytest.approx(oracle, abs=1e-12)
    assert classical.half_uniform_distance(n, 0) == pytest.approx(1.0 - 1.0 / (2 * n), rel=1e-12)


def test_column_distance_matches_generic_scan():
    n = 5
    for t in (1, 4, 21):
        dense = oracles.classical_power(n, t)
        generic = oracles.max_pairwise_column_distance(dense)
        structured = classical.profile_column_distance(n, classical.classical_profile(n, t))
        assert structured == pytest.approx(generic, abs=1e-12)
    assert oracles.max_pairwise_column_distance(np.eye(6)) == pytest.approx(1.0)
    assert oracles.max_pairwise_column_distance(oracles.uniform_matrix(3)) == 0.0


def column_distance_loop(n, values):
    """profile_column_distance as one Python pass per (offset, block)
    relabeling: the reference for the blocked version."""
    vals = np.asarray(values, dtype=float)
    rows = np.arange(n)
    base_same = vals[0][(-rows) % n]
    base_other = vals[1][(-rows) % n]
    best = 0.0
    for b in (0, 1):
        top, bottom = (vals[0], vals[1]) if b == 0 else (vals[1], vals[0])
        for y in range(n):
            if y == 0 and b == 0:
                continue
            idx = (y - rows) % n
            gap = np.abs(base_same - top[idx]).sum() + np.abs(base_other - bottom[idx]).sum()
            best = max(best, 0.5 * float(gap))
    return best


@pytest.mark.parametrize("n", [3, 5, 21, 41])
@pytest.mark.parametrize("block", [dihedral.BLOCK, 50])
def test_column_distance_equals_loop(n, block, monkeypatch):
    monkeypatch.setattr(dihedral, "BLOCK", block)
    report = classical.classical_mixing_time(n, norm_kind="column_pairs")
    tau = int(report.threshold_time)
    # every probe of the column_pairs search, plus a stride over [0, 2 tau]
    ts = sorted({t for t, _ in report.distance_series} | set(range(0, 2 * tau + 1, max(1, tau // 8))))
    profiles = list(classical.classical_profiles(n, ts))
    profiles += list(np.random.default_rng(n).random((4, 2, n)))
    for profile in profiles:
        assert classical.profile_column_distance(n, profile) == column_distance_loop(n, profile)


def test_column_pairs_probe_trail_unchanged(monkeypatch):
    fast = {n: classical.classical_mixing_time(n, norm_kind="column_pairs") for n in range(3, 32, 2)}
    monkeypatch.setattr(classical, "profile_column_distance", column_distance_loop)
    for n, report in fast.items():
        reference = classical.classical_mixing_time(n, norm_kind="column_pairs")
        assert report.threshold_time == reference.threshold_time, n
        assert report.distance_series == reference.distance_series, n


def test_sandwich_inequality_on_random_doubly_stochastic():
    rng = np.random.default_rng(20260819)
    for _ in range(25):
        size = int(rng.integers(4, 12))
        mat = random_doubly_stochastic(rng, size)
        uniform = np.full((size, size), 1.0 / size)
        d_value = oracles.max_pairwise_column_distance(mat)
        half = 0.5 * oracles.induced_one_norm_distance(mat, uniform)
        full = oracles.induced_one_norm_distance(mat, uniform)
        assert half <= d_value + 1e-12
        assert d_value <= full + 1e-12


def test_submultiplicativity_check():
    n = 9
    rng = np.random.default_rng(7)
    for _ in range(10):
        t1 = int(rng.integers(0, 60))
        t2 = int(rng.integers(0, 60))
        assert oracles.submultiplicativity_check(n, t1, t2)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_mixing_time_matches_brute_scan(n):
    eps = spectra.DEFAULT_EPSILON
    uniform = oracles.uniform_matrix(n)
    t = 0
    mat = np.eye(2 * n)
    step = oracles.normalized_adjacency(n)
    while 0.5 * np.abs(mat - uniform)[:, 0].sum() > eps:
        mat = mat @ step
        t += 1
        assert t < 5000
    report = classical.classical_mixing_time(n)
    assert report.threshold_time == float(t)
    assert report.epsilon == eps
    assert report.norm_kind == "half_induced"


def test_mixing_time_frozen_value_and_series():
    report = classical.classical_mixing_time(21)
    assert report.threshold_time == 167.0
    assert len(report.distance_series) > 0
    probed = {t: d for t, d in report.distance_series}
    assert probed[report.threshold_time] <= report.epsilon
    # every probe strictly below the threshold stayed above epsilon
    assert all(d > report.epsilon for t, d in report.distance_series if t < report.threshold_time)
    payload = report.to_dict()
    assert payload["threshold_time"] == 167.0
    assert payload["norm_kind"] == "half_induced"


def test_mixing_time_column_pairs_norm():
    report = classical.classical_mixing_time(5, norm_kind="column_pairs")
    t = int(report.threshold_time)
    dense = oracles.classical_power(5, t)
    assert oracles.max_pairwise_column_distance(dense) <= report.epsilon
    if t > 0:
        before = oracles.classical_power(5, t - 1)
        assert oracles.max_pairwise_column_distance(before) > report.epsilon


def test_mixing_time_respects_epsilon_argument():
    loose = classical.classical_mixing_time(9, epsilon=0.4)
    tight = classical.classical_mixing_time(9, epsilon=0.01)
    assert loose.threshold_time <= tight.threshold_time
    with pytest.raises(ValueError):
        classical.classical_mixing_time(9, epsilon=1.5)
    with pytest.raises(ValueError):
        classical.classical_mixing_time(9, epsilon=0.0)
    # at n = 3, d(0) = 5/6 is already below 0.9: t = 0 after one probe
    report = classical.classical_mixing_time(3, 0.9)
    assert report.threshold_time == 0.0
    assert report.distance_series == [(0, pytest.approx(5 / 6, rel=1e-15))]
    with pytest.raises(ValueError, match="unknown norm kind 'sup'"):
        classical.classical_mixing_time(9, norm_kind="sup")
    # a distance that never drops to epsilon ends the doubling at the cap
    with pytest.raises(RuntimeError, match="distance stays above 0.5 up to 8"):
        classical.bracket_search(lambda t: 1.0, 0.5, 8, lambda lo, hi: hi - lo <= 1, lambda lo, hi: (lo + hi) // 2)


@pytest.mark.parametrize(
    "n,norm_kind",
    [(n, kind) for kind in ("half_induced", "column_pairs") for n in (3, 5, 9, 21)] + [(41, "half_induced")],
)
def test_distance_is_monotone_over_four_thresholds(n, norm_kind):
    # classical_mixing_time relies on this: with d non-increasing, the first
    # crossing also certifies every later step count
    tau = int(classical.classical_mixing_time(n, norm_kind=norm_kind).threshold_time)
    profiles = classical.classical_profiles(n, np.arange(4 * tau + 1))
    if norm_kind == "half_induced":
        dists = 0.5 * np.abs(profiles - 1.0 / (2 * n)).sum(axis=(1, 2))
    else:
        dists = np.array([classical.profile_column_distance(n, p) for p in profiles])
    assert np.all(np.diff(dists) <= 1e-12)


def test_mixing_time_large_n_is_first_crossing_in_small_memory():
    n = 1001
    tracemalloc.start()
    try:
        report = classical.classical_mixing_time(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tau = int(report.threshold_time)
    assert tau == 378229
    assert classical.half_uniform_distance(n, tau) <= report.epsilon < classical.half_uniform_distance(n, tau - 1)
    assert peak < 16 * 2**20


def test_theta_model_gives_the_classical_threshold_scale():
    # D_cl(a) crosses 1/(2e) once, at a* = 0.3774737; tau / n^2 reads
    # 0.377512, 0.377466 and 0.377473 at n = 101, 201, 401, and the
    # distance at a n^2 is within 2.4e-5 of the model at n = 101
    a_star = brentq(lambda a: oracles.theta_distance(a) - spectra.DEFAULT_EPSILON, 0.2, 0.6, xtol=1e-10)
    assert a_star == pytest.approx(0.3774737, abs=1e-7)
    for n in (101, 201, 401):
        assert abs(classical.classical_mixing_time(n).threshold_time / n**2 - a_star) <= 1e-4, n
    for a in (0.1, 0.3775, 1.0):
        t = round(a * 101**2)
        assert classical.half_uniform_distance(101, t) == pytest.approx(oracles.theta_distance(t / 101**2), abs=5e-5)


def test_contraction_check():
    report = classical.classical_mixing_time(5, norm_kind="column_pairs")
    mat = oracles.classical_power(5, int(report.threshold_time))
    assert oracles.contraction_check(mat, 0.01)
    # a matrix that has not reached the threshold is rejected outright
    with pytest.raises(ValueError):
        oracles.contraction_check(np.eye(10), 0.01)
    with pytest.raises(ValueError):
        oracles.contraction_check(mat, 0.5)


def test_mixing_distance_eventually_small():
    # the distance at four times the threshold stays under the target
    n = 11
    report = classical.classical_mixing_time(n)
    t4 = 4 * int(report.threshold_time)
    assert classical.half_uniform_distance(n, t4) <= report.epsilon


def test_step_count_validation():
    with pytest.raises(ValueError):
        oracles.classical_power(5, -1)
    with pytest.raises(ValueError):
        classical.classical_profile(5, 2.5)
    # a batch of non-integer steps is rejected, not truncated to t = 2
    for bad in ([2.7], np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="integers"):
            classical.classical_profiles(5, bad)
    with pytest.raises(ValueError, match="step counts must be nonnegative"):
        classical.classical_profiles(5, [3, -1])
    assert classical.classical_profiles(5, np.array([2], dtype=np.int32)).shape == (1, 2, 5)
    with pytest.raises(ValueError):
        classical.check_step_count(-3)
