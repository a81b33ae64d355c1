"""Unitary evolution, time-averaged kernel, and the limiting profile.

Oracles: scipy.linalg.expm for the propagator, scipy.integrate.quad for
the time average, the direct double sum and a 50-digit mpmath sum for the
averaged kernel, exact Fraction arithmetic for the limit.
"""

import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from qwalk import bounds, dihedral, walk

import oracles


def test_probability_at_time_zero_is_identity():
    mat = walk.probability_matrix(5, 0.0)
    assert np.max(np.abs(mat - np.eye(10))) < 1e-12


@pytest.mark.parametrize("n,t", [(3, 0.1), (5, 3.7), (7, 10.0)])
def test_probability_matches_expm_oracle(n, t):
    gen = oracles.normalized_adjacency(n)
    oracle = np.abs(expm(1j * t * gen)) ** 2
    ours = walk.probability_matrix(n, t)
    assert np.max(np.abs(oracle - ours)) < 1e-10


def test_propagator_oracle_unitary_and_group_law():
    n = 7
    u1 = oracles.propagator_oracle(n, 2.3)
    u2 = oracles.propagator_oracle(n, 1.4)
    u12 = oracles.propagator_oracle(n, 3.7)
    eye = np.eye(2 * n)
    assert np.max(np.abs(u1 @ u1.conj().T - eye)) < 1e-10
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9


def test_propagator_oracle_size_cap():
    with pytest.raises(ValueError):
        oracles.propagator_oracle(513, 1.0)


def test_amplitude_matches_oracle_entries():
    n = 5
    t = 4.2
    u = oracles.propagator_oracle(n, t)
    for i, j in [(0, 0), (0, 3), (2, 7), (8, 1), (9, 9)]:
        assert oracles.amplitude(n, i, j, t) == pytest.approx(u[j, i], abs=1e-12)
        assert oracles.probability(n, i, j, t) == pytest.approx(np.abs(u[j, i]) ** 2, abs=1e-12)


def test_probability_row_matches_entries():
    n = 7
    t = 4.2
    for i in (0, 3, n, n + 4):
        row = walk.probability_row(n, i, t)
        direct = np.array([oracles.probability(n, i, j, t) for j in range(2 * n)])
        assert np.max(np.abs(row - direct)) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 11, 101])
def test_profiles_factorise_against_oracle(n):
    """Cycle walk times two-state coin reproduces the dense propagator."""
    times = np.random.default_rng(n).uniform(0.0, 60.0, size=4)
    profiles = walk._probability_profiles(n, times)
    assert profiles.shape == (4, 2, n)
    for t, profile in zip(times, profiles):
        # column 0 of |U(t)|^2: same block at rows 0..n-1, other block below
        from_origin = np.abs(oracles.propagator_oracle(n, t)[:, 0]) ** 2
        assert np.max(np.abs(profile - from_origin.reshape(2, n))) < 1e-12


@pytest.mark.parametrize("n", [5, 11, 101])
def test_profiles_coin_zeros(n):
    """cos(t/3) vanishes at t = 3 pi / 2 and sin(t/3) at t = 3 pi: one
    block carries no probability and the other carries all of it."""
    same_zero, other_zero = walk._probability_profiles(n, [1.5 * np.pi, 3.0 * np.pi])
    assert same_zero[0].max() < 1e-30
    assert other_zero[1].max() < 1e-30
    assert same_zero[1].sum() == pytest.approx(1.0, abs=1e-12)
    assert other_zero[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_probability_rows_sum_to_one_at_large_n():
    n = 4001
    rng = np.random.default_rng(4001)
    vertices = rng.integers(0, 2 * n, size=16)
    times = np.concatenate([rng.uniform(0.0, 100.0, size=12), [1e3, 1e5, 1e7, 1e9]])
    rows = walk.probability_rows(n, vertices, times)
    assert rows.shape == (16, 2 * n)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= walk.ROW_SUM_TOL
    assert rows.min() >= 0.0


@pytest.mark.parametrize("n,t", [(3, 1.3), (9, 7.7)])
def test_probability_matrix_symmetric_doubly_stochastic(n, t):
    mat = walk.probability_matrix(n, t)
    assert np.max(np.abs(mat - mat.T)) < 1e-12
    assert np.max(np.abs(mat.sum(axis=0) - 1.0)) < 1e-10
    assert np.min(mat) > -1e-12


def test_phase_average_values():
    # (e^{ixT}-1)/(ixT) at x=0 is exactly 1
    assert oracles.phase_average(np.array([0.0]), 10.0)[0] == 1.0 + 0.0j
    x = np.array([0.731])
    t = 13.0
    expected = (np.exp(1j * x * t) - 1.0) / (1j * x * t)
    assert oracles.phase_average(x, t)[0] == pytest.approx(expected[0], abs=1e-14)
    # conjugate symmetry holds bit for bit
    xs = np.array([0.25, -0.25])
    vals = oracles.phase_average(xs, 7.0)
    assert vals[0] == np.conj(vals[1])
    # the real part alone, as averaged_matrix uses it
    xs = np.array([0.0, 1e-30, 0.731, -0.25, 3.0])
    for horizon in (1e-3, 13.0, 1e12):
        real = walk.real_phase_average(xs, horizon)
        assert real[0] == 1.0
        assert np.max(np.abs(real - oracles.phase_average(xs, horizon).real)) < 1e-15


@pytest.mark.parametrize("delta,eps", [(0, 1), (2, 1), (3, -1), (0, -1)])
def test_averaged_entry_matches_quadrature(delta, eps):
    n = 5
    horizon = 50.0
    i = 0
    j = delta if eps == 1 else n + delta

    def integrand(t):
        return oracles.probability(n, i, j, t)

    value, err = quad(integrand, 0.0, horizon, limit=400, epsabs=1e-10, epsrel=1e-10)
    assert err < 1e-7
    assert oracles.averaged_entry(n, delta, eps, horizon) == pytest.approx(value / horizon, abs=1e-8)


def test_averaged_matrix_matches_entry_formula():
    for n, horizon in ((7, 37.5), (21, 37.5), (21, 1e3), (101, 250.0)):
        avg = walk.averaged_matrix(n, horizon)
        for eps_idx, eps in ((0, 1), (1, -1)):
            for delta in range(n):
                direct = oracles.averaged_entry(n, delta, eps, horizon)
                assert avg.values[eps_idx, delta] == pytest.approx(direct, abs=1e-12)
                # vertex-pair lookup agrees with the profile layout
                j = delta if eps == 1 else n + delta
                assert avg.entry(0, j) == avg.values[eps_idx, delta]


@pytest.mark.parametrize("horizon", [7, 1e4, 1e12])
@pytest.mark.parametrize("n", [5, 11, 101, 401])
def test_averaged_matrix_block_boundaries(n, horizon, monkeypatch):
    # 50-entry blocks keep n = 5 and 11 in one block and cut n = 101 and
    # 401 into one-row runs
    expected = walk.averaged_matrix(n, horizon).values
    monkeypatch.setattr(dihedral, "BLOCK", 50)
    assert np.max(np.abs(walk.averaged_matrix(n, horizon).values - expected)) <= 1e-15


def test_averaged_matrix_dense_properties():
    n = 5
    avg = walk.averaged_matrix(n, 12.0)
    dense = avg.to_dense()
    assert dense.shape == (2 * n, 2 * n)
    assert np.max(np.abs(dense - dense.T)) < 1e-12
    assert np.max(np.abs(dense.sum(axis=0) - 1.0)) < 1e-10
    assert np.min(dense) > -1e-12
    for i in (0, 3, n + 2):
        assert np.max(np.abs(avg.row(i) - dense[i])) < 1e-15


def test_averaged_profile_reflection_symmetry():
    # g(delta) equals g(n - delta) on both block parities
    avg = walk.averaged_matrix(9, 23.0)
    for eps in (1, -1):
        row = avg.values[0 if eps == 1 else 1]
        for delta in range(1, 9):
            assert row[delta] == pytest.approx(row[9 - delta], abs=1e-12)


def test_short_horizon_stays_near_identity():
    avg = walk.averaged_matrix(5, 1e-8)
    assert np.max(np.abs(avg.to_dense() - np.eye(10))) < 1e-6


def test_long_horizon_approaches_limit():
    n = 5
    avg = walk.averaged_matrix(n, 1e7)
    pi = walk.limiting_distribution(n)
    assert np.max(np.abs(avg.to_dense() - pi.to_dense())) < 1e-5


def test_limiting_distribution_exact_values():
    pi = walk.limiting_distribution(3)
    assert pi.diagonal == Fraction(5, 18)
    assert pi.off_diagonal == Fraction(1, 9)
    for n in (3, 5, 21, 101):
        pi = walk.limiting_distribution(n)
        assert pi.diagonal == Fraction(1, 2 * n) + Fraction(n - 1, 2 * n * n)
        assert pi.off_diagonal == Fraction(1, 2 * n) - Fraction(1, 2 * n * n)
        assert pi.row_sum() == Fraction(1)
        assert pi.min_entry() >= Fraction(1, (2 * n) ** 2)
        assert pi.min_entry() == pi.off_diagonal


def test_limiting_profile_and_entries():
    n = 5
    pi = walk.limiting_distribution(n)
    values = pi.values()
    # both delta = 0 entries carry the diagonal weight, one per block
    assert values[0, 0] == pytest.approx(float(pi.diagonal))
    assert values[1, 0] == pytest.approx(float(pi.diagonal))
    assert values[0, 2] == pytest.approx(float(pi.off_diagonal))
    # vertex pairs at residue offset zero carry the diagonal weight even
    # across blocks
    assert pi.entry(0, 0) == pi.diagonal
    assert pi.entry(2, n + 2) == pi.diagonal
    assert pi.entry(0, 3) == pi.off_diagonal
    dense = pi.to_dense()
    assert np.allclose(dense.sum(axis=0), 1.0)
    assert np.max(np.abs(dense - dense.T)) == 0.0


def test_distance_to_limit_against_dense_norm():
    n = 5
    horizon = 80.0
    avg = walk.averaged_matrix(n, horizon)
    diff = avg.to_dense() - walk.limiting_distribution(n).to_dense()
    induced_oracle = np.max(np.abs(diff).sum(axis=0))
    assert avg.distance_to_limit() == pytest.approx(induced_oracle, rel=1e-10)


def test_convergence_series_decreases_overall():
    horizons = [1e2, 1e3, 1e4, 1e5]
    distances = [walk.distance_to_limit(11, T) for T in horizons]
    assert distances[-1] < distances[0] / 100.0


def test_horizon_validation():
    with pytest.raises(ValueError):
        walk.averaged_matrix(5, 0.0)
    with pytest.raises(ValueError):
        walk.averaged_matrix(5, -3.0)
    with pytest.raises(ValueError):
        walk.check_horizon(float("nan"))
    with pytest.raises(ValueError):
        oracles.averaged_entry(5, 5, 1, 10.0)
    with pytest.raises(ValueError):
        oracles.averaged_entry(5, 0, 2, 10.0)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            walk.averaged_matrix(5, bad)
        with pytest.raises(ValueError, match="finite"):
            oracles.averaged_entry(5, 0, 1, bad)


def test_probability_times_must_be_finite():
    # every P_t path goes through _probability_profiles, which rejects a
    # non-finite time instead of returning a NaN row
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            walk.probability_row(5, 0, bad)
        with pytest.raises(ValueError, match="finite"):
            walk.probability_matrix(5, bad)
        with pytest.raises(ValueError, match="finite"):
            walk.probability_rows(5, [0, 3, 7], [1.0, bad, 2.0])
    # P_-t = P_t, so negative times stay accepted
    assert np.allclose(walk.probability_row(5, 3, -2.5), walk.probability_row(5, 3, 2.5), atol=1e-15)


def test_nan_residue_trips_imaginary_guard(monkeypatch):
    # averaged_matrix assembles a real profile, so its guard is the profile
    # sum; a NaN kernel must trip it
    monkeypatch.setattr(walk, "real_phase_average", lambda x, T: np.full(np.shape(x), np.nan))
    with pytest.raises(RuntimeError, match="profile sum drifted nan away from 1"):
        walk.averaged_matrix(5, 10.0)
    monkeypatch.setattr(oracles, "phase_average", lambda x, T: np.full(np.shape(x), np.nan + 1j * np.nan))
    with pytest.raises(RuntimeError, match="imaginary residue"):
        oracles.averaged_entry(5, 0, 1, 10.0)


@pytest.mark.parametrize("horizon", [1e8, 1e10, 1e12, 1e15])
@pytest.mark.parametrize("n", [5, 21, 101])
def test_distance_bounded_by_gap_sum_at_large_horizon(n, horizon):
    # criterion 6 far past the horizons where float cosines of mirror modes
    # used to break the exact degeneracy
    gap_sum = bounds.eigengap_inverse_sum_bruteforce(n)
    assert walk.distance_to_limit(n, horizon) <= gap_sum / (n * horizon)


def _mp_averaged_profile(n, horizon):
    """(2, n) averaged profile as the literal double sum over the 2n modes of
    (1/T) int_0^T e^{i x t} dt, at 50 digits."""
    with mpmath.workdps(50):
        T = mpmath.mpf(horizon)
        cos = [mpmath.cos(2 * mpmath.pi * m / n) for m in range(n)]
        branches = [[(2 * c + 1) / 3 for c in cos], [(2 * c - 1) / 3 for c in cos]]
        kernel = {}
        for a in (0, 1):
            for b in (0, 1):
                for m in range(n):
                    for k in range(n):
                        # (e^{ixT} - 1) / (ixT), written without cancellation
                        half_phase = (branches[a][m] - branches[b][k]) * T / 2
                        kernel[a, b, m, k] = mpmath.expj(half_phase) * mpmath.sinc(half_phase)
        out = np.empty((2, n))
        for eps_idx, eps in ((0, 1), (1, -1)):
            for delta in range(n):
                total = mpmath.mpc(0)
                for (a, b, m, k), avg in kernel.items():
                    sign = eps if a != b else 1
                    total += sign * mpmath.expj(2 * mpmath.pi * delta * (m - k) / n) * avg
                total /= (2 * n) ** 2
                assert abs(total.imag) < mpmath.mpf(10) ** -40
                out[eps_idx, delta] = float(total.real)
    return out


def test_averaged_profile_matches_mpmath_at_large_horizon():
    n, horizon = 5, 1e12
    oracle = _mp_averaged_profile(n, horizon)
    avg = walk.averaged_matrix(n, horizon)
    assert np.max(np.abs(avg.values - oracle)) < 1e-15
    limit = walk.limiting_distribution(n).values()
    # the O(1/T) deviation from the limit is resolved, not only the limit
    assert np.abs(avg.values - limit).sum() == pytest.approx(np.abs(oracle - limit).sum(), rel=1e-3)


@pytest.mark.parametrize("n", [1001, 4001])
def test_averaged_matrix_budget_horizon_in_small_memory(n):
    horizon = bounds.budget_time(n)
    tracemalloc.start()
    try:
        avg = walk.averaged_matrix(n, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    assert avg.distance_to_limit() <= bounds.decomposed_sum(n).total / (n * horizon)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    half=st.integers(min_value=1, max_value=50),
    horizon=st.floats(min_value=1.0, max_value=1e15, allow_nan=False, allow_infinity=False),
)
def test_averaged_profile_properties(half, horizon):
    n = 2 * half + 1
    avg = walk.averaged_matrix(n, horizon)
    assert avg.values.min() >= -1e-15
    assert abs(avg.values.sum() - 1.0) < 1e-12
    gap_sum = bounds.eigengap_inverse_sum_bruteforce(n)
    assert avg.distance_to_limit() <= gap_sum / (n * horizon)
