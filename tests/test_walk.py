"""Unitary evolution, time-averaged kernel, and the limiting profile.

Oracles: scipy.linalg.expm for the propagator, scipy.integrate.quad for
the time average, exact Fraction arithmetic for the limit.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from qwalk import dihedral, walk


def test_probability_at_time_zero_is_identity():
    mat = walk.probability_matrix(5, 0.0)
    assert np.max(np.abs(mat - np.eye(10))) < 1e-12


@pytest.mark.parametrize("n,t", [(3, 0.1), (5, 3.7), (7, 10.0)])
def test_probability_matches_expm_oracle(n, t):
    gen = dihedral.normalized_adjacency(n)
    oracle = np.abs(expm(1j * t * gen)) ** 2
    ours = walk.probability_matrix(n, t)
    assert np.max(np.abs(oracle - ours)) < 1e-10


def test_propagator_oracle_unitary_and_group_law():
    n = 7
    u1 = walk.propagator_oracle(n, 2.3)
    u2 = walk.propagator_oracle(n, 1.4)
    u12 = walk.propagator_oracle(n, 3.7)
    eye = np.eye(2 * n)
    assert np.max(np.abs(u1 @ u1.conj().T - eye)) < 1e-10
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9


def test_propagator_oracle_size_cap():
    with pytest.raises(ValueError):
        walk.propagator_oracle(513, 1.0)


def test_amplitude_matches_oracle_entries():
    n = 5
    t = 4.2
    u = walk.propagator_oracle(n, t)
    for i, j in [(0, 0), (0, 3), (2, 7), (8, 1), (9, 9)]:
        assert walk.amplitude(n, i, j, t) == pytest.approx(u[j, i], abs=1e-12)
        assert walk.probability(n, i, j, t) == pytest.approx(np.abs(u[j, i]) ** 2, abs=1e-12)


def test_probability_row_matches_entries():
    n = 7
    t = 4.2
    for i in (0, 3, n, n + 4):
        row = walk.probability_row(n, i, t)
        direct = np.array([walk.probability(n, i, j, t) for j in range(2 * n)])
        assert np.max(np.abs(row - direct)) < 1e-12


@pytest.mark.parametrize("n,t", [(3, 1.3), (9, 7.7)])
def test_probability_matrix_symmetric_doubly_stochastic(n, t):
    mat = walk.probability_matrix(n, t)
    assert np.max(np.abs(mat - mat.T)) < 1e-12
    assert np.max(np.abs(mat.sum(axis=0) - 1.0)) < 1e-10
    assert np.min(mat) > -1e-12


def test_phase_average_values():
    # (e^{ixT}-1)/(ixT) at x=0 is exactly 1
    assert walk.phase_average(np.array([0.0]), 10.0)[0] == 1.0 + 0.0j
    x = np.array([0.731])
    t = 13.0
    expected = (np.exp(1j * x * t) - 1.0) / (1j * x * t)
    assert walk.phase_average(x, t)[0] == pytest.approx(expected[0], abs=1e-14)
    # conjugate symmetry holds bit for bit
    xs = np.array([0.25, -0.25])
    vals = walk.phase_average(xs, 7.0)
    assert vals[0] == np.conj(vals[1])


@pytest.mark.parametrize("delta,eps", [(0, 1), (2, 1), (3, -1), (0, -1)])
def test_averaged_entry_matches_quadrature(delta, eps):
    n = 5
    horizon = 50.0
    i = 0
    j = delta if eps == 1 else n + delta

    def integrand(t):
        return walk.probability(n, i, j, t)

    value, err = quad(integrand, 0.0, horizon, limit=400, epsabs=1e-10, epsrel=1e-10)
    assert err < 1e-7
    assert walk.averaged_entry(n, delta, eps, horizon) == pytest.approx(value / horizon, abs=1e-8)


def test_averaged_matrix_matches_entry_formula():
    n = 7
    horizon = 37.5
    avg = walk.averaged_matrix(n, horizon)
    for eps_idx, eps in ((0, 1), (1, -1)):
        for delta in range(n):
            direct = walk.averaged_entry(n, delta, eps, horizon)
            assert avg.values[eps_idx, delta] == pytest.approx(direct, abs=1e-12)
            # vertex-pair lookup agrees with the profile layout
            j = delta if eps == 1 else n + delta
            assert avg.entry(0, j) == avg.values[eps_idx, delta]


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


def test_distance_kinds_are_proportional():
    n = 7
    horizon = 300.0
    induced = walk.distance_to_limit(n, horizon, kind="induced")
    entrywise = walk.distance_to_limit(n, horizon, kind="entrywise")
    assert entrywise == pytest.approx(2 * n * induced, rel=1e-12)
    with pytest.raises(ValueError):
        walk.distance_to_limit(n, horizon, kind="frobenius")


def test_distance_to_limit_against_dense_norm():
    n = 5
    horizon = 80.0
    avg = walk.averaged_matrix(n, horizon)
    diff = avg.to_dense() - walk.limiting_distribution(n).to_dense()
    induced_oracle = np.max(np.abs(diff).sum(axis=0))
    entrywise_oracle = np.abs(diff).sum()
    assert walk.averaged_distance_to_limit(avg, kind="induced") == pytest.approx(induced_oracle, rel=1e-10)
    assert walk.averaged_distance_to_limit(avg, kind="entrywise") == pytest.approx(entrywise_oracle, rel=1e-10)


def test_convergence_series_decreases_overall():
    horizons = [1e2, 1e3, 1e4, 1e5]
    series = walk.convergence_to_limit(11, horizons)
    assert [T for T, _ in series] == horizons
    distances = [d for _, d in series]
    assert distances[-1] < distances[0] / 100.0


def test_horizon_validation():
    with pytest.raises(ValueError):
        walk.averaged_matrix(5, 0.0)
    with pytest.raises(ValueError):
        walk.averaged_matrix(5, -3.0)
    with pytest.raises(ValueError):
        walk.check_horizon(float("nan"))
    with pytest.raises(ValueError):
        walk.averaged_entry(5, 5, 1, 10.0)
    with pytest.raises(ValueError):
        walk.averaged_entry(5, 0, 2, 10.0)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            walk.averaged_matrix(5, bad)
        with pytest.raises(ValueError, match="finite"):
            walk.averaged_entry(5, 0, 1, bad)


def test_nan_residue_trips_imaginary_guard(monkeypatch):
    monkeypatch.setattr(walk, "phase_average", lambda x, T: np.full(np.shape(x), np.nan + 1j * np.nan))
    with pytest.raises(RuntimeError, match="imaginary residue"):
        walk.averaged_matrix(5, 10.0)
    with pytest.raises(RuntimeError, match="imaginary residue"):
        walk.averaged_entry(5, 0, 1, 10.0)
