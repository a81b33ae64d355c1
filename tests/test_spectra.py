"""Closed-form eigensystem of the normalized adjacency matrix.

numpy.linalg.eigh on the explicitly constructed matrix is the oracle.
"""

import math

import numpy as np
import pytest

from qwalk import spectra

import oracles


def test_frozen_spectrum_n3():
    plus = spectra.eigenvalues(3, spectra.PLUS)
    minus = spectra.eigenvalues(3, spectra.MINUS)
    assert plus[0] == pytest.approx(1.0, abs=1e-15)
    assert plus[1] == pytest.approx(0.0, abs=1e-15)
    assert plus[2] == pytest.approx(0.0, abs=1e-15)
    assert minus[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert minus[1] == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert minus[2] == pytest.approx(-2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("n", [3, 5, 9, 15])
def test_spectrum_matches_eigh(n):
    mat = oracles.normalized_adjacency(n)
    oracle = np.sort(np.linalg.eigvalsh(mat))
    ours = np.sort(spectra.full_spectrum(n))
    assert np.max(np.abs(oracle - ours)) < 1e-10


@pytest.mark.parametrize("n", [3, 5, 11])
def test_eigenvectors_are_eigenvectors(n):
    mat = oracles.normalized_adjacency(n)
    for branch in (spectra.PLUS, spectra.MINUS):
        for m in range(n):
            vec = oracles.eigenvector(n, m, branch)
            lam = spectra.eigenvalue(n, m, branch)
            assert np.linalg.norm(mat @ vec - lam * vec) < 1e-10


@pytest.mark.parametrize("n", [3, 7, 11])
def test_eigenbasis_unitary(n):
    basis = oracles.eigenbasis(n)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(2 * n))) < 1e-10


def test_eigenvector_components():
    n = 5
    vec = oracles.eigenvector(n, 2, spectra.MINUS)
    scale = 1.0 / math.sqrt(2 * n)
    for i in range(2 * n):
        expected = oracles.eigenvector_component(n, 2, spectra.MINUS, i)
        assert vec[i] == pytest.approx(expected, abs=1e-15)
    assert vec[0] == pytest.approx(scale, abs=1e-15)
    # reflection block carries the opposite sign on the minus branch
    assert vec[n] == pytest.approx(-scale, abs=1e-15)


@pytest.mark.parametrize("n", [3, 5, 21, 101, 2001])
def test_eigenvalues_read_the_mode_cosine_grid(n):
    # both branches and every single eigenvalue come from mode_cosines,
    # bit for bit
    cos = spectra.mode_cosines(n)
    assert cos.shape == (n,) and cos[0] == 1.0
    for branch in (spectra.PLUS, spectra.MINUS):
        values = spectra.eigenvalues(n, branch)
        assert np.array_equal(values, (2 * cos + branch) / 3)
        for m in {0, 1, n // 2, n - 1}:
            assert spectra.eigenvalue(n, m, branch) == values[m]


def test_trace_identities():
    for n in (3, 5, 21, 101):
        spec = spectra.full_spectrum(n)
        assert abs(spec.sum()) < 1e-9
        assert np.sum(spec**2) == pytest.approx(2 * n / 3.0, rel=1e-12)


def test_second_largest_eigenvalue():
    for n in (3, 5, 9, 33):
        spec = np.sort(spectra.full_spectrum(n))[::-1]
        assert spec[0] == pytest.approx(1.0, abs=1e-12)
        assert spectra.second_largest_eigenvalue(n) == pytest.approx(spec[1], abs=1e-12)
    # at n = 3 the antisymmetric branch's constant 1/3 is the runner-up
    assert spectra.second_largest_eigenvalue(3) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_second_eigenvalue_grows_toward_one():
    values = [spectra.second_largest_eigenvalue(n) for n in (5, 11, 51, 501)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_classical_lower_bound_values():
    # n=3: second eigenvalue 1/3 gives relaxation time 1/2
    assert spectra.classical_lower_bound(3, 0.1) == pytest.approx(0.5 * math.log(5.0), rel=1e-12)
    n = 21
    eps = 1.0 / (2.0 * math.e)
    lam = spectra.second_largest_eigenvalue(n)
    expected = (1.0 / (1.0 - lam) - 1.0) * math.log(1.0 / (2.0 * eps))
    assert spectra.classical_lower_bound(n, eps) == pytest.approx(expected, rel=1e-12)
    assert spectra.classical_lower_bound(n, eps) == pytest.approx(32.76310448009486, rel=1e-12)


def test_classical_lower_bound_relaxed_is_smaller():
    for n in (21, 101, 1001):
        eps = spectra.DEFAULT_EPSILON
        assert oracles.classical_lower_bound_relaxed(n, eps) <= spectra.classical_lower_bound(n, eps)
        assert oracles.classical_lower_bound_relaxed(n, eps) == pytest.approx(
            3.0 * n * n / (4.0 * math.pi**2) - 1.0, rel=1e-12
        )


def test_epsilon_domain():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            spectra.check_epsilon(bad)
    with pytest.raises(ValueError):
        spectra.classical_lower_bound(5, 0.5)
    for bad in (0.0, 1.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            spectra.check_mixing_epsilon(bad)
    spectra.check_mixing_epsilon(0.5)


def test_branch_and_mode_validation():
    with pytest.raises(ValueError):
        spectra.eigenvalue(5, 5, spectra.PLUS)
    with pytest.raises(ValueError):
        spectra.eigenvalue(5, -1, spectra.PLUS)
    with pytest.raises(ValueError):
        spectra.eigenvalue(5, 0, 2)
    with pytest.raises(ValueError):
        spectra.eigenvalues(4, spectra.PLUS)
