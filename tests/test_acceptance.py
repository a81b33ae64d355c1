"""Acceptance suite: ten end-to-end checks with stated tolerances and
runtime budgets.

Each test prints one pass/fail line (visible under pytest -s) and fails
loudly if its check or its runtime budget is violated.
"""

import time
from fractions import Fraction

import numpy as np

from qwalk import bounds, classical, cli, dihedral, sampling, spectra, walk

import oracles


def criterion(number, name, budget_s, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {number:02d} {name}: PASS ({elapsed:.1f}s)"
    print(line, flush=True)
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s"


def test_criterion_01_oracle_equivalence():
    def body():
        for n in (3, 5, 7, 11):
            for t in (0.1, 1.0, 3.7, 10.0):
                closed = walk.probability_matrix(n, t)
                oracle = np.abs(oracles.propagator_oracle(n, t)) ** 2
                assert np.max(np.abs(closed - oracle.T)) <= 1e-9

    criterion(1, "closed form matches eigendecomposition oracle", 10.0, body)


def test_criterion_02_averaged_convergence_and_exact_limit():
    def body():
        horizon = 1e6
        for n in (3, 11, 21):
            assert walk.distance_to_limit(n, horizon) <= 0.01
            pi = walk.limiting_distribution(n)
            assert pi.row_sum() == Fraction(1)
            assert pi.min_entry() >= Fraction(1, (2 * n) ** 2)

    criterion(2, "averaged walk reaches its exact limit", 30.0, body)


def test_criterion_03_decomposition_identity_sweep():
    def body():
        for n in range(5, 202, 2):
            brute = bounds.eigengap_inverse_sum_bruteforce(n)
            dec = bounds.decomposed_sum(n)
            assert abs(dec.total - brute) <= 1e-6 * brute, n

    criterion(3, "gap sum decomposition identity over n in [5, 201]", 60.0, body)


def test_criterion_04_quadrant_and_within_branch_caps():
    def body():
        for n in range(5, 1002, 2):
            su = bounds.su_sums(n)
            caps = bounds.su_caps(n)
            assert su.su1 <= caps["su1"], n
            assert su.su2 <= caps["su2"], n
            assert su.su4 <= caps["su4"], n
            assert bounds.case5_sum(n) <= bounds.within_branch_cap(n), n

    criterion(4, "closed-form caps over n in [5, 1001]", 300.0, body)


def test_criterion_05_conjecture_sweep_and_csv(tmp_path):
    def body():
        target = tmp_path / "sweep.csv"
        code = cli.main(["conjecture", "--n-max", "2001", "--out", str(target)])
        assert code == 0
        lines = [ln for ln in target.read_text().splitlines() if ln and not ln.startswith("#")]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(list(range(5, 2002, 2)))
        residues = {1: 0, 3: 0}
        for row in rows:
            n = int(row[0])
            residues[n % 4] += 1
            su3 = float(row[2])
            f_n = float(row[3])
            # CSV values round-trip the direct evaluation exactly
            assert f_n == bounds.conjecture_f(n), n
            assert su3 <= f_n, n
            assert row[7] == "true", n
        assert residues[1] > 0 and residues[3] > 0
        spot = (5, 9, 101, 1001, 2001)
        for n in spot:
            assert float(dict((int(r[0]), r[2]) for r in rows)[n]) == bounds.su3_raw(n)
        for n in range(5, 10001, 2):
            f_n = bounds.conjecture_f(n)
            cap5, _ = bounds.conjecture_caps(n)
            assert f_n <= cap5, n

    criterion(5, "near-resonance bound sweep and CSV round trip", 300.0, body)


def test_criterion_06_distance_bounded_by_gap_sum():
    def body():
        for n in (5, 11, 21, 51):
            gap_sum = bounds.eigengap_inverse_sum_bruteforce(n)
            for horizon in (1e2, 1e3, 1e4):
                lhs = walk.distance_to_limit(n, horizon)
                assert lhs <= gap_sum / (n * horizon), (n, horizon)

    criterion(6, "averaged distance under the gap-sum bound", 120.0, body)


def test_criterion_07_budget_and_classical_lower_bound():
    def body():
        for n in (101, 149):
            quantum = bounds.quantum_mixing_threshold(n)
            assert quantum.threshold_time <= bounds.budget_time(n), n
            tau = classical.classical_mixing_time(n)
            lam = spectra.second_largest_eigenvalue(n)
            assert tau.threshold_time >= (1.0 / (1.0 - lam) - 1.0), n

    criterion(7, "thresholds respect budget and spectral lower bound", 300.0, body)


def test_criterion_08_classical_scaling_exponent():
    def body():
        ns = np.array([21, 41, 81, 161], dtype=float)
        taus = np.array(
            [classical.classical_mixing_time(int(n)).threshold_time for n in ns]
        )
        slope = np.polyfit(np.log(ns), np.log(taus), 1)[0]
        assert 1.7 <= slope <= 2.3, slope

    criterion(8, "classical mixing time scales quadratically", 120.0, body)


def test_criterion_09_sampler_statistics():
    def body():
        config = sampling.SamplerConfig(
            n=7, start_vertex=0, horizon=500.0, steps=20, trials=20000, seed=7
        )
        hist = sampling.empirical_check(config)
        assert hist.counts.sum() == 20000
        assert hist.tv_to_uniform <= 0.05
        one_step = sampling.SamplerConfig(
            n=7, start_vertex=0, horizon=500.0, steps=1, trials=100000, seed=11
        )
        kernel_hist = sampling.empirical_check(one_step)
        kernel = walk.averaged_matrix(7, 500.0).row(0)
        tv = 0.5 * float(np.abs(kernel_hist.frequencies - kernel).sum())
        assert tv <= 0.02

    criterion(9, "sampler endpoint and one-step kernel statistics", 120.0, body)


def test_criterion_10_property_suite():
    def body():
        # group axioms, exhaustively for every order up to 7
        for n in (3, 5, 7):
            els = oracles.elements(n)
            e = oracles.identity(n)
            assert len(set(els)) == 2 * n
            for x in els:
                assert oracles.mul(x, x.inverse()) == e
                for y in els:
                    assert oracles.mul(x, y) in set(els)
                    for z in els:
                        assert oracles.mul(oracles.mul(x, y), z) == oracles.mul(
                            x, oracles.mul(y, z)
                        )
        # the relabeling is a graph isomorphism, exhaustively up to 11
        for n in (3, 5, 7, 9, 11):
            graph = oracles.cayley_graph(n)
            target = dihedral.semi_cayley_adjacency(n)
            for x in graph.elements:
                for y in graph.elements:
                    assert graph.has_edge(x, y) == bool(target[oracles.phi(x), oracles.phi(y)])
        # every transition matrix is symmetric and doubly stochastic
        rng = np.random.default_rng(1729)
        for _ in range(10):
            n = int(rng.choice([3, 5, 9, 13]))
            t = float(rng.uniform(0.0, 50.0))
            mat = walk.probability_matrix(n, t)
            avg = walk.averaged_matrix(n, t + 0.5).to_dense()
            for m in (mat, avg):
                assert np.max(np.abs(m - m.T)) <= 1e-12
                assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-9
                assert np.min(m) >= -1e-12
        # norm sandwich on random doubly stochastic matrices
        for _ in range(20):
            size = int(rng.integers(4, 12))
            weights = rng.dirichlet(np.ones(5))
            mat = np.zeros((size, size))
            for w in weights:
                mat += w * np.eye(size)[rng.permutation(size)]
            uniform = np.full((size, size), 1.0 / size)
            d_value = oracles.max_pairwise_column_distance(mat)
            half = 0.5 * oracles.induced_one_norm_distance(mat, uniform)
            assert half <= d_value + 1e-12
            assert d_value <= 2.0 * half + 1e-12
        # distance submultiplicativity on 50 random power pairs
        for _ in range(50):
            t1 = int(rng.integers(0, 80))
            t2 = int(rng.integers(0, 80))
            assert oracles.submultiplicativity_check(9, t1, t2)

    criterion(10, "structural property suite", 60.0, body)
