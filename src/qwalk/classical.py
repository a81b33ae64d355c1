"""Discrete-time random walk diagnostics on the same graph.

The transition matrix is the normalized adjacency, so one step moves to a
uniformly random neighbor.  Provides fast distinct-value profiles, the
distances used to define mixing, and a measured mixing time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dihedral import blocks, check_odd_order, circulant, cosine_profiles
from .spectra import DEFAULT_EPSILON, check_mixing_epsilon, folded_eigenvalues, folded_modes


def check_step_count(t) -> None:
    if not isinstance(t, (int, np.integer)) or t < 0:
        raise ValueError(f"step count must be a nonnegative integer, got {t!r}")


def classical_profile(n, t) -> np.ndarray:
    """The 2n distinct entries of (A/3)^t as a (2, n) array over
    (block parity, residue offset); O(n log n) via branch eigenvalue powers."""
    check_step_count(t)
    return classical_profiles(n, [t])[0]


def classical_profiles(n, ts) -> np.ndarray:
    """Profiles for many step counts at once; shape (len(ts), 2, n): one
    cosine transform of the folded branch powers lambda_+-^t, so each
    profile is exactly even in the residue offset."""
    check_odd_order(n)
    ts = np.asarray(ts)
    if ts.size and not np.issubdtype(ts.dtype, np.integer):
        raise ValueError(f"step counts must be integers, got dtype {ts.dtype}")
    if ts.size and ts.min() < 0:
        raise ValueError("step counts must be nonnegative")
    _, w = folded_modes(n)
    plus, minus = (w * lam ** ts[:, None] for lam in folded_eigenvalues(n))
    return cosine_profiles(plus, minus, n) / (2 * n)


def profile_column_distance(n, values) -> float:
    """d(P) for a matrix whose columns all carry the same (2, n) value
    profile; O(n^2) by comparing one reference column against every
    (offset, block) relabeling, BLOCK entries at a time.

    Column y of a circulant, read over rows, is row y of the circulant of
    the reversed profile, so the relabelings are the rows of
    circulant(reversed profile); a block swap exchanges the two halves.
    """
    vals = np.asarray(values, dtype=float)
    columns = circulant(vals[:, (-np.arange(n)) % n])
    base = columns[:, 0]
    best = 0.0
    for top, bottom in ((0, 1), (1, 0)):
        for r in blocks(n, n):
            gaps = np.abs(base[0] - columns[top, r]).sum(axis=1) + np.abs(base[1] - columns[bottom, r]).sum(axis=1)
            best = max(best, 0.5 * float(gaps.max()))
    return best


def half_uniform_distances(n, profiles) -> np.ndarray:
    """0.5 ||P - uniform||_1 for each (2, n) profile of a (..., 2, n) stack."""
    dev = np.abs(np.asarray(profiles, dtype=float) - 1.0 / (2 * n))
    return 0.5 * dev.reshape(dev.shape[:-2] + (-1,)).sum(axis=-1)


def half_uniform_distance(n, t) -> float:
    """0.5 ||(A/3)^t - uniform||_1 from the distinct-value profile."""
    return float(half_uniform_distances(n, classical_profile(n, t)))


@dataclass
class MixingReport:
    """Measured mixing threshold plus the probe trail that produced it."""

    threshold_time: float
    distance_series: list
    norm_kind: str
    epsilon: float

    def to_dict(self) -> dict:
        return {
            "threshold_time": self.threshold_time,
            "norm_kind": self.norm_kind,
            "epsilon": self.epsilon,
            "distance_series": [[float(t), float(d)] for t, d in self.distance_series],
        }


def _classical_distance(n, t, norm_kind) -> float:
    if norm_kind == "half_induced":
        return half_uniform_distance(n, t)
    if norm_kind == "column_pairs":
        return profile_column_distance(n, classical_profile(n, t))
    raise ValueError(f"unknown norm kind {norm_kind!r}")


def bracket_search(distance, epsilon, cap, resolved, midpoint) -> tuple:
    """(upper end, probe trail) of a bracket on a crossing of `distance`
    to at most epsilon.

    Probes t = 1, 2, 4, ... until one is at or below epsilon (a RuntimeError
    past cap), then bisects the last doubling at `midpoint(lo, hi)` until
    `resolved(lo, hi)`.  The trail lists each (t, distance(t)) probed.
    """
    series = []

    def probe(t):
        d = distance(t)
        series.append((t, d))
        return d

    lo, hi = 0, 1
    while probe(hi) > epsilon:
        lo, hi = hi, 2 * hi
        if hi > cap:
            raise RuntimeError(f"distance stays above {epsilon} up to {cap}")
    while not resolved(lo, hi):
        mid = midpoint(lo, hi)
        if probe(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi, series


def classical_mixing_time(n, epsilon=DEFAULT_EPSILON, norm_kind="half_induced") -> MixingReport:
    """Smallest integer t whose distance to uniform is at most epsilon.

    Probes t = 0, then runs `bracket_search` on integers.  Both norms are
    non-increasing in t: a stochastic step cannot increase the total
    variation distance from a fixed start to the stationary law, nor
    between two columns (Levin, Peres & Wilmer, Markov Chains and Mixing
    Times, ch. 4).  So the bisection returns the first crossing, and the
    reported threshold certifies every later t as well.
    """
    check_odd_order(n)
    check_mixing_epsilon(epsilon)
    d0 = _classical_distance(n, 0, norm_kind)
    if d0 <= epsilon:
        return MixingReport(0.0, [(0, d0)], norm_kind, epsilon)
    hi, series = bracket_search(
        lambda t: _classical_distance(n, t, norm_kind), epsilon, 2**40,
        lambda lo, hi: hi - lo <= 1, lambda lo, hi: (lo + hi) // 2,
    )
    return MixingReport(float(hi), [(0, d0), *series], norm_kind, epsilon)
