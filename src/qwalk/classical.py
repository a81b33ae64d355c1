"""Discrete-time random walk diagnostics on the same graph.

The transition matrix is the normalized adjacency, so one step moves to a
uniformly random neighbor.  Provides fast distinct-value profiles, the
distances used to define mixing, and a measured mixing time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dihedral import check_odd_order
from .spectra import DEFAULT_EPSILON, MINUS, PLUS, check_mixing_epsilon, eigenvalues

# entries `profile_column_distance` compares at once (2 MiB per float array)
COLUMN_BLOCK = 2**18


def check_step_count(t) -> None:
    if not isinstance(t, (int, np.integer)) or t < 0:
        raise ValueError(f"step count must be a nonnegative integer, got {t!r}")


def classical_profile(n, t) -> np.ndarray:
    """The 2n distinct entries of (A/3)^t as a (2, n) array over
    (block parity, residue offset); O(n log n) via branch eigenvalue powers."""
    check_odd_order(n)
    check_step_count(t)
    return classical_profiles(n, [t])[0]


def classical_profiles(n, ts) -> np.ndarray:
    """Profiles for many step counts at once; shape (len(ts), 2, n).

    Each block is reduced to float before the next one is formed, so only
    one complex transform of the len(ts) x n batch is alive at a time.
    """
    check_odd_order(n)
    ts = np.asarray(ts, dtype=np.int64)
    if ts.size and ts.min() < 0:
        raise ValueError("step counts must be nonnegative")
    zp = np.power(eigenvalues(n, PLUS)[None, :], ts[:, None])
    zm = np.power(eigenvalues(n, MINUS)[None, :], ts[:, None])
    blocks = [np.fft.ifft(op(zp, zm), axis=1).real / 2.0 for op in (np.add, np.subtract)]
    return np.stack(blocks, axis=1)


def profile_column_distance(n, values) -> float:
    """d(P) for a matrix whose columns all carry the same (2, n) value
    profile; O(n^2) by comparing one reference column against every
    (offset, block) relabeling, COLUMN_BLOCK entries at a time.

    The reference column read over rows is the reversed profile, and the
    column at offset y is that vector rotated by y, so the relabelings are
    the windows of its doubled copy; a block swap exchanges the two halves.
    """
    vals = np.asarray(values, dtype=float)
    base = vals[:, (-np.arange(n)) % n]
    windows = sliding_window_view(np.concatenate([base, base[:, :-1]], axis=1), n, axis=1)
    step = max(1, COLUMN_BLOCK // n)
    best = 0.0
    for top, bottom in ((0, 1), (1, 0)):
        for first in range(0, n, step):
            rotated = windows[:, first : first + step]
            gaps = np.abs(base[0] - rotated[top]).sum(axis=1) + np.abs(base[1] - rotated[bottom]).sum(axis=1)
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
    distance_series: list = field(default_factory=list)
    norm_kind: str = "half_induced"
    epsilon: float = DEFAULT_EPSILON

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


def classical_mixing_time(n, epsilon=None, norm_kind="half_induced") -> MixingReport:
    """Smallest integer t whose distance to uniform is at most epsilon.

    Doubles until below threshold, then bisects on integers.  Both norms
    are non-increasing in t: a stochastic step cannot increase the total
    variation distance from a fixed start to the stationary law, nor
    between two columns (Levin, Peres & Wilmer, Markov Chains and Mixing
    Times, ch. 4).  So the bisection returns the first crossing, and the
    reported threshold certifies every later t as well.
    """
    check_odd_order(n)
    if epsilon is None:
        epsilon = DEFAULT_EPSILON
    check_mixing_epsilon(epsilon)
    series = []

    def probe(t):
        d = _classical_distance(n, t, norm_kind)
        series.append((t, d))
        return d

    if probe(0) <= epsilon:
        return MixingReport(0.0, series, norm_kind, epsilon)
    t = 1
    while probe(t) > epsilon:
        t *= 2
        if t > 2**40:
            raise RuntimeError(f"no mixing below {2**40} steps at n={n}")
    lo, hi = t // 2, t
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return MixingReport(float(hi), series, norm_kind, epsilon)
