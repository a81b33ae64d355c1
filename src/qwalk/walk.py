"""Continuous-time walk generated by the normalized adjacency.

Covers the transition probabilities of the propagator e^{i A t / 3}, the
finite-horizon time average, and the exact limiting distribution.
Everything is O(n log n) or O(n^2) through the two cosine eigenvalue
families; the dense propagator and the direct double sum are test oracles.

The graph is the prism C_n x K_2 (an n-cycle in each block, joined
residue to residue), so the two families differ by exactly 2/3 mode by
mode and P_t is an n-cycle walk times a two-state coin: one inverse DFT
per time, O(n log n) per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dihedral import (
    blocks,
    check_odd_order,
    check_vertex,
    pair_geometry,
    pair_values_dense,
    pair_values_row,
    pair_values_rows,
)
from .spectra import folded_modes, mode_cosines

# acceptable drift of a probability row's total away from 1
ROW_SUM_TOL = 1e-9


def check_horizon(T) -> None:
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"averaging horizon must be positive and finite, got {T!r}")


def _probability_profiles(n, times) -> np.ndarray:
    """P_t profiles for many times at once; shape (len(times), 2, n).

    The graph is the prism C_n x K_2, so the branch eigenvalues are
    (2 cos(2 pi m / n) +- 1) / 3 and the walk factorises into an n-cycle
    walk times a two-state coin.  With a = ifft(e^{2 i t cos(2 pi m / n) / 3})
    the same-block amplitude is cos(t / 3) a and the other-block one
    i sin(t / 3) a: one inverse DFT per time.
    """
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"walk times must be finite, got {times[~np.isfinite(times)][0]}")
    ring = (2.0 / 3.0) * mode_cosines(n)
    cycle = np.abs(np.fft.ifft(np.exp(1j * np.outer(times, ring)), axis=1)) ** 2
    coin = np.stack([np.cos(times / 3.0) ** 2, np.sin(times / 3.0) ** 2], axis=1)
    return coin[:, :, None] * cycle[:, None, :]


def probability_rows(n, vertices, times) -> np.ndarray:
    """Transition-probability rows for many (vertex, time) pairs; shape
    (len(vertices), 2n), one O(n log n) row per pair."""
    check_odd_order(n)
    return pair_values_rows(n, _probability_profiles(n, times), vertices)


def probability_row(n, i, t) -> np.ndarray:
    """All 2n transition probabilities from vertex i at time t."""
    check_odd_order(n)
    check_vertex(n, i)
    return pair_values_row(n, _probability_profiles(n, [t])[0], i)


def probability_matrix(n, t) -> np.ndarray:
    """Dense 2n x 2n probability matrix at time t; symmetric and doubly
    stochastic."""
    check_odd_order(n)
    return pair_values_dense(n, _probability_profiles(n, [t])[0])


def real_phase_average(x, T):
    """(1/T) integral_0^T cos(x t) dt = sin(x T) / (x T), exactly 1 at x = 0."""
    return np.sinc(np.asarray(x, dtype=float) * (T / np.pi))


@dataclass
class AveragedWalkMatrix:
    """Time-averaged transition matrix stored as its 2n distinct values.

    values[0, delta] holds same-block entries and values[1, delta]
    opposite-block ones; entry (i, j) depends on the pair only through
    ((rho_j - rho_i) mod n, block parity).  Each row and each column of
    the dense expansion contains every distinct value exactly once.
    """

    n: int
    T: float
    values: np.ndarray

    def entry(self, i, j) -> float:
        delta, eps = pair_geometry(self.n, i, j)
        return float(self.values[0 if eps == 1 else 1, delta])

    def row(self, i) -> np.ndarray:
        return pair_values_row(self.n, self.values, i)

    def to_dense(self) -> np.ndarray:
        return pair_values_dense(self.n, self.values)

    def distance_to_limit(self) -> float:
        """Induced 1-norm (max absolute column sum) distance to the limit.

        Columns of both matrices are value-permutations of the same (2, n)
        profiles, so that norm is the profile deviation summed once.
        """
        pi = limiting_distribution(self.n)
        return float(np.abs(self.values - pi.values()).sum())


def averaged_matrix(n, T) -> AveragedWalkMatrix:
    """All distinct time-averaged entries from about n^2 / 2 real kernel
    values, in O(n + BLOCK) memory.

    The average is real: a mode pair and its mirror (m, m') -> (-m, -m')
    carry conjugate phases, so only the real kernel sin(xT) / (xT) enters.
    Modes are folded to mu = 0..(n-1)/2 with weights w = (1, 2, 2, ...);
    the four preimages of (mu, mu') carry w w' / 2 times
    cos 2 pi delta (mu - mu') / n + cos 2 pi delta (mu + mu') / n, so each
    kernel value is binned at |mu - mu'| and at mu + mu' folded into
    0..(n-1)/2, and one cosine transform finishes the job.  Both
    same-branch pairings give the same gaps, and so do both cross-branch
    ones up to sign.  Mirror modes fold onto one mu, so their gap is 0
    exactly; same-branch gaps are taken in product form
    -(4/3) sin((a+b)/2) sin((a-b)/2) and keep full relative precision.
    """
    check_odd_order(n)
    check_horizon(T)
    mu, w = folded_modes(n)
    size = len(mu)
    angle = np.pi * mu / n
    cos = mode_cosines(n)[:size]
    # binned[0] collects same-branch kernel values, binned[1] cross-branch
    binned = np.zeros((2, size))
    for r in blocks(size, size):
        weight = (0.5 * w[r, None]) * w
        diff = np.abs(mu[r, None] - mu).ravel()
        total = mu[r, None] + mu
        fold = np.minimum(total, n - total).ravel()
        same = (-4.0 / 3.0) * np.sin(angle[r, None] + angle) * np.sin(angle[r, None] - angle)
        cross = (2.0 / 3.0) * (1.0 + cos[r, None] - cos)
        for out, gap in zip(binned, (same, cross)):
            k = (real_phase_average(gap, T) * weight).ravel()
            out += np.bincount(diff, k, size) + np.bincount(fold, k, size)
    # sum_j binned[j] cos(2 pi j delta / n) for delta = 0..(n-1)/2; the
    # profile is even in delta, so the rest is its mirror image
    same, cross = np.fft.rfft(binned, n, axis=1).real
    half_vals = np.vstack([same + cross, same - cross]) / (2 * n * n)
    vals = np.concatenate([half_vals, half_vals[:, :0:-1]], axis=1)
    # every row of the dense matrix holds each distinct value once
    drift = abs(vals.sum() - 1.0)
    if not (drift <= ROW_SUM_TOL):
        raise RuntimeError(f"averaged profile sum drifted {drift} away from 1")
    return AveragedWalkMatrix(n, float(T), vals)


@dataclass(frozen=True)
class LimitingDistribution:
    """Infinite-horizon average: every entry is one of two exact rationals.

    The value 1/(2n) + (n-1)/(2n^2) sits at the two delta = 0 entries of
    each column (one per block); all other entries equal
    1/(2n) - 1/(2n^2).  The block sign drops out because the two branches
    never share an eigenvalue for odd n.
    """

    n: int
    diagonal: Fraction
    off_diagonal: Fraction

    def entry(self, i, j) -> Fraction:
        delta, _ = pair_geometry(self.n, i, j)
        return self.diagonal if delta == 0 else self.off_diagonal

    def row_sum(self) -> Fraction:
        return 2 * self.diagonal + (2 * self.n - 2) * self.off_diagonal

    def min_entry(self) -> Fraction:
        return min(self.diagonal, self.off_diagonal)

    def values(self) -> np.ndarray:
        """(2, n) float profile matching AveragedWalkMatrix.values layout."""
        out = np.full((2, self.n), float(self.off_diagonal))
        out[:, 0] = float(self.diagonal)
        return out

    def to_dense(self) -> np.ndarray:
        return pair_values_dense(self.n, self.values())


def limiting_distribution(n) -> LimitingDistribution:
    check_odd_order(n)
    return LimitingDistribution(
        n,
        Fraction(1, 2 * n) + Fraction(n - 1, 2 * n * n),
        Fraction(1, 2 * n) - Fraction(1, 2 * n * n),
    )


def distance_to_limit(n, T) -> float:
    """||averaged matrix at horizon T - limit||_1 in O(n^2)."""
    return averaged_matrix(n, T).distance_to_limit()
