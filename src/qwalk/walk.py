"""Continuous-time walk generated by the normalized adjacency.

Covers the instantaneous propagator e^{i A t / 3}, its transition
probabilities, the finite-horizon time average, and the exact limiting
distribution.  Everything is O(n) or O(n^2) through the two cosine
eigenvalue families; a dense eigendecomposition oracle is kept only for
cross-checking.

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
    check_odd_order,
    check_vertex,
    pair_geometry,
    pair_values_dense,
    pair_values_row,
    pair_values_rows,
)
from .spectra import MINUS, PLUS, eigenbasis, eigenvalues, folded_modes, full_spectrum

ORACLE_SIZE_CAP = 512

# tolerance on the imaginary residue of assembled real quantities
IMAG_TOL = 1e-9

# acceptable drift of a probability row's total away from 1
ROW_SUM_TOL = 1e-9

# kernel values `averaged_matrix` evaluates at once (2 MiB per float array)
KERNEL_BLOCK = 2**18


def check_horizon(T) -> None:
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"averaging horizon must be positive and finite, got {T!r}")


def amplitude(n, i, j, t) -> complex:
    """Transition amplitude <j| e^{i A t / 3} |i> in O(n) via the two branches."""
    check_odd_order(n)
    delta, eps = pair_geometry(n, i, j)
    lp = eigenvalues(n, PLUS)
    lm = eigenvalues(n, MINUS)
    phase = np.exp(2j * np.pi * np.arange(n) * delta / n)
    total = (phase * (np.exp(1j * lp * t) + eps * np.exp(1j * lm * t))).sum()
    return complex(total / (2 * n))


def probability(n, i, j, t) -> float:
    """Probability of finding the walker at j at time t, started at i."""
    return abs(amplitude(n, i, j, t)) ** 2


def _probability_profiles(n, times) -> np.ndarray:
    """P_t profiles for many times at once; shape (len(times), 2, n).

    The graph is the prism C_n x K_2, so the branch eigenvalues are
    (2 cos(2 pi m / n) +- 1) / 3 and the walk factorises into an n-cycle
    walk times a two-state coin.  With a = ifft(e^{2 i t cos(2 pi m / n) / 3})
    the same-block amplitude is cos(t / 3) a and the other-block one
    i sin(t / 3) a: one inverse DFT per time.
    """
    times = np.asarray(times, dtype=float)
    ring = (2.0 / 3.0) * np.cos(2.0 * np.pi * np.arange(n) / n)
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


def propagator_oracle(n, t, size_cap=ORACLE_SIZE_CAP) -> np.ndarray:
    """Dense U(t) assembled from the analytic orthonormal eigenbasis.

    Reference path for validating the closed-form entries; refuses sizes
    where the O(n^3) assembly stops being a sane cross-check.
    """
    check_odd_order(n)
    if n > size_cap:
        raise ValueError(f"oracle capped at n={size_cap}, got n={n}")
    basis = eigenbasis(n)
    lam = full_spectrum(n)
    return (basis * np.exp(1j * lam * t)) @ basis.conj().T


def phase_average(x, T):
    """(1/T) integral_0^T e^{i x t} dt, evaluated as e^{i x T / 2} sinc(x T / (2 pi)).

    Exact at x = 0 and free of subtractive cancellation for small |x T|.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(0.5j * x * T) * np.sinc(x * T / (2.0 * np.pi))


def real_phase_average(x, T):
    """Real part of `phase_average`: sin(x T) / (x T), exactly 1 at x = 0."""
    return np.sinc(np.asarray(x, dtype=float) * (T / np.pi))


def averaged_entry(n, delta, eps, T) -> float:
    """Time-averaged transition probability for a vertex pair at residue
    offset delta with block sign eps.

    Direct O(n^2) double sum over mode pairs of both branches; the
    assembled value must be real up to a 1e-9 residue, which is checked
    and then discarded.
    """
    check_odd_order(n)
    check_horizon(T)
    if not 0 <= delta < n:
        raise ValueError(f"residue offset {delta!r} out of range [0, {n})")
    if eps not in (1, -1):
        raise ValueError(f"block sign must be +1 or -1, got {eps!r}")
    lp = eigenvalues(n, PLUS)
    lm = eigenvalues(n, MINUS)
    m = np.arange(n)
    w = np.exp(2j * np.pi * delta * (m[:, None] - m[None, :]) / n)
    total = 0.0 + 0.0j
    for sa, la in ((PLUS, lp), (MINUS, lm)):
        for sb, lb in ((PLUS, lp), (MINUS, lm)):
            sgn = eps if sa != sb else 1
            total += sgn * (w * phase_average(la[:, None] - lb[None, :], T)).sum()
    total /= (2 * n) ** 2
    if not (abs(total.imag) <= IMAG_TOL):
        raise RuntimeError(f"imaginary residue {total.imag} above tolerance")
    return float(total.real)


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

    def distance_to_limit(self, kind="induced") -> float:
        return averaged_distance_to_limit(self, kind=kind)


def averaged_matrix(n, T) -> AveragedWalkMatrix:
    """All distinct time-averaged entries from about n^2 / 2 real kernel
    values, in O(n + KERNEL_BLOCK) memory.

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
    cos = np.cos(2.0 * angle)
    # binned[0] collects same-branch kernel values, binned[1] cross-branch
    binned = np.zeros((2, size))
    block_rows = max(1, KERNEL_BLOCK // size)
    for first in range(0, size, block_rows):
        r = slice(first, first + block_rows)
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


def averaged_distance_to_limit(avg: AveragedWalkMatrix, kind="induced") -> float:
    """Distance between a finite-horizon average and the limit.

    Columns of both matrices are value-permutations of the same (2, n)
    profiles, so the induced 1-norm (max absolute column sum) equals the
    profile deviation summed once, and the entrywise 1-norm is 2n times it.
    """
    pi = limiting_distribution(avg.n)
    dev = float(np.abs(avg.values - pi.values()).sum())
    if kind == "induced":
        return dev
    if kind == "entrywise":
        return 2 * avg.n * dev
    raise ValueError(f"unknown norm kind {kind!r}")


def distance_to_limit(n, T, kind="induced") -> float:
    """||averaged matrix at horizon T - limit||_1 in O(n^2)."""
    return averaged_distance_to_limit(averaged_matrix(n, T), kind=kind)


def convergence_to_limit(n, horizons, kind="induced") -> list[tuple[float, float]]:
    """(T, distance) pairs over a horizon schedule."""
    return [(float(T), distance_to_limit(n, T, kind=kind)) for T in horizons]
