"""Closed-form spectrum of the degree-normalized adjacency.

The 2n eigenvalues split into two cosine families indexed by m in [0, n):
(1 + 2 cos(2 pi m / n)) / 3 on the block-symmetric branch and
(2 cos(2 pi m / n) - 1) / 3 on the block-antisymmetric one.  For odd n the
two families never collide, the walk is ergodic, and the spectral gap is
set by (1 + 2 cos(2 pi / n)) / 3.  The eigenvectors are a test oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .dihedral import check_odd_order

PLUS = 1
MINUS = -1

# conventional mixing threshold
DEFAULT_EPSILON = 1.0 / (2.0 * math.e)


def check_mode(n, m) -> None:
    if not isinstance(m, (int, np.integer)) or not 0 <= m < n:
        raise ValueError(f"mode index {m!r} out of range [0, {n})")


def check_branch(branch) -> None:
    if branch not in (PLUS, MINUS):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")


def mode_cosines(n) -> np.ndarray:
    """cos(2 pi m / n) for m in [0, n), the grid the whole spectrum is built from."""
    check_odd_order(n)
    return np.cos(2.0 * np.pi * np.arange(n) / n)


def eigenvalue(n, m, branch) -> float:
    check_odd_order(n)
    check_mode(n, m)
    return float(eigenvalues(n, branch)[m])


def eigenvalues(n, branch) -> np.ndarray:
    """The n eigenvalues (2 cos(2 pi m / n) + branch) / 3 of one branch."""
    check_odd_order(n)
    check_branch(branch)
    return (2.0 * mode_cosines(n) + branch) / 3.0


def folded_modes(n) -> tuple[np.ndarray, np.ndarray]:
    """Representative modes 0..(n-1)/2 and their fold multiplicities
    (1 at the fixed point m = 0, else 2)."""
    check_odd_order(n)
    half = (n - 1) // 2
    mult = np.full(half + 1, 2.0)
    mult[0] = 1.0
    return np.arange(half + 1), mult


def full_spectrum(n) -> np.ndarray:
    """All 2n eigenvalues, block-symmetric branch first."""
    return np.concatenate([eigenvalues(n, PLUS), eigenvalues(n, MINUS)])


def second_largest_eigenvalue(n) -> float:
    """Largest eigenvalue below 1; strictly inside (0, 1) for odd n >= 3.

    (1 + 2 cos(2 pi / n)) / 3 from the symmetric branch wins for n >= 5;
    at n = 3 that mode drops to 0 and the antisymmetric branch's constant
    1/3 takes over.
    """
    return max(eigenvalue(n, 1, PLUS), eigenvalue(n, 0, MINUS))


def check_epsilon(epsilon) -> None:
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")


def check_mixing_epsilon(epsilon) -> None:
    """A mixing threshold's epsilon must lie in (0, 1); NaN is rejected too."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")


def classical_lower_bound(n, epsilon) -> float:
    """Spectral lower bound on the classical mixing time, in walk steps:
    max(0, (1 / (1 - lambda_2) - 1) ln(1 / (2 epsilon)))."""
    check_odd_order(n)
    check_epsilon(epsilon)
    gap = 1.0 - second_largest_eigenvalue(n)
    return max(0.0, (1.0 / gap - 1.0) * math.log(1.0 / (2.0 * epsilon)))
