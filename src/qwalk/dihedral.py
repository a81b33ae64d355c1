"""The Cayley graph of D_2n (odd n) on {a, a^-1, b} in its two-block
circulant relabeling: the prism C_n x K_2 (two n-cycles joined residue
to residue), a Cayley graph of the abelian group Z_n x Z_2.

Vertices of the 2n x 2n matrices are indexed 0..2n-1: index i sits in block
i // n with cycle residue i % n.  Block 0 holds the rotations, block 1 the
reflections.  Every matrix the package builds is a (2, n) profile over
(block parity, residue offset): the graph is `adjacency_profile`, and
`cosine_profiles` finishes every real kernel.  The group law is a test
oracle that the relabeling is checked against.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# entries a chunked loop handles at once (2 MiB per float array)
BLOCK = 2**18


def blocks(count, width) -> list[slice]:
    """Slices that cut range(count) into runs of max(1, BLOCK // width), so
    each run of `width`-wide rows holds about BLOCK entries."""
    step = max(1, BLOCK // width)
    return [slice(first, min(first + step, count)) for first in range(0, count, step)]


def check_odd_order(n) -> None:
    """Reject cycle lengths the closed-form machinery does not cover."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")


def check_vertex(n, i) -> None:
    if not isinstance(i, (int, np.integer)):
        raise ValueError(f"vertex index must be an integer, got {i!r}")
    if not 0 <= i < 2 * n:
        raise ValueError(f"vertex index {i} out of range [0, {2 * n})")


def pair_geometry(n, i, j) -> tuple[int, int]:
    """Residue offset (rho_j - rho_i) mod n and block sign for a vertex pair.

    The sign is +1 when both vertices lie in the same block, -1 otherwise.
    Every pairwise walk quantity in this package depends on (i, j) only
    through this pair.
    """
    check_vertex(n, i)
    check_vertex(n, j)
    delta = (int(j) % n - int(i) % n) % n
    eps = 1 if (int(i) // n) == (int(j) // n) else -1
    return delta, eps


def adjacency_profile(n) -> np.ndarray:
    """The graph as a (2, n) 0/1 profile, the one statement of the neighbour
    rule: residues +-1 in a vertex's own block, its own residue in the other."""
    check_odd_order(n)
    profile = np.zeros((2, n), dtype=np.int64)
    profile[[0, 0, 1], [1, -1, 0]] = 1
    return profile


def semi_cayley_adjacency(n) -> np.ndarray:
    """Dense 0/1 adjacency: n-cycle diagonal blocks, identity off-diagonal ones."""
    return pair_values_dense(n, adjacency_profile(n))


def pair_values_rows(n, values, vertices) -> np.ndarray:
    """Rows of the 2n x 2n matrix whose (i, j) entry is
    values[0 if same block else 1, (rho_j - rho_i) mod n], one per vertex.

    values is one (2, n) profile shared by every row, or a (k, 2, n) stack
    with one profile per vertex; the result has shape (k, 2n).
    """
    vertices = np.asarray(vertices)
    if vertices.size and (vertices.min() < 0 or vertices.max() >= 2 * n):
        raise ValueError(f"vertex indices must lie in [0, {2 * n})")
    # flat index into the (2n,) profile: a vertex in block b reads
    # values[b] on block-0 columns and values[1 - b] on block-1 columns
    base = (vertices // n)[:, None] * n
    idx = (np.arange(n) - vertices[:, None] % n) % n
    cols = np.concatenate([idx + base, idx + (n - base)], axis=1)
    values = np.asarray(values)
    if values.ndim == 2:
        return values.reshape(2 * n)[cols]
    return np.take_along_axis(values.reshape(-1, 2 * n), cols, axis=1)


def pair_values_row(n, values, i) -> np.ndarray:
    """Row i of the `pair_values_rows` expansion of a (2, n) profile."""
    check_vertex(n, i)
    return pair_values_rows(n, values, [i])[0]


def pair_values_dense(n, values) -> np.ndarray:
    """Full matrix expansion of a (2, n) distinct-value profile.

    Each n x n block is the circulant C[r, c] = v[(c - r) mod n]; its rows
    are the length-n windows of v[1:] + v, read bottom to top.
    """
    same, other = (
        sliding_window_view(np.concatenate([v[1:], v]), n)[::-1] for v in np.asarray(values)
    )
    return np.block([[same, other], [other, same]])


def cosine_profiles(plus, minus, n) -> np.ndarray:
    """(..., 2, n) profiles of folded branch coefficients j = 0..(n-1)/2:
    P + M on the same block and P - M on the other, with P and M the sums
    sum_j c_j cos(2 pi j delta / n) of plus and minus.  They are even in
    delta, so delta = 0..(n-1)/2 is transformed and the rest mirrored."""
    same, cross = (np.fft.rfft(c, n).real for c in (plus, minus))
    half = np.stack([same + cross, same - cross], axis=-2)
    return np.concatenate([half, half[..., :0:-1]], axis=-1)
