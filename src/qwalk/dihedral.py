"""The Cayley graph of D_2n (odd n) on {a, a^-1, b} in its two-block
circulant relabeling: the prism C_n x K_2 (two n-cycles joined residue
to residue), a Cayley graph of the abelian group Z_n x Z_2.

Vertices of the 2n x 2n matrices are indexed 0..2n-1: index i sits in block
i // n with cycle residue i % n.  Block 0 holds the rotations, block 1 the
reflections.  Every matrix the package builds is a (2, n) profile over
(block flip, residue offset) that `pair_cell` addresses, `cell_vertex`
inverts and `circulant` expands; the graph is `adjacency_profile`, and
`cosine_profiles` finishes every real kernel.  The group law is a test
oracle for the relabeling.
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


def pair_cell(n, i, j) -> tuple[int, int]:
    """(flip, delta): the cell of a (2, n) profile that holds entry (i, j).

    flip is 1 when the vertices lie in different blocks and 0 otherwise,
    delta the residue offset (rho_j - rho_i) mod n, so values[pair_cell(n, i, j)]
    is the entry.  Every pairwise walk quantity in this package depends on
    (i, j) only through this cell.
    """
    check_vertex(n, i)
    check_vertex(n, j)
    return (int(i) // n) ^ (int(j) // n), (int(j) - int(i)) % n


def cell_vertex(n, i, flip, delta):
    """The vertex j with pair_cell(n, i, j) == (flip, delta), elementwise:
    residue i + delta in block (i // n) ^ flip, the one place a cell is
    turned back into a vertex."""
    return ((i // n) ^ flip) * n + (i + delta) % n


def circulant(values) -> np.ndarray:
    """Read-only view C[..., r, c] = values[..., (c - r) mod n] of a (..., n)
    stack, the one place a profile is expanded to a matrix: row r is the
    length-n window at offset n - r of one doubled copy of values."""
    values = np.asarray(values)
    n = values.shape[-1]
    return sliding_window_view(np.concatenate([values, values], axis=-1), n, axis=-1)[..., n:0:-1, :]


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


def pair_values_row(n, values, i) -> np.ndarray:
    """Row i of the 2n x 2n matrix whose (i, j) entry is
    values[pair_cell(n, i, j)]: row rho = i mod n of each block's
    circulant, read without building it as that profile rotated right by
    rho, two contiguous slices."""
    check_vertex(n, i)
    block, rho = divmod(int(i), n)
    cut = n - rho
    return np.concatenate([part for b in (block, 1 - block) for part in (values[b, cut:], values[b, :cut])])


def pair_values_dense(n, values) -> np.ndarray:
    """Full matrix expansion of a (2, n) distinct-value profile: each n x n
    block is a circulant, the same-block one on the diagonal."""
    same, other = circulant(values)
    return np.block([[same, other], [other, same]])


def cosine_profiles(plus, minus, n) -> np.ndarray:
    """(..., 2, n) profiles of branch coefficients c_j, j < n (folded: j <= n/2):
    P + M on the same block and P - M on the other, with P and M the sums
    sum_j c_j cos(2 pi j delta / n) of plus and minus.  They are even in
    delta, so delta = 0..(n-1)/2 is transformed and the rest mirrored."""
    same, cross = (np.fft.rfft(c, n).real for c in (plus, minus))
    half = np.stack([same + cross, same - cross], axis=-2)
    return np.concatenate([half, half[..., :0:-1]], axis=-1)
