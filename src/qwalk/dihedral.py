"""Dihedral group of order 2n for odd n, its Cayley graph on {a, a^-1, b},
and the equivalent two-block circulant adjacency.

Vertices of the 2n x 2n matrices are indexed 0..2n-1: index i sits in block
i // n with cycle residue i % n.  Block 0 holds the rotations, block 1 the
reflections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def block(n, i) -> int:
    """0 for the rotation block, 1 for the reflection block."""
    check_vertex(n, i)
    return int(i) // n


def residue(n, i) -> int:
    """Position of vertex i on its n-cycle."""
    check_vertex(n, i)
    return int(i) % n


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


@dataclass(frozen=True)
class DihedralElement:
    """Group element b^s a^r in canonical form: 0 <= r < n, s in {0, 1}."""

    n: int
    r: int
    s: int

    def __post_init__(self):
        check_odd_order(self.n)
        if not isinstance(self.r, (int, np.integer)) or not 0 <= self.r < self.n:
            raise ValueError(f"rotation exponent {self.r!r} out of range for n={self.n}")
        if self.s not in (0, 1):
            raise ValueError(f"reflection exponent must be 0 or 1, got {self.s!r}")

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        return mul(self, other)

    def inverse(self) -> "DihedralElement":
        if self.s == 1:
            # every reflection is an involution
            return self
        return DihedralElement(self.n, (self.n - self.r) % self.n, 0)

    def is_identity(self) -> bool:
        return self.r == 0 and self.s == 0


def identity(n) -> DihedralElement:
    return DihedralElement(n, 0, 0)


def mul(x: DihedralElement, y: DihedralElement) -> DihedralElement:
    """Product xy, using a^r b = b a^{-r} to restore canonical form."""
    if x.n != y.n:
        raise ValueError(f"mixed group sizes {x.n} and {y.n}")
    s = (x.s + y.s) % 2
    r = ((-1) ** y.s * x.r + y.r) % x.n
    return DihedralElement(x.n, r, s)


def elements(n) -> list[DihedralElement]:
    """All 2n elements, rotations a^r first, then reflections b a^r."""
    check_odd_order(n)
    return [DihedralElement(n, r, s) for s in (0, 1) for r in range(n)]


def generators(n) -> list[DihedralElement]:
    """The connection set {a, a^-1, b}; three distinct involution-closed elements."""
    check_odd_order(n)
    return [
        DihedralElement(n, 1, 0),
        DihedralElement(n, n - 1, 0),
        DihedralElement(n, 0, 1),
    ]


def element_index(x: DihedralElement) -> int:
    """Enumeration index of x: a^r -> r, b a^r -> n + r."""
    return x.r if x.s == 0 else x.n + x.r


@dataclass
class CayleyGraph:
    """Cayley graph of the dihedral group with connection set {a, a^-1, b}.

    Elements g and h are adjacent iff g^-1 h lies in the connection set,
    i.e. h in {g a, g a^-1, g b}.  With this orientation of the edge rule
    the relabeling `phi` below is a graph isomorphism onto
    `semi_cayley_adjacency`; the mirror-image rule (h g^-1 in the set)
    yields an isomorphic graph but breaks that particular relabeling.

    The adjacency matrix is indexed by `element_index` order.
    """

    n: int
    elements: list[DihedralElement]
    adjacency: np.ndarray

    @property
    def vertex_count(self) -> int:
        return 2 * self.n

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def has_edge(self, x: DihedralElement, y: DihedralElement) -> bool:
        return bool(self.adjacency[element_index(x), element_index(y)])

    def neighbors(self, x: DihedralElement) -> list[DihedralElement]:
        row = self.adjacency[element_index(x)]
        return [self.elements[j] for j in np.flatnonzero(row)]


def cayley_graph(n) -> CayleyGraph:
    els = elements(n)
    gens = generators(n)
    size = 2 * n
    adj = np.zeros((size, size), dtype=np.int64)
    for g in els:
        gi = element_index(g)
        for s in gens:
            adj[gi, element_index(mul(g, s))] = 1
    return CayleyGraph(n, els, adj)


def phi(x: DihedralElement) -> int:
    """Relabel a group element as a block-circulant vertex index.

    Rotations keep their exponent; a reflection b a^r lands at
    n + (n - r) mod n, which reverses the second cycle's orientation.
    """
    if x.s == 0:
        return x.r
    return x.n + (x.n - x.r) % x.n


def phi_inverse(n, i) -> DihedralElement:
    check_odd_order(n)
    check_vertex(n, i)
    if i < n:
        return DihedralElement(n, int(i), 0)
    return DihedralElement(n, (n - (int(i) - n)) % n, 1)


def semi_cayley_adjacency(n) -> np.ndarray:
    """0/1 adjacency with circulant n-cycle diagonal blocks and identity
    off-diagonal blocks.

    Entry (i, j) is 1 iff the blocks agree and the residues differ by +-1
    mod n, or the blocks differ and the residues agree.  The graph is
    3-regular on 2n vertices.
    """
    check_odd_order(n)
    shift = np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
    ring = shift + shift.T
    eye = np.eye(n, dtype=np.int64)
    return np.block([[ring, eye], [eye, ring]])


def normalized_adjacency(n) -> np.ndarray:
    """Adjacency scaled by the regular degree 3; symmetric and doubly stochastic."""
    return semi_cayley_adjacency(n) / 3.0


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
