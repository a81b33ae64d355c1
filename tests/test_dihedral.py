"""Group law, Cayley graph, and block-circulant relabeling.

The multiplication oracle is the faithful action on n points: a maps
x to x+1 mod n and b maps x to -x mod n, so b^s a^r acts as
x -> (-1)^s (x + r).  Composing those permutations is an independent
model of the group against which the canonical-form product is checked.
"""

import numpy as np
import pytest

from qwalk import classical, dihedral, walk

import oracles


def perm_of(el):
    pts = np.arange(el.n)
    return ((-1) ** el.s * (pts + el.r)) % el.n


def compose(outer, inner):
    return outer[inner]


@pytest.mark.parametrize("n", [3, 5, 7])
def test_mul_matches_permutation_oracle(n):
    els = oracles.elements(n)
    perms = {el: perm_of(el) for el in els}
    for x in els:
        for y in els:
            left = perm_of(oracles.mul(x, y))
            right = compose(perms[x], perms[y])
            assert np.array_equal(left, right)


@pytest.mark.parametrize("n", [3, 5])
def test_group_axioms_exhaustive(n):
    els = oracles.elements(n)
    e = oracles.identity(n)
    assert len(set(els)) == 2 * n
    for x in els:
        assert oracles.mul(x, e) == x
        assert oracles.mul(e, x) == x
        assert oracles.mul(x, x.inverse()) == e
        assert oracles.mul(x.inverse(), x) == e
        for y in els:
            assert oracles.mul(x, y) in set(els)
            for z in els:
                assert oracles.mul(oracles.mul(x, y), z) == oracles.mul(x, oracles.mul(y, z))


def test_mul_frozen_examples():
    n = 5
    a = oracles.DihedralElement(n, 1, 0)
    b = oracles.DihedralElement(n, 0, 1)
    # a b = b a^{n-1}
    assert oracles.mul(a, b) == oracles.DihedralElement(n, n - 1, 1)
    # b a = a^{n-1} b written canonically as b a^1
    assert oracles.mul(b, a) == oracles.DihedralElement(n, 1, 1)
    assert oracles.mul(b, b).is_identity()
    assert a.inverse() == oracles.DihedralElement(n, 4, 0)
    refl = oracles.DihedralElement(n, 3, 1)
    assert refl.inverse() == refl


def test_element_validation():
    with pytest.raises(ValueError):
        oracles.DihedralElement(4, 0, 0)
    with pytest.raises(ValueError):
        oracles.DihedralElement(1, 0, 0)
    with pytest.raises(ValueError):
        oracles.DihedralElement(5, 5, 0)
    with pytest.raises(ValueError):
        oracles.DihedralElement(5, -1, 0)
    with pytest.raises(ValueError):
        oracles.DihedralElement(5, 0, 2)
    with pytest.raises(ValueError):
        oracles.mul(oracles.identity(3), oracles.identity(5))


def test_generators_are_symmetric_set():
    for n in (3, 5, 9):
        gens = oracles.generators(n)
        assert len(set(gens)) == 3
        assert {g.inverse() for g in gens} == set(gens)
        assert not any(g.is_identity() for g in gens)


@pytest.mark.parametrize("n", [3, 5, 7, 11, 15])
def test_cayley_graph_regularity_and_connectivity(n):
    graph = oracles.cayley_graph(n)
    adj = graph.adjacency
    assert graph.vertex_count == 2 * n
    assert graph.edge_count == 3 * n
    assert np.array_equal(adj, adj.T)
    assert np.all(adj.sum(axis=0) == 3)
    assert np.all(np.diag(adj) == 0)
    # breadth-first search from the identity reaches everything
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in np.flatnonzero(adj[v]):
                if int(w) not in seen:
                    seen.add(int(w))
                    nxt.append(int(w))
        frontier = nxt
    assert len(seen) == 2 * n


def test_cayley_neighbors_of_identity():
    graph = oracles.cayley_graph(3)
    e = oracles.identity(3)
    expected = {
        oracles.DihedralElement(3, 1, 0),
        oracles.DihedralElement(3, 2, 0),
        oracles.DihedralElement(3, 0, 1),
    }
    assert set(graph.neighbors(e)) == expected


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cayley_graph_matches_permutation_model(n):
    # rebuild the graph from the permutation representation alone
    graph = oracles.cayley_graph(n)
    els = oracles.elements(n)
    keys = [tuple(perm_of(el)) for el in els]
    gen_perms = [perm_of(g) for g in oracles.generators(n)]
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            edge = any(tuple(compose(perm_of(x), gp)) == keys[j] for gp in gen_perms)
            assert graph.has_edge(x, y) == edge


def test_phi_bijective_and_frozen_values():
    for n in (3, 5, 9):
        images = [oracles.phi(x) for x in oracles.elements(n)]
        assert sorted(images) == list(range(2 * n))
        for x in oracles.elements(n):
            assert oracles.phi_inverse(n, oracles.phi(x)) == x
    assert oracles.phi(oracles.identity(5)) == 0
    assert oracles.phi(oracles.DihedralElement(5, 2, 0)) == 2
    assert oracles.phi(oracles.DihedralElement(5, 0, 1)) == 5
    assert oracles.phi(oracles.DihedralElement(5, 2, 1)) == 8


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_phi_is_graph_isomorphism(n):
    graph = oracles.cayley_graph(n)
    target = dihedral.semi_cayley_adjacency(n)
    for x in graph.elements:
        for y in graph.elements:
            assert graph.has_edge(x, y) == bool(target[oracles.phi(x), oracles.phi(y)])


def test_semi_cayley_structure():
    n = 5
    adj = dihedral.semi_cayley_adjacency(n)
    assert adj.shape == (2 * n, 2 * n)
    assert np.array_equal(adj, adj.T)
    assert np.all(adj.sum(axis=0) == 3)
    for i in range(2 * n):
        for j in range(2 * n):
            same_block = (i // n) == (j // n)
            diff = (i - j) % n
            if same_block:
                expected = diff in (1, n - 1)
            else:
                expected = diff == 0
            assert bool(adj[i, j]) == expected
    # n=3 frozen row: vertex 0 connects to 1, 2 and its cross-block partner 3
    adj3 = dihedral.semi_cayley_adjacency(3)
    assert list(np.flatnonzero(adj3[0])) == [1, 2, 3]
    cells = np.nonzero(dihedral.adjacency_profile(n))
    assert [(int(b), int(d)) for b, d in zip(*cells)] == [(0, 1), (0, n - 1), (1, 0)]


def test_normalized_adjacency_doubly_stochastic():
    mat = oracles.normalized_adjacency(7)
    assert np.allclose(mat.sum(axis=0), 1.0)
    assert np.allclose(mat.sum(axis=1), 1.0)


@pytest.mark.parametrize("n", [3, 5, 7, 21])
def test_pair_geometry_and_profile_expansion(n):
    assert dihedral.pair_cell(5, 0, 3) == (0, 3)
    assert dihedral.pair_cell(5, 3, 0) == (0, 2)
    assert dihedral.pair_cell(5, 1, 5 + 4) == (1, 3)
    assert dihedral.pair_cell(5, 5 + 2, 2) == (1, 0)
    values = np.arange(2 * n, dtype=float).reshape(2, n)
    dense = dihedral.pair_values_dense(n, values)
    for i in range(2 * n):
        for j in range(2 * n):
            assert dense[i, j] == values[dihedral.pair_cell(n, i, j)]
    table = dihedral.circulant(values)
    assert table.shape == (2, n, n) and not table.flags.writeable
    for r in range(n):
        assert np.array_equal(table[:, r], np.roll(values, r, axis=1))
    # the row and dense expansions agree bit for bit
    rows = np.stack([dihedral.pair_values_row(n, values, i) for i in range(2 * n)])
    assert np.array_equal(dense, rows)
    t = 1.7
    prob_rows = np.stack([walk.probability_row(n, i, t) for i in range(2 * n)])
    assert np.array_equal(walk.probability_matrix(n, t), prob_rows)
    # cell_vertex inverts pair_cell in its second vertex, scalar and batched
    cells = [[dihedral.pair_cell(n, i, j) for j in range(2 * n)] for i in range(2 * n)]
    flip, delta = np.moveaxis(np.array(cells), -1, 0)
    i = np.arange(2 * n)[:, None]
    assert np.array_equal(dihedral.cell_vertex(n, i, flip, delta), np.broadcast_to(np.arange(2 * n), (2 * n, 2 * n)))
    assert all(dihedral.cell_vertex(n, 3, *cells[3][j]) == j for j in range(2 * n))
    for bad in (-1, 2 * n):
        with pytest.raises(ValueError):
            dihedral.pair_values_row(n, values, bad)


@pytest.mark.parametrize("n", [3, 5, 7, 21, 1009])
def test_probability_batch_is_bit_identical_to_single_calls(n):
    # 1009 takes a short cycle inside the light cone and the length-n
    # np.fft outside it, t > 86.6; the others the length-n np.fft at every
    # time
    vertices = np.arange(2 * n)[::-1]
    times = np.linspace(0.3, 200.0, 2 * n)
    batched = walk.probability_profiles(n, times)
    assert np.array_equal(batched, np.stack([walk.probability_profiles(n, [s])[0] for s in times]))
    single = [walk.probability_row(n, int(i), float(s)) for i, s in zip(vertices, times)]
    gathered = [dihedral.pair_values_row(n, profile, i) for profile, i in zip(batched, vertices)]
    assert np.array_equal(np.stack(gathered), np.stack(single))


@pytest.mark.parametrize("n", [3, 5, 11])
def test_cosine_profiles_match_direct_sums(n):
    rng = np.random.default_rng(n)
    plus, minus = rng.standard_normal((2, 4, (n + 1) // 2))
    cos = np.cos(2 * np.pi * np.outer(np.arange((n + 1) // 2), np.arange(n)) / n)
    expected = np.stack([(plus + minus) @ cos, (plus - minus) @ cos], axis=1)
    assert np.abs(dihedral.cosine_profiles(plus, minus, n) - expected).max() <= 1e-13


@pytest.mark.parametrize("n", [5, 101, 1001])
def test_real_profiles_are_exactly_even(n):
    mirror = (-np.arange(n)) % n
    steps = classical.classical_profiles(n, [0, 1, 2, 7, 100, 5000])
    horizons = walk.averaged_profiles(n, [0.5, 7.0, 1e4, 1e12])
    for profiles in (steps, horizons):
        assert np.array_equal(profiles, profiles[..., mirror])
    if n <= 101:
        for profile in steps:
            dense = dihedral.pair_values_dense(n, profile)
            assert np.array_equal(dense, dense.T)


def test_order_validation():
    for bad in (2, 1, 0, -3, 6):
        with pytest.raises(ValueError):
            dihedral.check_odd_order(bad)
    with pytest.raises(ValueError):
        dihedral.check_odd_order(5.0)
    with pytest.raises(ValueError):
        dihedral.check_vertex(5, 10)
    with pytest.raises(ValueError):
        dihedral.check_vertex(5, -1)
    with pytest.raises(ValueError, match="must be an integer"):
        dihedral.check_vertex(5, 1.5)
