"""Brute-force tree enumeration against the determinant route."""

import hashlib
import itertools
import random

import pytest

from treefactor import treebrute
from treefactor import (
    CapExceeded,
    DisconnectedGraph,
    Graph,
    Polynomial,
    SCHEME_FOR_STATISTIC,
    SchemeMismatch,
    SpanningTree,
    TreeStatistic,
    all_spanning_trees,
    cartesian_product,
    complete_graph,
    connected_threshold_sequences,
    enumerate_sum,
    hypercube,
    multigraph_kn,
    spanning_tree_count,
    statistic_monomial,
    threshold_graph,
    threshold_rhs,
    tree_enumerator_det,
    verify_identity,
    x,
)
from treefactor.graphs import Edge

P = Polynomial.parse


def test_spanning_tree_counts():
    assert spanning_tree_count(complete_graph(1)) == 1
    assert spanning_tree_count(complete_graph(4)) == 16
    assert spanning_tree_count(complete_graph(5)) == 125
    assert spanning_tree_count(hypercube(3)) == 384
    assert spanning_tree_count(multigraph_kn(3, 2)) == 12
    assert spanning_tree_count(cartesian_product([complete_graph(2), complete_graph(3)])) == 75
    assert spanning_tree_count(threshold_graph((3, 1, 1, 1))) == 1
    assert spanning_tree_count(threshold_graph((1, 1, 0))) == 0
    assert spanning_tree_count(Graph(kind="plain", labels=(), edges=())) == 0


def test_all_spanning_trees_are_valid_trees():
    g = cartesian_product([complete_graph(2), complete_graph(3)])
    trees = all_spanning_trees(g)
    assert len(trees) == 75
    assert len({t.edge_indices for t in trees}) == 75
    for t in trees:
        assert len(t.edge_indices) == g.n - 1
        parent = list(range(g.n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for idx in t.edge_indices:
            e = g.edges[idx]
            ru, rv = find(e.u), find(e.v)
            assert ru != rv  # acyclic
            parent[ru] = rv
        assert len({find(v) for v in range(g.n)}) == 1  # spanning


def test_parallel_copies_enumerate_separately():
    g = multigraph_kn(2, 3)
    trees = all_spanning_trees(g)
    assert trees == [SpanningTree((0,))] * 3


def test_single_vertex_tree():
    assert all_spanning_trees(complete_graph(1)) == [SpanningTree(())]
    assert enumerate_sum(complete_graph(1), TreeStatistic.DEGREE) == Polynomial.one()


def test_cap_and_disconnected_guards():
    with pytest.raises(CapExceeded):
        all_spanning_trees(complete_graph(6), cap=100)
    with pytest.raises(DisconnectedGraph):
        all_spanning_trees(threshold_graph((1, 1, 0)))
    # K4 has 16 spanning trees: a cap of 16 lets the walk run, 15 does not
    k4 = complete_graph(4)
    assert len(all_spanning_trees(k4, cap=16)) == 16
    assert enumerate_sum(k4, TreeStatistic.DEGREE, cap=16) == enumerate_sum(k4, TreeStatistic.DEGREE)
    for run in (all_spanning_trees, lambda g, cap: enumerate_sum(g, TreeStatistic.DEGREE, cap=cap)):
        with pytest.raises(CapExceeded):
            run(k4, cap=15)


def test_statistic_monomial_examples():
    g = complete_graph(3)
    # edges of K3 in order: (1,2), (1,3), (2,3)
    t = SpanningTree((0, 1))
    assert statistic_monomial(g, t, TreeStatistic.DEGREE) == P("x1^2*x2*x3").leading_term()[0]
    assert statistic_monomial(g, t, TreeStatistic.IN_OUT_DEGREE) == P("x1^2*y2*y3").leading_term()[0]
    g = cartesian_product([complete_graph(2), complete_graph(3)])
    # vertices (1,1), (1,2), (1,3), (2,1), (2,2), (2,3); the tree joins each
    # K3 copy by its first vertex's edges and the copies by (1,1)-(2,1)
    t = SpanningTree((0, 3, 4, 5, 6))
    assert [g.edges[idx][:3] for idx in t.edge_indices] == [(0, 3, 1), (0, 1, 2), (3, 4, 2), (0, 2, 2), (3, 5, 2)]
    assert statistic_monomial(g, t, TreeStatistic.DIRECTION) == P("q1*q2^4").leading_term()[0]
    assert statistic_monomial(g, t, TreeStatistic.DIR_DECOUPLED) == P(
        "q1*q2^4*x(1,1)^5*x(1,2)^5*x(2,1)^6*x(2,2)^2*x(2,3)^2").leading_term()[0]
    g = hypercube(2)
    # edges {}-{1}, {}-{2}, {2}-{1,2}: each carries 1/x_t off its direction
    # when t is not in its lower end
    t = SpanningTree((0, 1, 2))
    assert [(g.labels[g.edges[idx].u], g.edges[idx].direction) for idx in t.edge_indices] == [
        (frozenset(), 1), (frozenset(), 2), (frozenset({2}), 1)]
    assert statistic_monomial(g, t, TreeStatistic.CUBE_SUBSTITUTED) == P("q1^2*q2*x1^-1").leading_term()[0]


def test_statistic_requires_matching_family():
    g = complete_graph(3)
    t = SpanningTree((0, 1))
    with pytest.raises(SchemeMismatch):
        statistic_monomial(g, t, TreeStatistic.CUBE_SUBSTITUTED)
    with pytest.raises(SchemeMismatch):
        enumerate_sum(hypercube(2), TreeStatistic.DEGREE)


def test_degree_statistic_small_complete_graphs():
    assert enumerate_sum(complete_graph(3), TreeStatistic.DEGREE) == P(
        "x1^2*x2*x3 + x1*x2^2*x3 + x1*x2*x3^2"
    )


def test_enumeration_matches_determinant():
    cases = [
        (complete_graph(3), TreeStatistic.DEGREE),
        (complete_graph(4), TreeStatistic.DEGREE),
        (complete_graph(4), TreeStatistic.IN_OUT_DEGREE),
        (cartesian_product([complete_graph(2), complete_graph(3)]), TreeStatistic.DIRECTION),
        (cartesian_product([complete_graph(2), complete_graph(3)]), TreeStatistic.DIR_DECOUPLED),
        (hypercube(2), TreeStatistic.DIRECTION),
        (hypercube(2), TreeStatistic.CUBE_SUBSTITUTED),
        (threshold_graph((3, 1, 1, 1)), TreeStatistic.IN_OUT_DEGREE),
        (threshold_graph((2, 2, 2)), TreeStatistic.IN_OUT_DEGREE),
        (multigraph_kn(3, 2), TreeStatistic.DEGREE),
    ]
    for g, stat in cases:
        brute = enumerate_sum(g, stat)
        det = tree_enumerator_det(g, SCHEME_FOR_STATISTIC[stat])
        assert brute == det, f"{g.kind} {stat.value}"


def test_degree_statistic_symmetric_under_vertex_relabeling():
    enum = enumerate_sum(complete_graph(4), TreeStatistic.DEGREE)
    cycle = {x(1): P("x2"), x(2): P("x3"), x(3): P("x4"), x(4): P("x1")}
    assert enum.substitute(cycle) == enum
    swap = {x(1): P("x2"), x(2): P("x1")}
    assert enum.substitute(swap) == enum


def test_cube_statistic_symmetric_under_inversion():
    enum = enumerate_sum(hypercube(2), TreeStatistic.CUBE_SUBSTITUTED)
    inv = {x(1): P("x1^-1"), x(2): P("x2^-1")}
    assert enum.substitute(inv) == enum
    enum3 = enumerate_sum(hypercube(3), TreeStatistic.CUBE_SUBSTITUTED)
    inv3 = {x(i): P(f"x{i}^-1") for i in range(1, 4)}
    assert enum3.substitute(inv3) == enum3


def test_enumeration_count_matches_unit_specialization():
    g = hypercube(2)
    enum = enumerate_sum(g, TreeStatistic.DIRECTION)
    ones = {v: Polynomial.one() for v in enum.variables()}
    assert enum.substitute(ones).as_int() == spanning_tree_count(g) == 4


def test_count_gate_is_live(monkeypatch):
    # a walk that lost or doubled a tree must not go unnoticed
    real = treebrute.spanning_tree_count
    monkeypatch.setattr(treebrute, "spanning_tree_count", lambda g: real(g) + 1)
    with pytest.raises(AssertionError, match="determinant predicts 17"):
        all_spanning_trees(complete_graph(4))
    with pytest.raises(AssertionError, match="determinant predicts 17"):
        enumerate_sum(complete_graph(4), TreeStatistic.DEGREE)


def _forest_combinations(g):
    """Edge indices of every (n - 1)-subset of edge copies that is a forest, in combinations order.

    Include-first order is the lexicographic order of the copy positions, so
    this is the walk's order too.
    """
    copies = [idx for idx, e in enumerate(g.edges) for _ in range(e.multiplicity)]
    trees = []
    for combo in itertools.combinations(range(len(copies)), g.n - 1):
        parent = list(range(g.n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for pos in combo:
            e = g.edges[copies[pos]]
            ru, rv = find(e.u), find(e.v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            trees.append(tuple(copies[pos] for pos in combo))
    return trees


def _random_multigraph(rng, n, bridges, path=0):
    """A connected multigraph on n vertices, edges shuffled; with bridges, vertices n - 2
    and n - 1 hang off the rest by an edge listed first and one listed last; with a path,
    that many more vertices hang off the rest as a path of bridges listed last."""
    core = n - 2 if bridges else n
    pairs = {(rng.randrange(v), v): rng.randint(1, 2) for v in range(1, core)}  # a spanning tree
    for _ in range(rng.randrange(2 * n) if core > 1 else 0):
        u, v = sorted(rng.sample(range(core), 2))
        pairs[u, v] = pairs.get((u, v), 0) + 1
    edges = [Edge(u, v, 1, k) for (u, v), k in pairs.items()]
    rng.shuffle(edges)
    if bridges:
        edges = [Edge(rng.randrange(core), n - 2), *edges, Edge(rng.randrange(n - 1), n - 1)]
    if path:
        edges += [Edge(rng.randrange(n), n), *(Edge(v, v + 1) for v in range(n, n + path - 1))]
    return Graph(kind="plain", labels=tuple(range(n + path)), edges=tuple(edges))


def test_all_spanning_trees_match_the_forest_combinations():
    rng = random.Random(20261019)
    graphs = [_random_multigraph(rng, n, bridges) for n in range(1, 8)
              for bridges in ((False, True) if n >= 3 else (False,)) for _ in range(3)]
    graphs += [Graph(kind="plain", labels=tuple(range(n)), edges=(*(Edge(i, i + 1) for i in range(n - 1)), Edge(0, n - 1)))
               for n in range(3, 8)]  # bare cycles
    assert any(e.multiplicity > 1 for g in graphs for e in g.edges)
    for g in graphs:
        trees = [t.edge_indices for t in all_spanning_trees(g)]
        assert trees == _forest_combinations(g), g.edges


def test_pendant_bridges_listed_last_match_the_forest_combinations():
    # an exclusion before the path tests whether its ends rejoin; a dead one
    # whose grown side holds the path's root crosses every bridge of the path
    rng = random.Random(20261020)
    graphs = [_random_multigraph(rng, n, bridges, path) for n in range(2, 6)
              for bridges in ((False, True) if n >= 3 else (False,)) for path in (3, 4) for _ in range(2)]
    for g in graphs:
        trees = [t.edge_indices for t in all_spanning_trees(g)]
        assert trees == _forest_combinations(g), g.edges


def test_bridges_listed_first_prune_each_exclusion():
    # a 30-edge pendant path listed before K6: without a connectivity test
    # on exclusion, the dead branches grow exponentially and the walk hangs
    path = [Edge(i, i + 1) for i in range(30)]
    k6 = [Edge(30 + a, 30 + b) for a in range(6) for b in range(a + 1, 6)]
    g = Graph(kind="plain", labels=tuple(range(36)), edges=(*path, *k6))
    assert len(all_spanning_trees(g)) == 6 ** 4


def test_bridges_listed_last_list_the_same_trees():
    # the same graph with K6 listed before the path
    path = [Edge(i, i + 1) for i in range(30)]
    k6 = [Edge(30 + a, 30 + b) for a in range(6) for b in range(a + 1, 6)]
    labels = tuple(range(36))
    first = all_spanning_trees(Graph(kind="plain", labels=labels, edges=(*path, *k6)))
    last = all_spanning_trees(Graph(kind="plain", labels=labels, edges=(*k6, *path)))
    assert len(last) == 6 ** 4
    # K6 edge j is edge j here and 30 + j path first; path edge i is 15 + i here and i
    moved = [*range(30, 45), *range(30)]
    assert {tuple(sorted(moved[idx] for idx in t.edge_indices)) for t in last} == {
        t.edge_indices for t in first}


def test_all_spanning_trees_order_is_pinned():
    # digests of repr([t.edge_indices for t in trees]), taken from the
    # tree-by-tree enumeration this walk replaced
    pinned = {
        "K4": (complete_graph(4), 16, "2bc46be8353ea06d2a6da3e3051bb8890862324898470dfebbe58faf54f48faa"),
        "K3(2)": (multigraph_kn(3, 2), 12, "394fca81bcbf36454b1627849901adee72e32063066546b4b5278cdd86a179ff"),
        "Q2": (hypercube(2), 4, "8871c4d2529855c20429291cc94b13f2d0b8190c2460d292c08e22927473b7ea"),
        "T:3,3,2,2": (threshold_graph((3, 3, 2, 2)), 8,
                      "dd64c77a6dbd83de352bf426c26b96f64d08e6eff02ca769a26a884d7ed47e88"),
    }
    for name, (g, count, digest) in pinned.items():
        trees = all_spanning_trees(g)
        assert len(trees) == count, name
        assert hashlib.sha256(repr([t.edge_indices for t in trees]).encode()).hexdigest() == digest, name


def test_enumerate_sum_terms_order_is_pinned():
    # terms() lists the walk's tally in the order the walk first reached each
    # key; rendering and JSON sort their terms and equality ignores order
    cases = {
        "K5": (complete_graph(5), TreeStatistic.DEGREE),
        "K4(2)": (multigraph_kn(4, 2), TreeStatistic.DEGREE),
        "K2xK3": (cartesian_product([complete_graph(2), complete_graph(3)]), TreeStatistic.DIRECTION),
        "K3(2)xK2": (cartesian_product([multigraph_kn(3, 2), complete_graph(2)]), TreeStatistic.DIR_DECOUPLED),
        "Q3": (hypercube(3), TreeStatistic.CUBE_SUBSTITUTED),
        "T:4,3,2,2,1": (threshold_graph((4, 3, 2, 2, 1)), TreeStatistic.IN_OUT_DEGREE),
    }
    digest = hashlib.sha256()
    for name, (g, stat) in cases.items():
        digest.update(f"{name}\n".encode())
        for mono, coeff in enumerate_sum(g, stat).terms():
            digest.update(f"{Polynomial.monomial(mono).render()}\t{coeff}\n".encode())
    assert digest.hexdigest() == "a2105d4806259c362f019608782fe5b0b0bc84283fe981e5744abf7462a1514c"


def test_brute_threshold_claims_do_not_rekey(monkeypatch):
    # the walk's tally is keyed over the in/out key table's layout, the one
    # threshold_rhs builds on, so checking the identity rebuilds no term dict
    import treefactor.polyring as polyring

    rekey = polyring._rekey
    count = [0]

    def counted_rekey(terms, src, dst):
        out = rekey(terms, src, dst)
        count[0] += out is not terms
        return out

    def warm_rekeys(call):
        call()
        count[0] = 0
        with monkeypatch.context() as patched:
            patched.setattr(polyring, "_rekey", counted_rekey)
            assert all(v.ok for v in call())
        return count[0]

    sequences = [lam for n in range(2, 7) for lam in connected_threshold_sequences(n)]
    assert len(sequences) == 31
    assert warm_rekeys(lambda: [
        verify_identity("brute", enumerate_sum(threshold_graph(lam), TreeStatistic.IN_OUT_DEGREE), threshold_rhs(lam))
        for lam in sequences]) == 0
