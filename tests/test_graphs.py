"""Graph family constructors and partition helpers."""

import itertools
import random

import pytest

from treefactor import (
    Edge,
    EmptyFactor,
    Graph,
    InvalidSize,
    NotThresholdSequence,
    Partition,
    cartesian_product,
    complete_graph,
    conjugate,
    connected_threshold_sequences,
    durfee,
    hypercube,
    is_connected,
    multigraph_kn,
    threshold_graph,
)

# every test here takes well under the bound: a hang fails (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("time_bound")


def test_complete_graph_basic():
    g = complete_graph(4)
    assert g.kind == "plain"
    assert g.labels == (1, 2, 3, 4)
    assert len(g.edges) == 6
    assert g.degrees() == (3, 3, 3, 3)
    assert all(e.u < e.v for e in g.edges)
    assert all(e.direction == 1 and e.multiplicity == 1 for e in g.edges)


def test_complete_graph_single_vertex():
    g = complete_graph(1)
    assert g.n == 1
    assert g.edges == ()
    assert is_connected(g)


def test_complete_graph_rejects_empty():
    with pytest.raises(InvalidSize):
        complete_graph(0)


def test_multigraph_thickening():
    g = multigraph_kn(3, 2)
    assert len(g.edges) == 3
    assert all(e.multiplicity == 2 for e in g.edges)
    assert g.degrees() == (4, 4, 4)
    with pytest.raises(InvalidSize):
        multigraph_kn(3, 0)


def test_product_vertex_order_last_coordinate_fastest():
    g = cartesian_product([complete_graph(2), complete_graph(3)])
    assert g.dims == (2, 3)
    assert g.labels == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))


def test_product_edge_directions_and_count():
    g = cartesian_product([complete_graph(2), complete_graph(3)])
    by_dir = {1: 0, 2: 0}
    for e in g.edges:
        by_dir[e.direction] += 1
    # one K2 edge through 3 fibers, three K3 edges through 2 fibers
    assert by_dir == {1: 3, 2: 6}
    assert all(e.u < e.v for e in g.edges)


def test_product_degrees_add_across_factors():
    g = cartesian_product([complete_graph(3), complete_graph(4)])
    assert g.degrees() == ((3 - 1) + (4 - 1),) * 12


def test_product_rejects_bad_factors():
    with pytest.raises(EmptyFactor):
        cartesian_product([])
    q = hypercube(2)
    with pytest.raises(EmptyFactor):
        cartesian_product([q, complete_graph(2)])


def test_bad_graph_inputs_fail_with_named_errors():
    with pytest.raises(ValueError, match=r"bad edge Edge\(u=1, v=1.* on 2 vertices"):
        Graph("plain", (0, 1), (Edge(1, 1),))
    with pytest.raises(ValueError, match=r"bad edge Edge\(u=0, v=2.* on 2 vertices"):
        Graph("plain", (0, 1), (Edge(0, 2),))
    with pytest.raises(ValueError, match="bad multiplicity on edge"):
        Graph("plain", (0, 1), (Edge(0, 1, multiplicity=0),))
    empty = Graph("plain", (), ())
    assert not is_connected(empty)
    with pytest.raises(EmptyFactor, match="empty product factor"):
        cartesian_product([complete_graph(2), empty])
    with pytest.raises(InvalidSize, match="need at least one vertex"):
        connected_threshold_sequences(0)


def test_hypercube_basic():
    g = hypercube(3)
    assert g.kind == "cube"
    assert g.n == 8
    assert len(g.edges) == 12
    assert g.dims == (2, 2, 2)
    assert g.labels[0] == frozenset()
    assert g.labels[-1] == frozenset({1, 2, 3})
    assert g.degrees() == (3,) * 8
    with pytest.raises(InvalidSize):
        hypercube(0)


def test_hypercube_matches_binary_product():
    # subset labels and tuple labels are the same graph under
    # (t1..tn) <-> {i : ti == 2}, direction tags included
    n = 3
    q = hypercube(n)
    p = cartesian_product([complete_graph(2)] * n)
    assert q.n == p.n
    for ql, pl in zip(q.labels, p.labels):
        assert ql == frozenset(i for i, t in enumerate(pl, start=1) if t == 2)
    assert sorted(q.edges) == sorted(p.edges)


def test_product_matches_index_tuples_that_differ_in_one_coordinate():
    # factor i's edge {a, b} joins the index tuples that differ only in
    # coordinate i, there a and b; edges go by direction, factor edge, vertex
    def joined(t, s, i, fe):
        rest = [j for j in range(len(t)) if j != i]
        return (t[i], s[i]) == (fe.u, fe.v) and all(t[j] == s[j] for j in rest)

    rng = random.Random(23)
    drawn = set()
    for _ in range(60):
        shape = [(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        drawn.update((len(shape), n, q) for n, q in shape)
        factors = [multigraph_kn(n, q) for n, q in shape]
        tuples = list(itertools.product(*(range(f.n) for f in factors)))
        want = [
            Edge(k, v, i + 1, fe.multiplicity)
            for i, f in enumerate(factors)
            for fe in f.edges
            for k, t in enumerate(tuples)
            for v, s in enumerate(tuples)
            if joined(t, s, i, fe)
        ]
        g = cartesian_product(factors)
        assert g.labels == tuple(tuple(f.labels[c] for f, c in zip(factors, t)) for t in tuples)
        assert g.dims == tuple(f.n for f in factors)
        assert g.edges == tuple(want), [f.n for f in factors]
    # a size-1 factor occurred in lists of every length, and every multiplicity on an edge
    assert {(r, n) for r, n, _ in drawn} >= {(r, 1) for r in range(1, 5)}
    assert {q for _, n, q in drawn if n > 1} == {1, 2, 3}


def test_hypercube_matches_the_subset_construction():
    # S joins S + {i} for each i not in S, by S's binary number and then by
    # i, with i = 1 the leading bit
    for n in range(1, 9):
        bit = {i: 1 << (n - i) for i in range(1, n + 1)}
        labels = tuple(frozenset(i for i in bit if mask & bit[i]) for mask in range(1 << n))
        edges = tuple(Edge(mask, mask | bit[i], i) for mask in range(1 << n) for i in bit if not mask & bit[i])
        g = hypercube(n)
        assert (g.kind, g.labels, g.edges, g.dims) == ("cube", labels, edges, (2,) * n), n


def test_connected_threshold_sequences_are_every_connected_threshold_graph():
    # every weakly decreasing sequence with parts at most n - 1 that the
    # construction realizes as a connected graph, largest first
    for n in range(1, 10):
        want = []
        for lam in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
            try:
                g = threshold_graph(lam)
            except NotThresholdSequence:
                continue
            if is_connected(g):
                want.append(lam)
        assert [p.parts for p in connected_threshold_sequences(n)] == sorted(want, reverse=True), n


def test_threshold_graph_matches_the_smallest_others_construction():
    # vertex i neighbors the lam_i smallest others; the sequence is accepted
    # exactly when those edges realize it as the degree sequence
    for n in range(1, 8):
        for lam in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
            pairs = set()
            for i in range(1, n + 1):
                others = [j for j in range(1, n + 1) if j != i]
                for j in others[:lam[i - 1]]:
                    pairs.add((min(i, j) - 1, max(i, j) - 1))
            edges = tuple(Edge(u, v) for u, v in sorted(pairs))
            realized = tuple(sum(i in pair for pair in pairs) for i in range(n))
            if realized == lam:
                assert threshold_graph(lam).edges == edges, lam
            else:
                with pytest.raises(NotThresholdSequence) as err:
                    threshold_graph(lam)
                assert str(err.value) == f"rule realizes degrees {realized}, not {lam}", lam


def test_threshold_star():
    g = threshold_graph((3, 1, 1, 1))
    assert g.kind == "threshold"
    assert g.edges == (Edge(0, 1), Edge(0, 2), Edge(0, 3))
    assert g.degrees() == (3, 1, 1, 1)
    assert is_connected(g)


def test_threshold_triangle():
    g = threshold_graph((2, 2, 2))
    assert len(g.edges) == 3
    assert is_connected(g)


def test_threshold_rejects_unrealizable():
    # the neighbor rule realizes (3, 2, 2, 1) from this input
    with pytest.raises(NotThresholdSequence) as err:
        threshold_graph((2, 2, 1, 1))
    assert "(3, 2, 2, 1)" in str(err.value)


def test_threshold_rejects_out_of_range():
    with pytest.raises(NotThresholdSequence):
        threshold_graph((4, 1, 1, 1))
    with pytest.raises(NotThresholdSequence):
        threshold_graph(())


def test_threshold_trailing_zero_disconnects():
    g = threshold_graph((1, 1, 0))
    assert g.degrees() == (1, 1, 0)
    assert not is_connected(g)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    assert tuple(Partition((3, 1))) == (3, 1)


def test_conjugate_examples():
    assert conjugate((4, 3, 2, 2, 1)).parts == (5, 4, 2, 1)
    assert conjugate((3, 1, 1, 1)).parts == (4, 1, 1)
    assert conjugate(()).parts == ()
    assert conjugate((0, 0)).parts == ()


def test_conjugate_involution():
    for lam in connected_threshold_sequences(6):
        assert conjugate(conjugate(lam)).parts == lam.parts


def test_durfee_examples():
    assert durfee((4, 3, 2, 2, 1)) == 2
    assert durfee((3, 1, 1, 1)) == 1
    assert durfee((2, 2, 2)) == 2
    assert durfee(()) == 0


def test_connected_threshold_sequence_counts():
    # distinct connected threshold degree sequences double with each vertex
    for n in range(2, 8):
        assert len(connected_threshold_sequences(n)) == 2 ** (n - 2)
    assert connected_threshold_sequences(1) == [Partition((0,))]


def test_connected_threshold_sequences_build_connected_graphs():
    for n in range(1, 7):
        for lam in connected_threshold_sequences(n):
            g = threshold_graph(lam)
            assert g.degrees() == lam.parts
            assert is_connected(g)


def test_conjugate_durfee_split_on_threshold_sequences():
    # below the Durfee size the conjugate exceeds it by exactly the part
    # plus one; above it the conjugate drops to the next part
    for n in range(2, 7):
        for lam in connected_threshold_sequences(n):
            s = durfee(lam)
            conj = conjugate(lam).parts
            assert len(conj) == n - 1  # vertex 1 dominates
            for r in range(1, n):
                if r <= s:
                    assert conj[r - 1] == 1 + lam[r - 1]
                    assert conj[r - 1] > s
                else:
                    assert conj[r - 1] == lam[r]
                    assert conj[r - 1] <= s
