"""Brute-force spanning tree enumeration and tree statistics.

This is the independent oracle against which the determinant route is
checked.  One walk lists the spanning trees by recursive inclusion and
exclusion of edges (Read and Tarjan, "Bounds on backtrack algorithms for
listing cycles, paths, and spanning trees", Networks 5, 1975): contraction
happens in a union-find, and deletion prunes on a connectivity test, which
doubles as the bridge shortcut (a bridge has no exclusion branch).

Every tree statistic is a product of edge weights over the tree's edges,
the weights of its scheme in `SCHEME_FOR_STATISTIC`, so each edge copy's
additive key is read from that scheme's key table in `laplacian`, where each
weight is defined once, and the tally lands on the layout of the determinant
and the closed forms.  What stays independent of the determinant route is
the walk.  It adds an edge's key on inclusion and passes the running sum
down as an argument, so backtracking subtracts nothing, and it tallies
{key: trees}.  `enumerate_sum` builds its polynomial from that tally with no
per-tree object; `all_spanning_trees` runs the same walk with the key
1 << position for each parallel edge copy and decodes the masks in walk
order.  A determinant count at all-ones gates the walk, so a huge graph
fails fast instead of hanging, and the tally's total must equal it.
"""

from __future__ import annotations

from enum import Enum

from .graphs import Disconnected, Graph, SpanningTree
from .laplacian import CapExceeded, SchemeMismatch, WeightScheme, _eliminate, _weight_table, check_scheme
from .polyring import Monomial, Polynomial, _Layout, _new

DEFAULT_CAP = 10_000_000


DisconnectedGraph = Disconnected  # the same class as graphs.Disconnected


class TreeStatistic(Enum):
    DEGREE = "degree"
    DIRECTION = "direction"
    DIR_DECOUPLED = "decoupled"
    CUBE_SUBSTITUTED = "cube"
    IN_OUT_DEGREE = "inout"


# weighting whose reduced-Laplacian determinant matches each statistic sum
SCHEME_FOR_STATISTIC = {
    TreeStatistic.DEGREE: WeightScheme.CAYLEY_PRUFER,
    TreeStatistic.DIRECTION: WeightScheme.DIRECTION,
    TreeStatistic.DIR_DECOUPLED: WeightScheme.DECOUPLED,
    TreeStatistic.CUBE_SUBSTITUTED: WeightScheme.CUBE_LAURENT,
    TreeStatistic.IN_OUT_DEGREE: WeightScheme.THRESHOLD_IN_OUT,
}


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees (multiplicities counted), by Kirchhoff."""
    n = g.n
    if n <= 1:  # the empty graph has no spanning tree
        return n
    lap = [[0] * n for _ in range(n)]
    for e in g.edges:
        m = e.multiplicity
        lap[e.u][e.u] += m
        lap[e.v][e.v] += m
        lap[e.u][e.v] -= m
        lap[e.v][e.u] -= m
    reduced = [row[:-1] for row in lap[:-1]]
    return _eliminate(reduced)


def _predicted_count(g: Graph, cap: int) -> int:
    """Kirchhoff's tree count, once it is known nonzero (the graph connected) and under the cap."""
    predicted = spanning_tree_count(g)
    if not predicted:
        raise Disconnected("graph has no spanning trees")
    if predicted > cap:
        raise CapExceeded(f"{predicted} spanning trees exceed cap {cap}")
    return predicted


def _edge_copies(g: Graph) -> list[int]:
    """The edge index of every parallel copy, in edge order."""
    return [idx for idx, e in enumerate(g.edges) for _ in range(e.multiplicity)]


def _walk(g: Graph, keys: list[int], predicted: int) -> dict[int, int]:
    """{sum of the keys of a tree's edge copies: trees with that sum}, in walk order.

    `keys` has one entry per edge copy, as listed by `_edge_copies`.
    """
    n = g.n
    ends = [(g.edges[idx].u, g.edges[idx].v) for idx in _edge_copies(g)]

    parent = list(range(n))
    rank = [0] * n

    def find(a: int) -> int:
        # no path compression: unions must be undoable
        while parent[a] != a:
            a = parent[a]
        return a

    tally: dict[int, int] = {}

    def still_connected(pos: int, comps: int) -> bool:
        """Can the copies from pos onward, none yet decided, join the forest's comps components?"""
        local: dict[int, int] = {}

        def lfind(a: int) -> int:
            a = find(a)
            while local.get(a, a) != a:
                a = local[a]
            return a

        for a, b in ends[pos:]:
            ra, rb = lfind(a), lfind(b)
            if ra != rb:
                local[ra] = rb
                comps -= 1
                if comps == 1:
                    return True
        return False

    def rec(pos: int, components: int, key: int) -> None:
        if components == 1:
            tally[key] = tally.get(key, 0) + 1
            return
        # a copy is left: every call keeps "the copies from pos onward can
        # join the forest" (the root by _predicted_count's nonzero tree count,
        # exclusion by still_connected; a cycle copy or a contraction keeps
        # it), and a forest of several components needs one more copy
        u, v = ends[pos]
        ru, rv = find(u), find(v)
        if ru == rv:
            # cycle edge: only the exclusion branch exists
            rec(pos + 1, components, key)
            return
        # include the edge (contraction)
        if rank[ru] < rank[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        bumped = rank[ru] == rank[rv]
        if bumped:
            rank[ru] += 1
        rec(pos + 1, components - 1, key + keys[pos])
        if bumped:
            rank[ru] -= 1
        parent[rv] = rv
        # exclude the edge (deletion); a bridge has no such branch
        if still_connected(pos + 1, components):
            rec(pos + 1, components, key)

    rec(0, n, 0)
    total = sum(tally.values())
    if total != predicted:
        raise AssertionError(
            f"enumerated {total} trees but determinant predicts {predicted}"
        )
    return tally


def all_spanning_trees(g: Graph, cap: int = DEFAULT_CAP) -> list[SpanningTree]:
    """Every spanning tree exactly once; parallel copies count separately."""
    predicted = _predicted_count(g, cap)
    copies = _edge_copies(g)
    masks = _walk(g, [1 << pos for pos in range(len(copies))], predicted)
    return [SpanningTree(tuple(idx for pos, idx in enumerate(copies) if mask >> pos & 1))
            for mask in masks]


def _statistic_keys(g: Graph, stat: TreeStatistic) -> tuple[_Layout, list[int]]:
    """The key table of the statistic's weight scheme, on the graphs that scheme is defined on."""
    try:
        check_scheme(g, SCHEME_FOR_STATISTIC[stat])
    except SchemeMismatch:
        raise SchemeMismatch(f"{stat.value} statistic is not defined on a {g.kind} graph") from None
    return _weight_table(g, SCHEME_FOR_STATISTIC[stat], g.edges)


def statistic_monomial(g: Graph, tree: SpanningTree, stat: TreeStatistic) -> Monomial:
    """Monomial a single spanning tree contributes under the statistic.

    Each statistic is a product of its scheme's edge weights over the tree's
    edges, so the tree's key is the sum of those edges' keys.
    """
    lay, keys = _statistic_keys(g, stat)
    return lay.monomial(sum(keys[idx] for idx in tree.edge_indices))


def enumerate_sum(g: Graph, stat: TreeStatistic, cap: int = DEFAULT_CAP) -> Polynomial:
    """Sum of statistic monomials over every spanning tree."""
    predicted = _predicted_count(g, cap)
    lay, keys = _statistic_keys(g, stat)
    tally = _walk(g, [keys[idx] for idx in _edge_copies(g)], predicted)
    lay.check_range(tally)
    return _new(lay, tally)
