"""Brute-force spanning tree enumeration and tree statistics.

This is the independent oracle against which the determinant route is
checked.  One walk lists the spanning trees include-first (Read and Tarjan,
"Bounds on backtrack algorithms for listing cycles, paths, and spanning
trees", Networks 5, 1975), so in the lexicographic order of their copy
positions: each level loops over the copy it includes next, contracted in a
union-find.  With two components left, each crossing copy is one tree,
tallied inline.  With three, a dead branch costs one O(m) loop.  With more,
a dead branch can hide an exponential subtree, so a connectivity test ends
the loop at the first excluded bridge.

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
order.  Kirchhoff's count, `laplacian.spanning_tree_count` (also exported
here), gates the walk, so a huge graph fails fast instead of hanging, and
the tally's total must equal it.
"""

from __future__ import annotations

from enum import Enum

from .graphs import Disconnected, Graph, SpanningTree
from .laplacian import CapExceeded, SchemeMismatch, WeightScheme, _weight_table, check_scheme, spanning_tree_count
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
    m = len(ends)

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
        for a, b in ends[pos:]:
            ra, rb = find(a), find(b)
            while ra in local:
                ra = local[ra]
            while rb in local:
                rb = local[rb]
            if ra != rb:
                local[ra] = rb
                comps -= 1
                if comps == 1:
                    return True
        return False

    def rec(pos: int, components: int, key: int) -> None:
        # p is the next copy included, while enough are left to finish a tree.
        # Above two components the copies from pos onward can join the forest
        # (the root by the nonzero count; contraction and still_connected keep it)
        for p in range(pos, m - components + 2):
            u, v = ends[p]
            ru, rv = find(u), find(v)
            if ru == rv:
                continue  # cycle copy: excluding it keeps the invariant
            if components == 2:  # each crossing copy finishes one tree
                tally[key + keys[p]] = tally.get(key + keys[p], 0) + 1
                continue
            if rank[ru] < rank[rv]:
                ru, rv = rv, ru
            parent[rv], saved = ru, rank[ru]
            rank[ru] += saved == rank[rv]
            rec(p + 1, components - 1, key + keys[p])
            parent[rv], rank[ru] = rv, saved
            # excluding p: a dead branch costs one O(m) loop at three components
            if components > 3 and not still_connected(p + 1, components):
                return

    if n == 1:
        tally[0] = 1  # the empty tree
    else:
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
