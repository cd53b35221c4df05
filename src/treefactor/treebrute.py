"""Brute-force spanning tree enumeration and tree statistics.

This is the independent oracle against which the determinant route is
checked.  One walk lists the spanning trees include-first (Read and Tarjan,
"Bounds on backtrack algorithms for listing cycles, paths, and spanning
trees", Networks 5, 1975), so in the lexicographic order of their copy
positions.  The forest so far is an undoable union-find whose every root
holds a bit mask of the copies with exactly one end in its component (a
merge XORs the two masks), and each level carries `crossing`, the mask of
copies that join two components, so it loops over those copies only, never
over a cycle copy.  With two components left, the crossing copies past the
one included are the trees, tallied inline; when the crossing copies left
are exactly as many as the joins still needed, they are one tree.  Excluding
a copy keeps the trees below reachable exactly when its two ends can still
be joined by later copies: the rejoin test grows one end's component through
its lowest later crossing copy, one component at a time, and stops as soon
as it reaches the other end, so a dead branch ends the loop at once.

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

    parent = list(range(n))
    rank = [0] * n
    # at each root, the copies with exactly one end in its component
    cut = [0] * n
    for p, (u, v) in enumerate(ends):
        cut[u] ^= 1 << p
        cut[v] ^= 1 << p

    def find(a: int) -> int:
        # no path compression: unions must be undoable
        while parent[a] != a:
            a = parent[a]
        return a

    tally: dict[int, int] = {}

    def rejoins(ru: int, rv: int, undecided: int) -> bool:
        """Can the copies in the mask `undecided` join ru's component to rv's?

        Grows ru's component through the lowest undecided copy leaving it, one
        component at a time, until a copy reaches rv or none is left.
        """
        grown, reached = cut[ru], {ru}
        while not grown & undecided & cut[rv]:
            out = grown & undecided
            if not out:
                return False
            a, b = ends[(out & -out).bit_length() - 1]
            r = find(a)
            if r in reached:
                r = find(b)
            reached.add(r)
            grown ^= cut[r]
        return True

    def rec(pos: int, components: int, key: int, crossing: int) -> None:
        # crossing: the copies that join two components.  The forest and the
        # copies from pos onward are connected (the root by the nonzero count;
        # including keeps it, and rejoins ends the loop where excluding would not)
        rest = crossing >> pos << pos
        if rest.bit_count() == components - 1:  # just the joins left: one tree (the empty one on one vertex)
            while rest:
                low = rest & -rest
                rest ^= low
                key += keys[low.bit_length() - 1]
            tally[key] = tally.get(key, 0) + 1
            return
        while rest:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            ru, rv = find(ends[p][0]), find(ends[p][1])
            joined = crossing & ~(cut[ru] & cut[rv])
            if components == 3:  # two components left: each crossing copy past p is one tree
                leaves = joined >> p + 1
                base = key + keys[p]
                while leaves:
                    leaf = leaves & -leaves
                    leaves ^= leaf
                    q = base + keys[p + leaf.bit_length()]
                    tally[q] = tally.get(q, 0) + 1
            else:
                if rank[ru] < rank[rv]:
                    ru, rv = rv, ru
                parent[rv], saved = ru, rank[ru]
                rank[ru] += saved == rank[rv]
                cut[ru] ^= cut[rv]
                rec(p + 1, components - 1, key + keys[p], joined)
                cut[ru] ^= cut[rv]
                parent[rv], rank[ru] = rv, saved
            # excluding p: rest holds the crossing copies past p
            if not cut[ru] & cut[rv] & rest and not rejoins(ru, rv, rest):
                return

    rec(0, n, 0, (1 << len(ends)) - 1)
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
