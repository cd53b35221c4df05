"""Graph families: complete graphs, multigraph thickenings, Cartesian
products, hypercubes, and threshold graphs, plus the partition helpers the
threshold constructions need.

Vertices are 0-based indices into a label tuple.  Labels carry the
math-facing identity: 1-based integers for plain graphs, coordinate tuples
for products, frozensets for hypercubes.  A product's vertices are numbered
by their tuples of factor indices in row-major order (last coordinate
fastest); the n-cube is the product of n copies of K2, each tuple relabelled
by the subset of coordinates at 2.  Every edge is stored with its smaller
endpoint first and carries a direction tag (the coordinate a product edge
moves along; 1 elsewhere) and a multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence, Union


class InvalidSize(ValueError):
    """Graph size parameter out of range."""


class EmptyFactor(ValueError):
    """Cartesian product factor list empty or a factor unusable."""


class NotThresholdSequence(ValueError):
    """Degree sequence not realizable by the threshold construction."""


class Disconnected(ValueError):
    """A disconnected graph where spanning trees, or a formula for them, are asked for."""


class Edge(NamedTuple):
    u: int
    v: int
    direction: int = 1
    multiplicity: int = 1


@dataclass(frozen=True)
class Graph:
    kind: str  # "plain" | "product" | "cube" | "threshold"
    labels: tuple
    edges: tuple[Edge, ...]
    dims: Optional[tuple[int, ...]] = None
    degree_sequence: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        n = len(self.labels)
        for e in self.edges:
            if not (0 <= e.u < e.v < n):
                raise ValueError(f"bad edge {e} on {n} vertices")
            if e.multiplicity < 1:
                raise ValueError(f"bad multiplicity on edge {e}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees, counting edge multiplicities."""
        deg = [0] * self.n
        for e in self.edges:
            deg[e.u] += e.multiplicity
            deg[e.v] += e.multiplicity
        return tuple(deg)


@dataclass(frozen=True)
class SpanningTree:
    """Edge-index multiset of one spanning tree of a parent graph.

    Indices point into the parent's edge list; a parallel-copy choice in a
    multigraph yields the same index tuple once per copy.
    """

    edge_indices: tuple[int, ...]


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(p, int) or p < 0 for p in self.parts):
            raise ValueError("partition parts are nonnegative integers")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]


PartitionLike = Union[Partition, Sequence[int]]


def _coerce_partition(lam: PartitionLike) -> Partition:
    if isinstance(lam, Partition):
        return lam
    return Partition(tuple(int(p) for p in lam))


def _joins(n: int, pairs: Iterable[tuple[int, int]]) -> list[bool]:
    """Whether each pair (u, v), in order, joins two components of the forest
    the pairs before it built on vertices 0..n-1: a union-find with path
    halving, the library's one but for the undoable one of `treebrute`'s walk."""
    parent, joins = list(range(n)), []
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
        joins.append(u != v)
    return joins


def is_connected(g: Graph) -> bool:
    """Whether g has one component: its edges join n - 1 pairs of components (no vertex, no component)."""
    return g.n > 0 and sum(_joins(g.n, ((e.u, e.v) for e in g.edges))) == g.n - 1


def complete_graph(n: int) -> Graph:
    return multigraph_kn(n, 1)


def multigraph_kn(n: int, q: int) -> Graph:
    """Complete graph with every edge thickened to q parallel copies."""
    if n < 1:
        raise InvalidSize("complete graph needs at least one vertex")
    if q < 1:
        raise InvalidSize("edge multiplicity must be at least 1")
    edges = tuple(Edge(u, v, 1, q) for u in range(n) for v in range(u + 1, n))
    return Graph(kind="plain", labels=tuple(range(1, n + 1)), edges=edges)


def cartesian_product(factors: Sequence[Graph]) -> Graph:
    """Cartesian product; edges in coordinate i carry direction tag i (1-based).

    Vertex order is row-major over the factor label tuples with the last
    coordinate varying fastest.  Each edge {a, b} of factor i joins, at every
    vertex whose i-th index is a, the vertex with b there instead.
    """
    if not factors:
        raise EmptyFactor("product of no factors")
    for g in factors:
        if g.n < 1:
            raise EmptyFactor("empty product factor")
        if g.kind != "plain":
            raise EmptyFactor("product factors must be plain graphs")
    number = {t: k for k, t in enumerate(product(*(range(g.n) for g in factors)))}
    edges = [
        Edge(k, number[t[:i] + (fe.v,) + t[i + 1 :]], i + 1, fe.multiplicity)
        for i, g in enumerate(factors)
        for fe in g.edges
        for t, k in number.items()
        if t[i] == fe.u
    ]
    return Graph(
        kind="product",
        labels=tuple(product(*(g.labels for g in factors))),
        edges=tuple(edges),
        dims=tuple(g.n for g in factors),
    )


def hypercube(n: int) -> Graph:
    """The n-cube K2^n, each vertex (t1..tn) relabelled {i : ti = 2}.

    S and S+{i} are joined in direction i.  Vertices are ordered by the
    subsets' binary numbers (1 the leading bit), edges by (u, direction).
    """
    if n < 1:
        raise InvalidSize("hypercube dimension must be at least 1")
    p = cartesian_product([complete_graph(2)] * n)
    labels = tuple(frozenset(i for i, t in enumerate(pl, start=1) if t == 2) for pl in p.labels)
    edges = tuple(sorted(p.edges, key=lambda e: (e.u, e.direction)))
    return Graph(kind="cube", labels=labels, edges=edges, dims=p.dims)


def threshold_graph(lam: PartitionLike) -> Graph:
    """Build the graph whose vertex i neighbors the lam_i smallest others.

    Validity is decided constructively: the realized degree sequence must
    reproduce lam exactly, else the input is rejected.  A last part of 0
    yields an isolated vertex; the graph is still built and callers that
    need connectivity must check it.
    """
    lam = _coerce_partition(lam)
    n = len(lam)
    if n < 1:
        raise NotThresholdSequence("empty degree sequence")
    if any(p > n - 1 for p in lam):
        raise NotThresholdSequence(f"degree exceeds {n - 1} on {n} vertices")
    # for u < v, numbered from 0: u is among v's lam_v smallest others, or v among u's lam_u
    edges = tuple(Edge(u, v) for u in range(n) for v in range(u + 1, n) if u < lam[v] or v <= lam[u])
    g = Graph(
        kind="threshold",
        labels=tuple(range(1, n + 1)),
        edges=edges,
        degree_sequence=tuple(lam),
    )
    realized = g.degrees()
    if realized != tuple(lam):
        raise NotThresholdSequence(
            f"rule realizes degrees {realized}, not {tuple(lam)}"
        )
    return g


def conjugate(lam: PartitionLike) -> Partition:
    """Conjugate partition: k-th part counts parts of lam that are >= k."""
    lam = _coerce_partition(lam)
    if not lam.parts or lam.parts[0] == 0:
        return Partition(())
    return Partition(tuple(sum(1 for p in lam if p >= k) for k in range(1, lam.parts[0] + 1)))


def durfee(lam: PartitionLike) -> int:
    """Side of the largest square fitting in the partition diagram."""
    lam = _coerce_partition(lam)
    s = 0
    for i, p in enumerate(lam.parts, start=1):
        if p >= i:
            s = i
    return s


def connected_threshold_sequences(n: int) -> list[Partition]:
    """All degree sequences of connected threshold graphs on n vertices.

    Generated by creation sequences (each new vertex is added isolated or
    dominating; connectivity forces the last addition to dominate),
    deduplicated by degree sequence.
    """
    if n < 1:
        raise InvalidSize("need at least one vertex")
    if n == 1:
        return [Partition((0,))]
    seqs: set[tuple[int, ...]] = set()
    for mask in range(1 << (n - 2)):
        dom = [0] + [(mask >> k) & 1 for k in range(n - 2)] + [1]  # 1 = dominating
        # vertex k meets the k before it if it dominates, and every later dominator
        degs = [k * d + sum(dom[k + 1 :]) for k, d in enumerate(dom)]
        seqs.add(tuple(sorted(degs, reverse=True)))
    return [Partition(t) for t in sorted(seqs, reverse=True)]
