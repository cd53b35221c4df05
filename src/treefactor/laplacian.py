"""Weighted Laplacians and exact determinants of polynomial matrices.

The Laplacian of an edge-weighted graph has the negated edge weight off
the diagonal and the sum of incident weights on it, so every row and
column sums to zero.  Striking row r and column s leaves a matrix whose
determinant, times (-1)^(r+s), is the weighted spanning tree sum.  Any
principal cofactor will do, so by default `tree_enumerator_det` strikes a
vertex with the most edges and lists the rows left by ascending degree:
the dense row and column stay out of the matrix, and minors expand the
sparsest rows first.  On a threshold graph that strikes a dominating
vertex, not the last and sparsest one.

Each weight scheme has one key table: a layout of variables that the
scheme fixes from the graph's shape, built once, and the packed key of
every edge's weight over it (`_weight_table`).  `_laplacian_cells`, the one
cell loop, adds each edge's key, times its multiplicity, into the four
{key: coefficient} cells it touches, and `edge_weight` reads its key from
the same table, so each scheme's weight is written once and no polynomial
is built per edge.  `weighted_laplacian` wraps the cells as a `PolyMatrix`;
the nullvector checks of `verify` stack them as they are.

Determinants are computed exactly over one integral domain, by one of two
routes, which one plan (`_plan`) prices from the matrix before either runs:
  - expansion by minors, priced by its entry-times-minor products, which a
    walk over the zero pattern counts and stops as soon as they pass the
    image's price;
  - fraction-free Bareiss elimination over the integers, after one
    Kronecker substitution phi, priced from the image's order and bits.
    Past `_CAP_BITS` (2**20) bits of image the determinant is refused with
    `CapExceeded` before the image is unpacked, unless minors end first.
Minors win outright, with no image built, under the price of an image with
no bits; every matrix of order 5 or less goes by minors.
The expansion (`_minors_det`) only multiplies an entry by a minor and
never divides, which suits a Laplacian's sparse monomial entries.
phi divides each row by its monomial content, then evaluates each variable
at a power of 2**b.  It is a ring homomorphism, so det phi(M) =
phi(det M).  Two bounds keep det M inside a box that phi maps one-to-one:
the exponent of each variable is at most the sum over rows of the row's
largest exponent of it, and every coefficient is at most Hadamard's bound,
the square root of the product over rows of the summed squares of the
entries' absolute coefficient sums, which fixes the slot width of b bits.
Inside the box phi(det M) decodes back to det M (see
`polyring._KroneckerImage`).  Every interior Bareiss division is exact
over the integers, and a decoded image always fits its box, so a failure
there is an implementation bug, not an input condition.
A reduced Laplacian's determinant is +-a spanning tree sum with positive
coefficients, so `tree_enumerator_det` hands the plan the trees' box
(`_tree_box`), taken once the image is in contention: each variable's
largest exponent over them, and slots holding Kirchhoff's count tau and a
sign bit.  The plan narrows the image to it and prices the narrowed box.
With tau = 0 the determinant is 0.
Bareiss pivots on the least leading minor: while the next pivot is wider
than 62 bits, the remaining diagonal entry of least magnitude is swapped
in, rows and columns alike.  On an image a minor's width follows its
degree under phi, so the narrow minors are eliminated first.  Every
degree of a product of complete graphs ties, so its rows keep the vertex
order, which puts the two K2 copies of K2xK3xK3 far apart, and there each
leading minor would reach nearly every matching edge of q1.
A symmetric matrix (a Kirchhoff count, a direction image, the decoupled
Gram matrix) stays symmetric under the Bareiss update, so only its upper
triangle is eliminated, at half the big-int products and divisions.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

from .graphs import Edge, Graph, _joins
from .polyring import (
    _EXP_LIMIT,
    Polynomial,
    _KroneckerImage,
    _Layout,
    _dot,
    _layout,
    _new,
    evar,
    poly_sum,
    q,
    share_layout,
    x,
    xd,
    y,
)


class SchemeMismatch(ValueError):
    """Weight scheme applied to a graph family it is not defined on."""


class IndexOutOfRange(IndexError):
    """Row or column index outside the matrix."""


class CapExceeded(RuntimeError):
    """A predicted size exceeds its cap: an enumeration's tree count, or a determinant's image bits."""


class WeightScheme(Enum):
    GENERIC = "generic"
    CAYLEY_PRUFER = "cayley"
    DIRECTION = "direction"
    DECOUPLED = "decoupled"
    CUBE_LAURENT = "cube"
    THRESHOLD_IN_OUT = "inout"


_SCHEME_KINDS = {
    WeightScheme.GENERIC: {"plain", "product", "cube", "threshold"},
    WeightScheme.CAYLEY_PRUFER: {"plain", "threshold"},
    WeightScheme.DIRECTION: {"product", "cube"},
    WeightScheme.DECOUPLED: {"product"},
    WeightScheme.CUBE_LAURENT: {"cube"},
    WeightScheme.THRESHOLD_IN_OUT: {"plain", "threshold"},
}


def check_scheme(g: Graph, scheme: WeightScheme) -> None:
    if g.kind not in _SCHEME_KINDS[scheme]:
        raise SchemeMismatch(f"{scheme.value} weights are not defined on a {g.kind} graph")


@lru_cache(maxsize=256)
def _indexed_layout(qs: Sequence[int] = (), xs: Sequence[int] = (), ys: Sequence[int] = (),
                    xds: Sequence[tuple[int, int]] = ()) -> _Layout:
    """The layout of q_i, x_i, y_i and x(i,m) over the given ascending indices, built once per index set.

    The one source of the layouts that follow from a graph's size: the
    key tables here and the variables of `formulas` both take theirs from
    it, so a closed form is keyed over its Laplacian's layout.
    """
    return _layout((*map(q, qs), *map(x, xs), *map(y, ys), *(xd(i, m) for i, m in xds)))


def _weight_table(g: Graph, scheme: WeightScheme, edges: Sequence[Edge]) -> tuple[_Layout, list[int]]:
    """The layout `scheme` fixes for g, and the packed key of each edge's weight over it.

    The layout's variables are x1..xn for degrees; x1..x(n-1) and y2..yn
    for in/out degrees (an edge's lower endpoint gives its x, the upper one
    its y); q_i for each direction with edges; q1..qr and x1..xr on the
    r-cube; those q_i and every coordinate x(i,j) for the decoupled weights;
    e(u,v) for each edge of g under generic weights.  All but the generic
    ones follow from g's size (n or its dims) alone, so `_indexed_layout`
    builds them once per size.  A weight is a product of variables, so its
    key is a sum of their keys.
    """
    n = g.n
    if scheme is WeightScheme.GENERIC:
        pairs = sorted({(e.u + 1, e.v + 1) for e in g.edges})
        lay = _layout(tuple(evar(u, v) for u, v in pairs))
        pair_keys = dict(zip(pairs, lay.unit))
        keys = [pair_keys[e.u + 1, e.v + 1] for e in edges]
    elif scheme is WeightScheme.CAYLEY_PRUFER:
        lay = _indexed_layout(xs=range(1, n + 1))
        xs = lay.unit
        keys = [xs[e.u] + xs[e.v] for e in edges]
    elif scheme is WeightScheme.THRESHOLD_IN_OUT:
        lay = _indexed_layout(xs=range(1, n), ys=range(2, n + 1))
        xs, ys = lay.unit[:n - 1], lay.unit[n - 1:]
        keys = [xs[e.u] + ys[e.v - 1] for e in edges]
    elif scheme is WeightScheme.CUBE_LAURENT:
        directions = range(1, len(g.dims) + 1)
        lay = _indexed_layout(qs=directions, xs=directions)
        qs, xs = lay.unit[:len(directions)], lay.unit[len(directions):]
        # x_t or 1/x_t as t is in the lower endpoint's subset or not, off the edge's direction
        keys = [qs[e.direction - 1] + sum(xs[t - 1] if t in g.labels[e.u] else -xs[t - 1]
                                          for t in directions if t != e.direction) for e in edges]
    else:
        directions = tuple(i for i, d in enumerate(g.dims, start=1) if d > 1)
        coords = ()
        if scheme is WeightScheme.DECOUPLED:
            coords = tuple((i, m) for i, d in enumerate(g.dims, start=1) for m in range(1, d + 1))
        lay = _indexed_layout(qs=directions, xds=coords)
        qs = dict(zip(directions, lay.unit))
        xs = dict(zip(coords, lay.unit[len(directions):]))
        keys = [qs[e.direction] for e in edges]
        if coords:  # decoupled: both endpoints' coordinates, labels being 1-based tuples
            keys = [k + sum(xs[t, m] for label in (g.labels[e.u], g.labels[e.v]) for t, m in enumerate(label, start=1))
                    for k, e in zip(keys, edges)]
    lay.check_range(keys)
    return lay, keys


def edge_weight(g: Graph, edge: Edge, scheme: WeightScheme) -> Polynomial:
    """Weight monomial of one edge of g (multiplicity not included), from the scheme's key table."""
    check_scheme(g, scheme)
    if edge[:3] not in {e[:3] for e in g.edges}:
        raise ValueError(f"(u, v, direction) = {edge[:3]} is not an edge of the graph")
    lay, (key,) = _weight_table(g, scheme, (edge,))
    return _new(lay, {key: 1})


class PolyMatrix:
    """Immutable square matrix of polynomials."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        self.rows = tuple(tuple(row) for row in rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def at(self, i: int, j: int) -> Polynomial:
        return self.rows[i][j]

    def row_sums(self) -> list[Polynomial]:
        return [poly_sum(row) for row in self.rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __str__(self) -> str:
        cells = [[p.render() for p in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.size)) for j in range(self.size)] if self.size else []
        lines = []
        for row in cells:
            lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")
        return "\n".join(lines)


def _laplacian_cells(g: Graph, scheme: WeightScheme) -> tuple[_Layout, dict[tuple[int, int], dict[int, int]]]:
    """The scheme's layout and the Laplacian's nonzero cells, each a {key: coefficient} dict.

    Each edge adds its key, times its multiplicity, into the four cells it
    touches.  Multiplicities are positive, so no coefficient sums to 0.
    """
    check_scheme(g, scheme)
    lay, keys = _weight_table(g, scheme, g.edges)
    cells: dict[tuple[int, int], dict[int, int]] = {}
    for (u, v, _, m), k in zip(g.edges, keys):
        for cell, c in (((u, u), m), ((v, v), m), ((u, v), -m), ((v, u), -m)):
            terms = cells.setdefault(cell, {})
            terms[k] = terms.get(k, 0) + c
    return lay, cells


def weighted_laplacian(g: Graph, scheme: WeightScheme) -> PolyMatrix:
    """Laplacian under the given scheme, its cells from `_laplacian_cells`; rows and columns sum to zero."""
    lay, cells = _laplacian_cells(g, scheme)
    zero = _new(lay, {})
    return PolyMatrix([[_new(lay, cells[i, j]) if (i, j) in cells else zero for j in range(g.n)]
                       for i in range(g.n)])


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


def reduce_matrix(m: PolyMatrix, row: int, col: int) -> tuple[PolyMatrix, int]:
    """Strike one row and one column; returns the minor and (-1)^(row+col)."""
    n = m.size
    if not (0 <= row < n and 0 <= col < n):
        raise IndexOutOfRange(f"cannot strike ({row},{col}) from a {n}x{n} matrix")
    rows = [
        [m.rows[i][j] for j in range(n) if j != col]
        for i in range(n)
        if i != row
    ]
    sign = -1 if (row + col) % 2 else 1
    return PolyMatrix(rows), sign


# Wider images are refused: Q9's and K40's run past 10**51 bits, more than
# an int can hold, while directions (2,2,2,3)'s 801,792 bits, narrowed to
# its tree box, eliminate in about 5 s.  The same bound caps the minors of
# an order-n matrix at _CAP_BITS / n products: past them the walk stops.
_CAP_BITS = 1 << 20
# An image of order n and b bits is priced in minor products: about
# _CELL_PRODUCTS per cell to pack, box, eliminate and decode word-sized
# entries, times 1 + n * (b / _LONG_BITS)**2 once Bareiss runs on long
# integers, whose products and quotients take quadratic time in CPython.
# Fitted to the families' reduced Laplacians of orders 5 to 26; with 3 per
# cell, every matrix of order 5 or less goes by minors.
_CELL_PRODUCTS = 3
_LONG_BITS = 24000


def determinant(m: PolyMatrix, tree_box: Optional[Callable[[], tuple[int, Sequence[int]]]] = None) -> Polynomial:
    """Exact determinant of a square polynomial matrix, by the route `_plan` prices cheaper.

    Minors are priced by their entry-times-minor products, counted off the
    zero pattern, and an image of order n and b bits at `_image_price`(n, b).
    Minors win outright while their count stays under the price of an image
    with no bits, and no image is built.  Past it the image's box is read off
    the keys: past 2**20 bits it is refused with `CapExceeded` before anything
    is unpacked, unless minors end within 2**20 / n products.  Otherwise
    `tree_box` (for a determinant that is +-a tree sum) gives the tree count
    and the tops the image is narrowed to (`_tree_box`), and the narrowed
    image is priced; a count of 0 is determinant 0.  The walk stops as soon
    as its count passes the price, and the image is eliminated; if the walk
    ends first, minors win.
    """
    return _plan(m.rows, tree_box)()


def _plan(rows: Sequence[Sequence[Polynomial]],
          tree_box: Optional[Callable[[], tuple[int, Sequence[int]]]] = None) -> Callable[[], Polynomial]:
    """The route `determinant` takes, as a call with no arguments, from one walk (`_minor_products`).

    The densest pattern of order n has n (2**(n - 1) - 1) products, so an
    order that puts even those under the first budget is not walked.
    """
    n = len(rows)
    most = _CAP_BITS // max(n, 1)
    image, budget = None, min(_image_price(n, 0), most)
    if n * (2 ** (n - 1) - 1) <= budget:
        return partial(_minors_det, rows)
    for products in _minor_products(rows):
        if products > budget and image is None:
            image, budget = _KroneckerImage(rows), most
            if image.bits <= _CAP_BITS:
                if tree_box is not None:
                    count, tops = tree_box()
                    if not count:
                        return partial(image.polynomial, 0)
                    image.narrow(tops, count)
                budget = min(_image_price(n, image.bits), most)
        if products > budget:
            break
    else:
        return partial(_minors_det, rows)
    if image.bits > _CAP_BITS:
        raise CapExceeded(f"the {n}x{n} determinant's Kronecker image needs {image.bits} bits,"
                          f" past the bound of {_CAP_BITS}")
    return partial(_kronecker_det, image)


def _image_price(n: int, bits: int) -> float:
    """The price of eliminating an n x n image of `bits` bits, in minor products."""
    return _CELL_PRODUCTS * n * n * (1 + n * (bits / _LONG_BITS) ** 2)


def _minor_products(rows: Sequence[Sequence[Polynomial]]) -> Iterator[int]:
    """Running count of the entry-times-minor products `_minors_det` makes, read off the zero pattern.

    One count per row after the first, taken before the next level of column
    sets is built, so a walk stopped on it builds no more.  Only which
    entries are zero is read: a minor that cancels is still counted.
    """
    rows = iter(rows)
    above = [1 << j for j, p in enumerate(next(rows, ())) if p]
    level, count = {0}, 0
    for row in rows:
        level = {t | bit for t in level for bit in above if not t & bit}
        above = [1 << j for j, p in enumerate(row) if p]
        mask = sum(above)
        count += sum((mask & ~t).bit_count() for t in level)
        yield count


def _minors_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Laplace expansion along rows 0..n-1 that keeps one minor per column set.

    After r rows, `level` maps each column set T (a bit mask) to D(T), the
    minor on rows 0..r-1 and columns T.  Expanding D(T + j) along its last
    row gives the sum of +-a[r][j] * D(T), signed by the parity of the
    columns of T after j, so each product is one entry times one minor and
    nothing is divided (Gentleman and Johnson, ACM TOMS 2(3), 1976).  Zero
    minors are dropped.  Each term of a minor takes one entry from each of
    its rows, so an exponent in it is at most the sum over rows of the
    row's span (largest |exponent|) in magnitude: when those spans add up
    to less than 2**28 nothing is scanned, and otherwise every minor is.
    """
    n = len(rows)
    if not n:
        return Polynomial.one()
    flat = share_layout(p for row in rows for p in row)
    lay = flat[0]._lay
    scan = sum(lay.span(k for p in flat[r * n:(r + 1) * n] for k in p._terms) for r in range(n)) >= _EXP_LIMIT
    level = {1 << j: p._terms for j, p in enumerate(flat[:n]) if p}
    for r in range(1, n):
        row = [(j, 1 << j, p._terms, (-p)._terms) for j, p in enumerate(flat[r * n:(r + 1) * n]) if p]
        pairs: dict[int, list] = {}
        for t, minor in level.items():
            for j, bit, plus, minus in row:
                if not t & bit:
                    pairs.setdefault(t | bit, []).append((minus if (t >> j).bit_count() & 1 else plus, minor))
        level = {s: d for s, terms in pairs.items() if (d := _dot(terms))}
        if scan:
            lay.check_range(chain.from_iterable(level.values()))
    return _new(lay, level.popitem()[1] if level else {})


def _eliminate(a: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination of the nonempty square integer matrix `a`, in place.

    Every interior quotient is a minor of the matrix (Sylvester's identity),
    so a remainder means the arithmetic is broken, not the input.  Before
    step k, entry (i, i) for i >= k is the minor on rows and columns 0..k-1
    and i: the pivot that moving i to k would give.  While the pivot at k is
    wider than 62 bits, rows k and p and then columns k and p (in rows k..n-1;
    the finished rows are never read again) swap for the diagonal entry of
    least magnitude, which keeps the determinant and its sign.  Narrower
    ints multiply in about constant time, so their order is not searched.
    A zero pivot swaps in a row below and flips the sign.  The updates of
    (i, j) and (j, i) read a[i][k] a[k][j] and a[j][k] a[k][i], equal while
    rows and columns k..n-1 are symmetric, so then only entries j >= i are
    computed, with row i's lead read as a[k][i].  The stale lower triangle is
    rebuilt only where it is read: before a swap that moves a row and its
    column, and before a zero pivot's row swap, which ends the symmetry.
    """
    n = len(a)
    sign = prev = 1
    sym = a == list(map(list, zip(*a)))  # a equals its transpose
    for k in range(n - 1):
        if a[k][k].bit_length() > 62:
            # symmetric swap: the next pivot is the least leading minor left
            p = min(range(k, n), key=lambda i: abs(a[i][i]))
            if sym and p != k:
                _mirror(a, k)
            a[k], a[p] = a[p], a[k]
            for row in a[k:]:
                row[k], row[p] = row[p], row[k]
        if not a[k][k]:
            if sym:
                _mirror(a, k)
                sym = False
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_k[i] if sym else row_i[k]
            for j in range(i if sym else k + 1, n):
                row_i[j], remainder = divmod(pivot * row_i[j] - lead * row_k[j], prev)
                if remainder:  # impossible over the integers
                    raise AssertionError("Bareiss interior division left a remainder; integer arithmetic is broken")
            row_i[k] = 0  # frees the entry; column k is never read again
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _mirror(a: list[list[int]], k: int) -> None:
    """Copy the upper triangle of rows and columns k..n-1 into their lower one."""
    for i in range(k + 1, len(a)):
        a[i][k:i] = [a[j][i] for j in range(k, i)]


def _kronecker_det(image: _KroneckerImage) -> Polynomial:
    """det M = phi^-1(det phi(M)): integer Bareiss on the packed matrix, one unpack."""
    return image.polynomial(_eliminate(image.matrix()))


def _tree_box(g: Graph, lap: PolyMatrix) -> tuple[int, list[int]]:
    """Kirchhoff's count of g's spanning trees, and each layout variable's largest exponent over them.

    Above the diagonal of g's Laplacian `lap`, cell (u, v) holds the keys of
    the edges joining u and v.  A variable's largest exponent is the weight of
    a maximum spanning tree under the edges' digits of it (Kruskal, Proc. AMS
    7, 1956, by `graphs._joins`); digits may be negative.  The edges of the
    least digit join whatever components the others leave, so only the others
    are sorted.
    """
    count = spanning_tree_count(g)
    if not count:
        return 0, []
    exponents = lap.rows[0][0]._lay.exponents
    edges = [(u, v, k) for u, row in enumerate(lap.rows) for v in range(u + 1, g.n) for k in row[v]._terms]
    tops = []
    for digits in zip(*(exponents(k) for _, _, k in edges)):
        least = min(digits)
        kept = sorted(((d, u, v) for d, (u, v, _) in zip(digits, edges) if d > least), reverse=True)
        joins = _joins(g.n, [(u, v) for _, u, v in kept])
        tops.append(sum(d for (d, _, _), j in zip(kept, joins) if j) + least * (g.n - 1 - sum(joins)))
    return count, tops


def tree_enumerator_det(
    g: Graph,
    scheme: WeightScheme,
    remove: Optional[tuple[int, int]] = None,
) -> Polynomial:
    """Signed reduced-Laplacian determinant: the weighted spanning tree sum.

    `remove=(r, s)` strikes row r and column s.  By default rows and columns
    alike are sorted by degree, stably, and the last, a vertex with the most
    edges, is struck, with sign +1.  When every degree ties (K_n, products
    of complete graphs, cubes) that is the last row and column.
    Disconnected graphs enumerate no trees and return 0.
    """
    lap = matrix = weighted_laplacian(g, scheme)
    if remove is None:
        if not g.n:  # no vertex to strike: the empty graph has no spanning tree
            return Polynomial.zero()
        order = sorted(range(g.n), key=g.degrees().__getitem__)
        matrix = PolyMatrix([[lap.rows[i][j] for j in order] for i in order])
        remove = (g.n - 1, g.n - 1)
    reduced, sign = reduce_matrix(matrix, remove[0], remove[1])
    det = determinant(reduced, lambda: _tree_box(g, lap))
    return det if sign > 0 else -det
