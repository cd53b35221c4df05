"""Weighted Laplacians and exact determinants of polynomial matrices.

The Laplacian of an edge-weighted graph has the negated edge weight off
the diagonal and the sum of incident weights on it, so every row and
column sums to zero.  Striking row r and column s leaves a matrix whose
determinant, times (-1)^(r+s), is the weighted spanning tree sum.

Determinants are computed exactly, by one of three paths:
  - cofactor expansion, for orders up to 4;
  - fraction-free Bareiss elimination over the integers, after one
    Kronecker substitution phi, when phi's image is small;
  - Bareiss elimination over the Laurent polynomials otherwise.
phi divides each row by its monomial content, then evaluates each variable
at a power of 2**(8w).  It is a ring homomorphism, so det phi(M) =
phi(det M).  Two bounds keep det M inside a box that phi maps one-to-one:
the exponent of each variable is at most the sum over rows of the row's
largest exponent of it, and every coefficient is at most the product over
rows of the row's summed absolute coefficients, which fixes the slot width
w.  Inside the box phi(det M) decodes back to det M (see
`polyring._KroneckerImage`).  Both Bareiss paths run one elimination loop.
Every interior Bareiss division is exact over an integral domain, and a
decoded image always fits its box, so a failure there is an implementation
bug, not an input condition.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional, Sequence

from .graphs import Edge, Graph, is_connected
from .polyring import (
    Monomial,
    NotDivisible,
    Polynomial,
    _KroneckerImage,
    div_exact,
    evar,
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


def edge_weight(g: Graph, edge: Edge, scheme: WeightScheme) -> Polynomial:
    """Weight monomial of one edge (multiplicity not included)."""
    check_scheme(g, scheme)
    u, v, direction = edge.u, edge.v, edge.direction
    if scheme is WeightScheme.GENERIC:
        return Polynomial.variable(evar(u + 1, v + 1))
    if scheme is WeightScheme.CAYLEY_PRUFER:
        return Polynomial.monomial(Monomial.of({x(u + 1): 1}) * Monomial.of({x(v + 1): 1}))
    if scheme is WeightScheme.DIRECTION:
        return Polynomial.variable(q(direction))
    if scheme is WeightScheme.DECOUPLED:
        exps: dict = {q(direction): 1}
        for label in (g.labels[u], g.labels[v]):
            for t, member in enumerate(label, start=1):
                key = xd(t, member)
                exps[key] = exps.get(key, 0) + 1
        return Polynomial.monomial(Monomial.of(exps))
    if scheme is WeightScheme.CUBE_LAURENT:
        s_set = g.labels[u]
        n = len(g.dims)
        exps = {q(direction): 1}
        for t in range(1, n + 1):
            if t == direction:
                continue
            exps[x(t)] = 1 if t in s_set else -1
        return Polynomial.monomial(Monomial.of(exps))
    if scheme is WeightScheme.THRESHOLD_IN_OUT:
        return Polynomial.monomial(Monomial.of({x(u + 1): 1, y(v + 1): 1}))
    raise SchemeMismatch(f"unknown scheme {scheme!r}")


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
        out = []
        for row in self.rows:
            s = Polynomial.zero()
            for p in row:
                s = s + p
            out.append(s)
        return out

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


def weighted_laplacian(g: Graph, scheme: WeightScheme) -> PolyMatrix:
    """Laplacian under the given scheme; rows and columns sum to zero."""
    check_scheme(g, scheme)
    n = g.n
    # entries built on one layout never need re-keying as they grow
    zero, *weights = share_layout(
        [Polynomial.zero()] + [edge_weight(g, e, scheme) * e.multiplicity for e in g.edges]
    )
    rows = [[zero for _ in range(n)] for _ in range(n)]
    for edge, w in zip(g.edges, weights):
        u, v = edge.u, edge.v
        rows[u][u] = rows[u][u] + w
        rows[v][v] = rows[v][v] + w
        rows[u][v] = rows[u][v] - w
        rows[v][u] = rows[v][u] - w
    return PolyMatrix(rows)


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


# Images above this many bits go to polynomial Bareiss: CPython's long
# division is quadratic, and past it the integer elimination loses.
_KRONECKER_BITS = 1 << 15


def determinant(m: PolyMatrix) -> Polynomial:
    """Exact determinant of a square polynomial matrix.

    Cofactor expansion up to 4x4.  Above that, the bounds are taken before
    anything is packed: an image phi(M) of at most 2**15 bits (slots times
    8w) is eliminated over the integers and decoded once; a larger one goes
    to Bareiss over the polynomials.  The path follows from the matrix
    alone; `_cofactor_det` and `_bareiss_det` take the rows directly.
    """
    rows = m.rows
    if not rows:
        return Polynomial.one()
    if m.size <= 4:
        return _cofactor_det(rows)
    image = _KroneckerImage(rows)
    if image.bits <= _KRONECKER_BITS:
        return _kronecker_det(image)
    return _bareiss_det(rows)


def _cofactor_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Polynomial.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entry * _cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _eliminate(a: list[list], zero, divide: Callable):
    """Fraction-free Bareiss elimination of the nonempty square `a`, in place.

    Works over any integral domain whose exact division is `divide`: every
    interior quotient is a minor of the matrix (Sylvester's identity), so
    `divide` raising means the arithmetic is broken, not the input.
    """
    n = len(a)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return zero
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                elt = pivot * row_i[j] - lead * row_k[j]
                row_i[j] = elt if prev is None else divide(elt, prev)
            row_i[k] = zero  # frees the entry; column k is never read again
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _bareiss_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    n = len(rows)
    # one layout for every entry: the elimination does no layout work
    flat = share_layout(p for row in rows for p in row)
    return _eliminate([flat[i * n:(i + 1) * n] for i in range(n)], Polynomial.zero(), _divide_poly)


def _divide_poly(a: Polynomial, b: Polynomial) -> Polynomial:
    try:
        return div_exact(a, b)
    except NotDivisible as stuck:  # impossible over a domain
        raise AssertionError("Bareiss interior division failed; matrix arithmetic is broken") from stuck


def _kronecker_det(image: _KroneckerImage) -> Polynomial:
    """det M = phi^-1(det phi(M)): integer Bareiss on the packed matrix, one unpack."""
    return image.polynomial(_eliminate(image.matrix(), 0, _divide_int))


def _divide_int(a: int, b: int) -> int:
    quotient, remainder = divmod(a, b)
    if remainder:  # impossible over the integers
        raise AssertionError("Bareiss interior division left a remainder; integer arithmetic is broken")
    return quotient


def tree_enumerator_det(
    g: Graph,
    scheme: WeightScheme,
    remove: Optional[tuple[int, int]] = None,
) -> Polynomial:
    """Signed reduced-Laplacian determinant: the weighted spanning tree sum.

    Defaults to striking the last row and column.  Disconnected graphs
    enumerate no trees and return 0.
    """
    if not is_connected(g):
        return Polynomial.zero()
    lap = weighted_laplacian(g, scheme)
    if g.n == 1:
        return Polynomial.one()
    if remove is None:
        remove = (g.n - 1, g.n - 1)
    reduced, sign = reduce_matrix(lap, remove[0], remove[1])
    det = determinant(reduced)
    return det if sign > 0 else -det
