"""Weighted Laplacians and exact determinants of polynomial matrices.

The Laplacian of an edge-weighted graph has the negated edge weight off
the diagonal and the sum of incident weights on it, so every row and
column sums to zero.  Striking row r and column s leaves a matrix whose
determinant, times (-1)^(r+s), is the weighted spanning tree sum.

Determinants are computed exactly: cofactor expansion for orders up to 4,
fraction-free Bareiss elimination above that.  Every interior Bareiss
division is exact over an integral domain, so a failed division there is
an implementation bug, not an input condition.  Rows with negative
exponents are premultiplied by a clearing monomial and the product of the
clearing monomials is divided back out of the determinant at the end.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .graphs import Edge, Graph, is_connected
from .polyring import (
    Monomial,
    NotDivisible,
    Polynomial,
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


def determinant(m: PolyMatrix, method: Optional[str] = None) -> Polynomial:
    """Exact determinant; cofactor expansion up to 4x4, Bareiss beyond."""
    if method is None:
        method = "cofactor" if m.size <= 4 else "bareiss"
    if method == "cofactor":
        return _cofactor_det(m.rows)
    if method == "bareiss":
        return _bareiss_det(m.rows)
    raise ValueError(f"unknown determinant method {method!r}")


def _cofactor_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    n = len(rows)
    if n == 0:
        return Polynomial.one()
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


def _bareiss_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    n = len(rows)
    if n == 0:
        return Polynomial.one()
    # clear Laurent entries row by row; det scales by the clearing monomials
    shift = Monomial()
    cleared: list[list[Polynomial]] = []
    for row in rows:
        mins: dict = {}
        for p in row:
            for v, e in p.min_exponents().items():
                if e < 0 and e < mins.get(v, 0):
                    mins[v] = e
        if mins:
            m = Monomial.of({v: -e for v, e in mins.items()})
            shift = shift * m
            mp = Polynomial.monomial(m)
            cleared.append([p * mp for p in row])
        else:
            cleared.append(list(row))

    # one layout for every entry: the elimination below does no layout work
    flat = share_layout(p for row in cleared for p in row)
    a = [flat[i * n:(i + 1) * n] for i in range(n)]

    sign = 1
    prev = None
    for k in range(n - 1):
        if a[k][k].is_zero:
            pivot_row = next((i for i in range(k + 1, n) if not a[i][k].is_zero), None)
            if pivot_row is None:
                return Polynomial.zero()
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                if prev is not None:
                    try:
                        elt = div_exact(elt, prev)
                    except NotDivisible as stuck:  # impossible over a domain
                        raise AssertionError(
                            "Bareiss interior division failed; matrix arithmetic is broken"
                        ) from stuck
                a[i][j] = elt
            a[i][k] = Polynomial.zero()  # frees the entry; column k is never read again
        prev = a[k][k]
    det = a[n - 1][n - 1]
    if sign < 0:
        det = -det
    if shift.exps:
        det = det * Polynomial.monomial(shift ** -1)
    return det


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
