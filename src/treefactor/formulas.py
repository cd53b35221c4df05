"""Closed-form products for weighted spanning tree sums.

Every formula here is an independent route to a quantity the Laplacian
determinant and the brute-force enumeration also compute; the test suite
derives its confidence from the three routes agreeing.  All divisions are
exact integer-coefficient divisions performed after full expansion.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence, Union

from .graphs import (
    InvalidSize,
    Partition,
    PartitionLike,
    _coerce_partition,
    conjugate,
    durfee,
    is_connected,
    threshold_graph,
)
from .polyring import (
    Monomial,
    Polynomial,
    _coerce_poly,
    _variable_polys,
    div_exact,
    poly_product,
    poly_sum,
    q,
    x,
    xd,
    y,
)


class FormMismatch(ArithmeticError):
    """Two expansions that must be equal are not."""


class Disconnected(ValueError):
    """Formula requires a connected graph."""


def cayley_prufer_rhs(n: int) -> Polynomial:
    """x1...xn times (x1+...+xn)^(n-2): the degree-weighted tree sum of K_n."""
    if n < 2:
        raise InvalidSize("need at least two vertices")
    head = Polynomial.monomial(Monomial.of({x(i): 1 for i in range(1, n + 1)}))
    body = poly_sum(Polynomial.variable(x(i)) for i in range(1, n + 1))
    return head * body ** (n - 2)


def _clean_dims(dims: Sequence[int]) -> list[tuple[int, int]]:
    """(direction index, size) pairs with size-1 factors stripped."""
    if not dims:
        raise InvalidSize("need at least one factor")
    if any(d < 1 for d in dims):
        raise InvalidSize("factor sizes are positive")
    kept = [(i, d) for i, d in enumerate(dims, start=1) if d >= 2]
    if len(kept) != len(dims):
        warnings.warn("size-1 factors contribute nothing and were stripped", stacklevel=3)
    return kept

def _subset_eigenvalue(subset: Sequence[tuple[int, int]]) -> Polynomial:
    return poly_sum(Polynomial.variable(q(i)) * d for i, d in subset)


def directions_rhs(dims: Sequence[int]) -> Polynomial:
    """Direction-weighted tree sum of a product of complete graphs.

    Computed two ways that must agree exactly: Kirchhoff's product of the
    nonzero Laplacian eigenvalues divided by the vertex count
    (`count_from_spectrum` of `product_spectrum`), and the product over
    direction subsets of size >= 2 with the single-direction part pulled
    out front.
    """
    kept = _clean_dims(dims)
    if not kept:
        return Polynomial.one()
    total = 1
    for _, d in kept:
        total *= d

    # the kept factors' spectrum on their own direction variables: each
    # stripped unit factor would double the subsets and add nothing
    spectrum = product_spectrum([d for _, d in kept], qs=[Polynomial.variable(q(i)) for i, _ in kept])
    form1 = count_from_spectrum(spectrum, total)

    form2 = Polynomial.one()
    for i, d in kept:
        form2 = form2 * Polynomial.variable(q(i)) ** (d - 1) * (d ** (d - 2))
    for r in range(2, len(kept) + 1):
        for subset in combinations(kept, r):
            mult = 1
            for _, d in subset:
                mult *= d - 1
            form2 = form2 * _subset_eigenvalue(subset) ** mult

    if form1 != form2:
        raise FormMismatch("the two direction-count expansions disagree")
    return form1


class Spectrum:
    """Laplacian eigenvalue/multiplicity pairs, one per direction subset."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Sequence[tuple[Polynomial, int]]):
        self.pairs = tuple((p, int(m)) for p, m in pairs)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def product_spectrum(dims: Sequence[int], qs: Optional[Sequence[Union[int, Polynomial]]] = None) -> Spectrum:
    """One (eigenvalue, multiplicity) pair per subset of directions.

    The subset A contributes eigenvalue sum_{i in A} q_i * n_i with
    multiplicity prod_{i in A} (n_i - 1).  Substituting qs (by position)
    gives numeric spectra; by default the q_i stay symbolic.
    """
    if not dims or any(d < 1 for d in dims):
        raise InvalidSize("factor sizes are positive")
    r = len(dims)
    values: list[Polynomial] = []
    for i, d in enumerate(dims, start=1):
        base = Polynomial.variable(q(i)) if qs is None else _coerce_poly(qs[i - 1])
        values.append(base * d)
    pairs: list[tuple[Polynomial, int]] = []
    for mask in range(1 << r):
        eig = Polynomial.zero()
        mult = 1
        for i in range(r):
            if mask >> i & 1:
                eig = eig + values[i]
                mult *= dims[i] - 1
        pairs.append((eig, mult))
    return Spectrum(pairs)


class NotDivisibleCount(ArithmeticError):
    """Spectrum product does not divide by the vertex count."""


def count_from_spectrum(spectrum: Spectrum, n: int) -> Polynomial:
    """Product of nonzero eigenvalues (with multiplicity) divided by n.

    The zero eigenvalue must appear exactly once; anything else signals a
    disconnected or malformed spectrum.
    """
    zero_mult = sum(m for eig, m in spectrum if eig.is_zero)
    if zero_mult != 1:
        raise NotDivisibleCount(f"zero eigenvalue has multiplicity {zero_mult}, not 1")
    prod = Polynomial.one()
    for eig, m in spectrum:
        if not eig.is_zero:
            prod = prod * eig ** m
    return div_exact(prod, n)


def decoupled_enumerator_factors(dims: Sequence[int]) -> list[tuple[Polynomial, int]]:
    """Claimed factor list of the decoupled tree sum of a product.

    Per direction i of size n_i (with N the vertex count): q_i to the
    n_i - 1, each coordinate variable x(i,j) to the N/n_i, and the
    coordinate sum over direction i to the n_i - 2.  Zero exponents are
    omitted.
    """
    kept = _clean_dims(dims)
    total = 1
    for _, d in kept:
        total *= d
    factors: list[tuple[Polynomial, int]] = []
    for i, d in kept:
        if d - 1 > 0:
            factors.append((Polynomial.variable(q(i)), d - 1))
    for i, d in kept:
        for j in range(1, d + 1):
            factors.append((Polynomial.variable(xd(i, j)), total // d))
    for i, d in kept:
        if d - 2 > 0:
            factors.append((coordinate_sum(i, d), d - 2))
    return factors


def coordinate_sum(i: int, size: int) -> Polynomial:
    """x(i,1) + ... + x(i,size): the divisor tied to direction i."""
    return poly_sum(_variable_polys([xd(i, j) for j in range(1, size + 1)]))


def cube_subset_factor(subset: Sequence[int]) -> Polynomial:
    """sum_{i in A} q_i (x_i^-1 + x_i) for a direction subset A."""
    members = sorted(set(subset))
    polys = _variable_polys([*map(q, members), *map(x, members)])
    qs, xs = dict(zip(members, polys)), dict(zip(members, polys[len(members):]))
    total = Polynomial.zero()
    for i in subset:
        total = total + qs[i] * (xs[i] ** -1 + xs[i])
    return total


def cube_rhs(n: int) -> Polynomial:
    """q1...qn times the product of subset factors over |A| >= 2."""
    if n < 1:
        raise InvalidSize("cube dimension must be at least 1")
    head = Polynomial.monomial(Monomial.of({q(i): 1 for i in range(1, n + 1)}))
    members = list(range(1, n + 1))
    factors = [cube_subset_factor(subset) for r in range(2, n + 1) for subset in combinations(members, r)]
    return poly_product([head] + factors)


def _validated_connected(lam: PartitionLike) -> Partition:
    lam = _coerce_partition(lam)
    g = threshold_graph(lam)  # raises NotThresholdSequence when invalid
    if not is_connected(g):
        raise Disconnected("threshold graph is disconnected; it has no spanning trees")
    return lam


def merris_count(lam: PartitionLike) -> int:
    """Spanning tree count of a connected threshold graph: the product of
    the conjugate parts 2 through n-1."""
    lam = _validated_connected(lam)
    n = len(lam)
    conj = conjugate(lam)
    out = 1
    for r in range(2, n):
        out *= conj[r - 1]
    return out


def threshold_rhs(lam: PartitionLike) -> Polynomial:
    """In/out-degree weighted tree sum of a connected threshold graph.

    x1 * yn * prod_{r=2}^{n-1} sum_{i=1}^{conj_r} x_min(i,r) * y_max(i,r);
    the one-vertex graph has the empty tree alone, so its sum is 1.
    """
    lam = _validated_connected(lam)
    n = len(lam)
    if n == 1:
        return Polynomial.one()
    conj = conjugate(lam)
    factors = [Polynomial.variable(x(1)), Polynomial.variable(y(n))]
    for r in range(2, n):
        factors.append(poly_sum(
            Polynomial.monomial(Monomial.of({x(min(i, r)): 1, y(max(i, r)): 1}))
            for i in range(1, conj[r - 1] + 1)
        ))
    return poly_product(factors)


def threshold_degree_rhs(lam: PartitionLike) -> Polynomial:
    """The y=x specialization: x1...xn * prod_{r=2}^{n-1} (x1+...+x_conj_r)."""
    lam = _validated_connected(lam)
    n = len(lam)
    if n == 1:
        return Polynomial.one()
    conj = conjugate(lam)
    out = Polynomial.monomial(Monomial.of({x(i): 1 for i in range(1, n + 1)}))
    for r in range(2, n):
        out = out * poly_sum(Polynomial.variable(x(i)) for i in range(1, conj[r - 1] + 1))
    return out


@lru_cache(maxsize=64)
def _in_out_variables(n: int) -> tuple[tuple, tuple]:
    """x1..x(n-1) and y2..yn keyed over their one layout, the layout of the
    in/out weights on n vertices; xs[i] is x_i and ys[i] is y_i."""
    polys = _variable_polys([*(x(i) for i in range(1, n)), *(y(i) for i in range(2, n + 1))])
    return (None, *polys[:n - 1]), (None, None, *polys[n - 1:])


def threshold_f_factor(lam: Partition, r: int) -> Polynomial:
    """y_r*(x_1+..+x_r) + x_r*(y_{r+1}+..+y_{1+lam_r}): the row-r divisor
    for rows inside the staircase, r >= 2.

    Keyed over the layout of the in/out weights on the threshold graph, so
    its nullvector check divides by it as it is.
    """
    if r < 2:
        raise ValueError("the staircase rows start at 2")
    xs, ys = _in_out_variables(max(len(lam), r + 1, lam[r - 1] + 1))
    return ys[r] * poly_sum(xs[1:r + 1]) + xs[r] * poly_sum(ys[r + 1:lam[r - 1] + 2])


def threshold_g_factor(lam: Partition, r: int) -> Polynomial:
    """x_1 + ... + x_{lam_{r+1}}: the row-r divisor past the staircase."""
    bound = lam[r] if r < len(lam) else 0
    return poly_sum(Polynomial.variable(x(i)) for i in range(1, bound + 1))


def threshold_rewrite_rhs(lam: PartitionLike) -> Polynomial:
    """Factored rewrite split at the staircase corner; must equal threshold_rhs.

    x1 * prod_{r=2}^{s} f_r * prod_{r=s+1}^{n-1} g_r * prod_{r=s+1}^{n} y_r
    with s the side of the largest square in the partition diagram.
    """
    lam = _validated_connected(lam)
    n = len(lam)
    if n == 1:
        return Polynomial.one()
    s = durfee(lam)
    out = Polynomial.variable(x(1))
    for r in range(2, s + 1):
        out = out * threshold_f_factor(lam, r)
    for r in range(s + 1, n):
        out = out * threshold_g_factor(lam, r)
    for r in range(s + 1, n + 1):
        out = out * Polynomial.variable(y(r))
    direct = threshold_rhs(lam)
    if out != direct:
        raise FormMismatch("staircase rewrite disagrees with the direct product")
    return out
