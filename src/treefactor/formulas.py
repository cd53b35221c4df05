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
    Disconnected,
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


def cayley_prufer_rhs(n: int) -> Polynomial:
    """x1...xn times (x1+...+xn)^(n-2): the degree-weighted tree sum of K_n."""
    if n < 2:
        raise InvalidSize("need at least two vertices")
    xs = _variable_polys([x(i) for i in range(1, n + 1)])
    return poly_product(xs) * poly_sum(xs) ** (n - 2)


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
    qs = dict(zip((i for i, _ in kept), _variable_polys([q(i) for i, _ in kept])))

    # the kept factors' spectrum on their own direction variables: each
    # stripped unit factor would double the subsets and add nothing
    spectrum = product_spectrum([d for _, d in kept], qs=list(qs.values()))
    form1 = count_from_spectrum(spectrum, total)

    form2 = Polynomial.one()
    for i, d in kept:
        form2 = form2 * qs[i] ** (d - 1) * (d ** (d - 2))
    for r in range(2, len(kept) + 1):
        for subset in combinations(kept, r):
            mult = 1
            for _, d in subset:
                mult *= d - 1
            form2 = form2 * poly_sum(qs[i] * d for i, d in subset) ** mult

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
    gives numeric spectra, one value per factor; by default the q_i stay
    symbolic.
    """
    if not dims or any(d < 1 for d in dims):
        raise InvalidSize("factor sizes are positive")
    r = len(dims)
    if qs is None:
        qs = _variable_polys([q(i) for i in range(1, r + 1)])
    elif len(qs) != r:
        raise ValueError(f"qs has {len(qs)} values for {r} factors")
    values = [_coerce_poly(base) * d for base, d in zip(qs, dims)]
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
    polys = iter(_variable_polys([*(q(i) for i, _ in kept),
                                  *(xd(i, j) for i, d in kept for j in range(1, d + 1))]))
    factors = [(next(polys), d - 1) for _, d in kept]
    coords = [[next(polys) for _ in range(d)] for _, d in kept]
    factors += [(xij, total // d) for (_, d), xs in zip(kept, coords) for xij in xs]
    factors += [(poly_sum(xs), d - 2) for (_, d), xs in zip(kept, coords) if d > 2]
    return factors


def coordinate_sum(i: int, size: int) -> Polynomial:
    """x(i,1) + ... + x(i,size): the divisor tied to direction i."""
    return poly_sum(_variable_polys([xd(i, j) for j in range(1, size + 1)]))


def _cube_variables(members: Sequence[int]) -> tuple[dict[int, Polynomial], dict[int, Polynomial]]:
    """q_i and x_i for each direction i of `members`, keyed over their one layout."""
    polys = _variable_polys([*map(q, members), *map(x, members)])
    return dict(zip(members, polys)), dict(zip(members, polys[len(members):]))


def _subset_factor(subset: Sequence[int], qs: dict[int, Polynomial], xs: dict[int, Polynomial]) -> Polynomial:
    return poly_sum(qs[i] * (xs[i] ** -1 + xs[i]) for i in subset)


def cube_subset_factor(subset: Sequence[int]) -> Polynomial:
    """sum_{i in A} q_i (x_i^-1 + x_i) for a direction subset A."""
    return _subset_factor(subset, *_cube_variables(sorted(set(subset))))


def cube_rhs(n: int) -> Polynomial:
    """q1...qn times the product of subset factors over |A| >= 2."""
    if n < 1:
        raise InvalidSize("cube dimension must be at least 1")
    members = list(range(1, n + 1))
    qs, xs = _cube_variables(members)
    factors = [_subset_factor(subset, qs, xs) for r in range(2, n + 1) for subset in combinations(members, r)]
    return poly_product([*qs.values(), *factors])


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


@lru_cache(maxsize=64)
def _in_out_variables(n: int) -> tuple[tuple, tuple]:
    """x1..x(n-1) and y2..yn keyed over their one layout, the layout of the
    in/out weights on n vertices; xs[i] is x_i and ys[i] is y_i."""
    polys = _variable_polys([*(x(i) for i in range(1, n)), *(y(i) for i in range(2, n + 1))])
    return (None, *polys[:n - 1]), (None, None, *polys[n - 1:])


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
    xs, ys = _in_out_variables(n)
    factors = [xs[1], ys[n]]
    for r in range(2, n):
        factors.append(poly_sum(xs[min(i, r)] * ys[max(i, r)] for i in range(1, conj[r - 1] + 1)))
    return poly_product(factors)


def threshold_degree_rhs(lam: PartitionLike) -> Polynomial:
    """The y=x specialization: x1...xn * prod_{r=2}^{n-1} (x1+...+x_conj_r)."""
    lam = _validated_connected(lam)
    n = len(lam)
    if n == 1:
        return Polynomial.one()
    conj = conjugate(lam)
    xs = _variable_polys([x(i) for i in range(1, n + 1)])
    out = poly_product(xs)
    for r in range(2, n):
        out = out * poly_sum(xs[:conj[r - 1]])
    return out


def _check_row(lam: Partition, r: int) -> None:
    if not 2 <= r <= len(lam):
        raise ValueError(f"row r = {r} is outside the reduced Laplacian's rows 2..{len(lam)}")


def threshold_f_factor(lam: Partition, r: int) -> Polynomial:
    """y_r*(x_1+..+x_r) + x_r*(y_{r+1}+..+y_{1+lam_r}): the row-r divisor
    for rows inside the staircase, 2 <= r <= n.

    Keyed over the layout of the in/out weights on the threshold graph, so
    its nullvector check divides by it as it is.
    """
    _check_row(lam, r)
    xs, ys = _in_out_variables(max(len(lam), r + 1, lam[r - 1] + 1))
    return ys[r] * poly_sum(xs[1:r + 1]) + xs[r] * poly_sum(ys[r + 1:lam[r - 1] + 2])


def threshold_g_factor(lam: Partition, r: int) -> Polynomial:
    """x_1 + ... + x_{lam_{r+1}}: the row-r divisor past the staircase,
    2 <= r <= n; 0 on row n."""
    _check_row(lam, r)
    bound = lam[r] if r < len(lam) else 0
    xs, _ = _in_out_variables(max(len(lam), bound + 1))
    return poly_sum(xs[1:bound + 1])


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
    xs, ys = _in_out_variables(n)
    out = xs[1]
    for r in range(2, s + 1):
        out = out * threshold_f_factor(lam, r)
    for r in range(s + 1, n):
        out = out * threshold_g_factor(lam, r)
    for r in range(s + 1, n + 1):
        out = out * ys[r]
    direct = threshold_rhs(lam)
    if out != direct:
        raise FormMismatch("staircase rewrite disagrees with the direct product")
    return out
