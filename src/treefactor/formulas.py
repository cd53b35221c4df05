"""Closed-form products for weighted spanning tree sums.

Every formula here is an independent route to a quantity the Laplacian
determinant and the brute-force enumeration also compute; the test suite
derives its confidence from the three routes agreeing.  All divisions are
exact integer-coefficient divisions performed after full expansion.

One factor list per family: `_threshold_factors`, `_cube_factors` and
`_decoupled_factors` write each factor and its multiplicity once, on the
layout of the family's Laplacian key table; the factored closed forms are
their products.  `verify` takes its nullvector divisors from them and its
variables from the cached ones they are built on (`_in_out_variables`,
`_cube_variables`, `_decoupled_variables`).  Those, the Cayley variables
and the direction variables are the units of `laplacian._indexed_layout`,
the one per-size source of the key tables' layouts.

`threshold_rhs` stays the literal direct product, independent of
`_threshold_factors`, which `threshold_rewrite_rhs` checks it against.  It
writes each row's monomials x_min(i,r) y_max(i,r), all distinct, as their
keys: K is linear, so a monomial's key is the sum of its variables' unit
keys on the in/out layout, and no row runs a product.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Optional, Sequence, Union

from .graphs import (
    Disconnected,
    Graph,
    InvalidSize,
    Partition,
    PartitionLike,
    _coerce_partition,
    conjugate,
    durfee,
    is_connected,
    threshold_graph,
)
from .laplacian import _indexed_layout
from .polyring import (
    Polynomial,
    _Layout,
    _coerce_poly,
    _linear_power,
    _new,
    _times,
    div_exact,
    poly_product,
    poly_sum,
    y,
)


def _unit_polys(lay: _Layout) -> list[Polynomial]:
    """Each variable of the layout as a polynomial over it, in the layout's order."""
    return [_new(lay, {u: 1}) for u in lay.unit]


class FormMismatch(ArithmeticError):
    """Two expansions that must be equal are not."""


def cayley_prufer_rhs(n: int) -> Polynomial:
    """x1...xn times (x1+...+xn)^(n-2): the degree-weighted tree sum of K_n.

    One multinomial expansion of the power that starts at x1...xn's key; no
    exponent passes n - 1, so nothing is range-checked.
    """
    if n < 2:
        raise InvalidSize("need at least two vertices")
    lay = _indexed_layout(xs=range(1, n + 1))
    return _new(lay, _linear_power(dict.fromkeys(lay.unit, 1), n - 2, sum(lay.unit)))


def _clean_dims(dims: Sequence[int], fate: str) -> list[tuple[int, int]]:
    """(direction index, size) pairs with size-1 factors stripped; a warning gives their fate."""
    if not dims:
        raise InvalidSize("need at least one factor")
    if any(d < 1 for d in dims):
        raise InvalidSize("factor sizes are positive")
    kept = [(i, d) for i, d in enumerate(dims, start=1) if d >= 2]
    if len(kept) != len(dims):
        warnings.warn(f"size-1 factors {fate}", stacklevel=3)
    return kept


def directions_rhs(dims: Sequence[int]) -> Polynomial:
    """Direction-weighted tree sum of a product of complete graphs.

    Computed two ways that must agree exactly: Kirchhoff's product of the
    nonzero Laplacian eigenvalues divided by the vertex count
    (`count_from_spectrum` of `product_spectrum`), and the product over
    direction subsets of size >= 2 with the single-direction part pulled
    out front.
    """
    kept = _clean_dims(dims, "contribute nothing and were stripped")
    if not kept:
        return Polynomial.one()
    total = prod(d for _, d in kept)
    qs = dict(zip((i for i, _ in kept), _unit_polys(_indexed_layout(qs=tuple(i for i, _ in kept)))))

    # the kept factors' spectrum on their own direction variables: each
    # stripped unit factor would double the subsets and add nothing
    spectrum = product_spectrum([d for _, d in kept], qs=list(qs.values()))
    form1 = count_from_spectrum(spectrum, total)

    form2 = poly_product([*(qs[i] ** (d - 1) * (d ** (d - 2)) for i, d in kept),
                          *(poly_sum(qs[i] * d for i, d in subset) ** prod(d - 1 for _, d in subset)
                            for r in range(2, len(kept) + 1) for subset in combinations(kept, r))])

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
        qs = _unit_polys(_indexed_layout(qs=range(1, r + 1)))
    elif len(qs) != r:
        raise ValueError(f"qs has {len(qs)} values for {r} factors")
    values = [_coerce_poly(base) * d for base, d in zip(qs, dims)]
    subsets = ([i for i in range(r) if mask >> i & 1] for mask in range(1 << r))
    return Spectrum([(poly_sum(values[i] for i in a), prod(dims[i] - 1 for i in a)) for a in subsets])


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
    return div_exact(poly_product(eig ** m for eig, m in spectrum if not eig.is_zero), n)


@lru_cache(maxsize=64)
def _decoupled_variables(dims: tuple[int, ...]) -> tuple[tuple[Polynomial, ...], tuple[tuple[Polynomial, ...], ...]]:
    """q_i for each direction i with n_i >= 2, and x(i,1)..x(i,n_i) for every
    direction i, keyed over their one layout, the layout of the decoupled
    weights; coords[i - 1][j - 1] is x(i,j)."""
    kept = tuple(i for i, d in enumerate(dims, start=1) if d >= 2)
    polys = iter(_unit_polys(_indexed_layout(qs=kept, xds=tuple((i, j) for i, d in enumerate(dims, start=1)
                                                                for j in range(1, d + 1)))))
    qs = tuple(next(polys) for _ in kept)
    return qs, tuple(tuple(next(polys) for _ in range(d)) for d in dims)


def _decoupled_factors(dims: Sequence[int]) -> list[tuple[Polynomial, int]]:
    """The decoupled sum's factor list over its weights' layout, N being the
    vertex count: for each direction i with n_i >= 2, q_i to the n_i - 1, then
    x(i,j) to the N/n_i; x(i,1) to the 2(N - 1) for each direction of size 1,
    whose one coordinate every vertex carries; then x(i,1) + ... + x(i,n_i) to
    the n_i - 2 for each n_i >= 2, listed even at 0."""
    dims = tuple(dims)
    qs, coords = _decoupled_variables(dims)
    n = prod(dims)
    kept = [(i, d) for i, d in enumerate(dims, start=1) if d >= 2]
    return [*((qi, d - 1) for qi, (_, d) in zip(qs, kept)),
            *((xij, n // d) for i, d in kept for xij in coords[i - 1]),
            *((xs[0], 2 * (n - 1)) for xs in coords if len(xs) == 1),
            *((poly_sum(coords[i - 1]), d - 2) for i, d in kept)]


def decoupled_enumerator_factors(dims: Sequence[int]) -> list[tuple[Polynomial, int]]:
    """Claimed factor list of the decoupled tree sum of a product.

    Per direction i of size n_i >= 2 (with N the vertex count): q_i to the
    n_i - 1, each coordinate variable x(i,j) to the N/n_i, and the
    coordinate sum over direction i to the n_i - 2; per direction of size
    1, x(i,1) to the 2(N - 1).  Zero exponents are omitted.
    """
    _clean_dims(dims, "add no edges; each one's x(i,1) is listed to the 2(N - 1), N the vertex count")
    return [(base, m) for base, m in _decoupled_factors(dims) if m]


def coordinate_sum(i: int, size: int) -> Polynomial:
    """x(i,1) + ... + x(i,size): the divisor tied to direction i, of size at least 2."""
    if i < 1 or size < 2:
        raise InvalidSize(f"direction {i} of size {size}: need i >= 1 and size >= 2")
    return _decoupled_factors([1] * (i - 1) + [size])[-1][0]


@lru_cache(maxsize=64)
def _cube_variables(members: tuple[int, ...]) -> tuple[tuple[Polynomial, ...], ...]:
    """q_i, x_i and q_i (x_i^-1 + x_i) for each direction i of `members`, over
    their q_i and x_i; the subset factor f_A sums the last over A."""
    polys = _unit_polys(_indexed_layout(qs=members, xs=members))
    qs, xs = tuple(polys[:len(members)]), tuple(polys[len(members):])
    return qs, xs, tuple(qi * (xi ** -1 + xi) for qi, xi in zip(qs, xs))


def cube_subset_factor(subset: Sequence[int]) -> Polynomial:
    """sum_{i in A} q_i (x_i^-1 + x_i) for a direction subset A."""
    return poly_sum(_cube_variables(tuple(sorted(set(subset))))[2])


def _cube_subsets(n: int) -> list[tuple[int, ...]]:
    """The direction subsets A with |A| >= 2, in the order of `_cube_factors`."""
    return [a for r in range(2, n + 1) for a in combinations(range(1, n + 1), r)]


@lru_cache(maxsize=64)
def _cube_factors(n: int) -> tuple[tuple[Polynomial, int], ...]:
    """The n-cube's factor list over q1..qn, x1..xn, the layout of its Laurent
    weights: q1..qn, then f_A for each A of `_cube_subsets(n)`, all to the 1."""
    qs, _, terms = _cube_variables(tuple(range(1, n + 1)))
    return (*((qi, 1) for qi in qs), *((poly_sum(terms[i - 1] for i in a), 1) for a in _cube_subsets(n)))


def cube_rhs(n: int) -> Polynomial:
    """q1...qn times the product of subset factors over |A| >= 2."""
    if n < 1:
        raise InvalidSize("cube dimension must be at least 1")
    return poly_product(base ** m for base, m in _cube_factors(n))


def _validated_connected(lam: PartitionLike) -> tuple[Partition, Graph]:
    """The partition and its threshold graph, which must be connected."""
    lam = _coerce_partition(lam)
    g = threshold_graph(lam)  # raises NotThresholdSequence when invalid
    if not is_connected(g):
        raise Disconnected("threshold graph is disconnected; it has no spanning trees")
    return lam, g


def merris_count(lam: PartitionLike) -> int:
    """Spanning tree count of a connected threshold graph: the product of
    the conjugate parts 2 through n-1."""
    lam, _ = _validated_connected(lam)
    return prod(conjugate(lam)[1:len(lam) - 1])


@lru_cache(maxsize=64)
def _in_out_variables(n: int) -> tuple[tuple, tuple]:
    """x1..x(n-1) and y2..yn keyed over their one layout, the layout of the
    in/out weights on n vertices; xs[i] is x_i and ys[i] is y_i."""
    polys = _unit_polys(_indexed_layout(xs=range(1, n), ys=range(2, n + 1)))
    return (None, *polys[:n - 1]), (None, None, *polys[n - 1:])


def threshold_rhs(lam: PartitionLike) -> Polynomial:
    """In/out-degree weighted tree sum of a connected threshold graph.

    x1 * yn * prod_{r=2}^{n-1} sum_{i=1}^{conj_r} x_min(i,r) * y_max(i,r);
    the one-vertex graph has the empty tree alone, so its sum is 1.
    """
    lam, _ = _validated_connected(lam)
    n = len(lam)
    if n == 1:
        return Polynomial.one()
    conj = conjugate(lam)
    xs, _ = _in_out_variables(n)
    lay = xs[1]._lay
    ux, uy = (0, *lay.unit[:n - 1]), (0, 0, *lay.unit[n - 1:])  # ux[i] is x_i's key, uy[i] y_i's
    out = {ux[1] + uy[n]: 1}
    # conj is non-increasing, so the last rows are the shortest: folding from
    # them keeps the partial product small longest; a row adds at most 1 to
    # any exponent, so none passes n
    for r in range(n - 1, 1, -1):
        out = _times(out, {ux[min(i, r)] + uy[max(i, r)]: 1 for i in range(1, conj[r - 1] + 1)})
    return _new(lay, out)


def threshold_degree_rhs(lam: PartitionLike) -> Polynomial:
    """The y=x specialization of each listed factor: x1...xn * prod_{r=2}^{n-1} (x1+...+x_conj_r)."""
    lam, _ = _validated_connected(lam)
    n = len(lam)
    to_x = dict(zip(map(y, range(2, n + 1)), _unit_polys(_indexed_layout(xs=range(2, n + 1)))))
    factors = _threshold_factors(lam, _threshold_blocks(lam, conjugate(lam)))
    return poly_product(base.substitute(to_x) ** m for base, m in factors)


def _check_row(lam: Partition, r: int) -> None:
    if not 2 <= r <= len(lam):
        raise ValueError(f"row r = {r} is outside the reduced Laplacian's rows 2..{len(lam)}")


def threshold_f_factor(lam: Partition, r: int) -> Polynomial:
    """y_r*(x_1+..+x_r) + x_r*(y_{r+1}+..+y_{1+lam_r}): the row-r divisor
    for rows inside the staircase, 2 <= r <= n, over the in/out weights' layout."""
    _check_row(lam, r)
    return _f_factor(max(len(lam), r + 1, lam[r - 1] + 1), r, lam[r - 1])


@lru_cache(maxsize=256)
def _f_factor(n: int, r: int, part: int) -> Polynomial:
    """f_r with lam_r = part over `_in_out_variables(n)`: many sequences share it."""
    xs, ys = _in_out_variables(n)
    return ys[r] * poly_sum(xs[1:r + 1]) + xs[r] * poly_sum(ys[r + 1:part + 2])


def threshold_g_factor(lam: Partition, r: int) -> Polynomial:
    """x_1 + ... + x_{lam_{r+1}}: the row-r divisor past the staircase,
    2 <= r <= n; 0 on row n."""
    _check_row(lam, r)
    bound = lam[r] if r < len(lam) else 0
    xs, _ = _in_out_variables(max(len(lam), bound + 1))
    return poly_sum(xs[1:bound + 1])


def _threshold_blocks(lam: Partition, conj: Partition) -> list[tuple[int, int, int]]:
    """Maximal runs (a, b, height) of equal conjugate values past the square,
    conj being lam's conjugate.

    Rows s+1 .. n-1 split into runs with constant conjugate part, its
    height; conjugate parts never increase, so each value is one run.
    """
    s = durfee(lam)
    heights = conj[s:len(lam) - 1]  # conj_r for r = s+1..n-1
    return [(s + 1 + heights.index(h), heights.count(h), h) for h in dict.fromkeys(heights)]


def _threshold_factors(lam: Partition, blocks: Sequence[tuple[int, int, int]]) -> list[tuple[Polynomial, int]]:
    """The threshold sum's factor list over `_in_out_variables(n)`, the in/out
    weights' layout: x1, f_2..f_s (s the Durfee side), for each block (a, b, h)
    of `_threshold_blocks` x_1 + ... + x_h (g_r of each of its rows) to the b,
    then y_{s+1}..y_n."""
    n = len(lam)
    if n == 1:
        return []
    s = durfee(lam)
    xs, ys = _in_out_variables(n)
    return [(xs[1], 1), *((threshold_f_factor(lam, r), 1) for r in range(2, s + 1)),
            *((threshold_g_factor(lam, a), b) for a, b, _ in blocks),
            *((ys[r], 1) for r in range(s + 1, n + 1))]


def threshold_rewrite_rhs(lam: PartitionLike) -> Polynomial:
    """Factored rewrite split at the staircase corner; must equal threshold_rhs.

    x1 * prod_{r=2}^{s} f_r * prod_{r=s+1}^{n-1} g_r * prod_{r=s+1}^{n} y_r
    with s the side of the largest square in the partition diagram: the
    product of `_threshold_factors`.
    """
    lam, _ = _validated_connected(lam)
    factors = _threshold_factors(lam, _threshold_blocks(lam, conjugate(lam)))
    out = poly_product(base ** m for base, m in factors)
    if out != threshold_rhs(lam):
        raise FormMismatch("staircase rewrite disagrees with the direct product")
    return out
