"""Seeded differential checks: the three routes against each other on
random inputs, and polynomial arithmetic against a small reference.

Every check here compares two independent computations of the same value:
the reduced-Laplacian determinant, explicit spanning-tree enumeration, the
closed-form product, the Kirchhoff tree count, and, for the arithmetic, a
dict-of-Monomial reference that multiplies monomial by monomial.
"""

import dataclasses
import math
import random

import pytest

from treefactor import (
    Edge,
    Graph,
    Monomial,
    NonInvertibleSubstitution,
    NotDivisible,
    Polynomial,
    SCHEME_FOR_STATISTIC,
    SchemeMismatch,
    TreeStatistic,
    Variable,
    WeightScheme,
    all_spanning_trees,
    cartesian_product,
    cayley_prufer_rhs,
    complete_graph,
    connected_threshold_sequences,
    cube_rhs,
    decoupled_enumerator_factors,
    directions_rhs,
    div_exact,
    enumerate_sum,
    evar,
    hypercube,
    is_connected,
    multigraph_kn,
    q,
    reduce_matrix,
    spanning_tree_count,
    statistic_monomial,
    threshold_degree_rhs,
    threshold_graph,
    threshold_rhs,
    tree_enumerator_det,
    weighted_laplacian,
    x,
    xd,
    y,
)
from treefactor import graphs, laplacian, polyring
from treefactor.polyring import _KroneckerImage


# enumeration stays cheap below this many trees
TREE_CAP = 3000


def ones(p: Polynomial) -> int:
    """Value at all variables = 1: the coefficient sum."""
    return sum(c for _, c in p.terms())


# -- three routes on random graphs ----------------------------------------


def random_multigraph(rng: random.Random) -> Graph:
    """A connected plain multigraph on 2..5 vertices."""
    while True:
        n = rng.randrange(2, 6)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.6:
                    edges.append(Edge(u, v, 1, rng.choice((1, 1, 2, 3))))
        g = Graph(kind="plain", labels=tuple(range(1, n + 1)), edges=tuple(edges))
        if is_connected(g) and spanning_tree_count(g) <= TREE_CAP:
            return g


def generic_tree_sum(g: Graph) -> Polynomial:
    """Sum over explicit spanning trees of the product of e(u,v) labels."""
    terms: dict = {}
    for tree in all_spanning_trees(g):
        mono = Monomial.of([(evar(g.edges[i].u + 1, g.edges[i].v + 1), 1) for i in tree.edge_indices])
        terms[mono] = terms.get(mono, 0) + 1
    return Polynomial(terms)


def test_generic_det_equals_brute_on_random_multigraphs():
    rng = random.Random(7001)
    for _ in range(25):
        g = random_multigraph(rng)
        det = tree_enumerator_det(g, WeightScheme.GENERIC)
        brute = generic_tree_sum(g)
        assert det == brute, g.edges
        assert ones(det) == spanning_tree_count(g), g.edges
        # striking another row and column gives the same signed cofactor
        r, s = rng.randrange(g.n), rng.randrange(g.n)
        assert tree_enumerator_det(g, WeightScheme.GENERIC, remove=(r, s)) == det


def family_members(rng: random.Random):
    """(graph, statistic, closed form or None) for random small family members."""
    out = []
    for n in rng.sample(range(2, 7), 3):
        out.append((complete_graph(n), TreeStatistic.DEGREE, cayley_prufer_rhs(n)))
    dims_pool = [(2, 2), (2, 3), (2, 2, 2), (3,), (4,), (5,)]
    for dims in rng.sample(dims_pool, 3):
        g = cartesian_product([complete_graph(d) for d in dims])
        out.append((g, TreeStatistic.DIRECTION, directions_rhs(dims)))
        out.append((g, TreeStatistic.DIR_DECOUPLED, None))
    for n in (1, 2, 3):
        out.append((hypercube(n), TreeStatistic.CUBE_SUBSTITUTED, cube_rhs(n)))
    for n in rng.sample(range(2, 7), 3):
        lam = rng.choice(connected_threshold_sequences(n))
        g = threshold_graph(lam)
        out.append((g, TreeStatistic.IN_OUT_DEGREE, threshold_rhs(lam)))
        out.append((g, TreeStatistic.DEGREE, threshold_degree_rhs(lam)))
    return out


def test_three_routes_agree_on_random_family_members():
    rng = random.Random(7002)
    for g, stat, closed in family_members(rng):
        count = spanning_tree_count(g)
        assert count <= TREE_CAP
        det = tree_enumerator_det(g, SCHEME_FOR_STATISTIC[stat])
        brute = enumerate_sum(g, stat)
        label = (g.kind, g.n, stat.value)
        assert det == brute, label
        assert ones(det) == count, label
        if closed is not None:
            assert closed == det, label
            assert ones(closed) == count, label


def test_decoupled_factors_divide_random_products():
    rng = random.Random(7003)
    for dims in rng.sample([(2, 2), (2, 3), (3,), (2, 2, 2)], 2):
        g = cartesian_product([complete_graph(d) for d in dims])
        quotient = tree_enumerator_det(g, WeightScheme.DECOUPLED)
        for base, exp in decoupled_enumerator_factors(dims):
            for _ in range(exp):
                quotient = div_exact(quotient, base)
        rebuilt = quotient
        for base, exp in decoupled_enumerator_factors(dims):
            rebuilt = rebuilt * base ** exp
        assert rebuilt == enumerate_sum(g, TreeStatistic.DIR_DECOUPLED), dims


def per_tree_sum(g: Graph, stat: TreeStatistic) -> Polynomial:
    """The statistic summed tree by tree: one Monomial per explicit tree."""
    terms: dict = {}
    for tree in all_spanning_trees(g):
        mono = statistic_monomial(g, tree, stat)
        terms[mono] = terms.get(mono, 0) + 1
    return Polynomial(terms)


def random_product(rng: random.Random) -> Graph:
    """A product of one to three small random plain multigraphs."""
    while True:
        factors = []
        for _ in range(rng.randrange(1, 4)):
            factors.append(complete_graph(1) if rng.random() < 0.15 else
                           multigraph_kn(rng.randrange(2, 4), rng.choice((1, 1, 2))))
        g = cartesian_product(factors)
        if spanning_tree_count(g) <= TREE_CAP:
            return g


def test_edge_key_sums_match_per_tree_statistics():
    rng = random.Random(7007)
    plain = [complete_graph(1), multigraph_kn(3, 2), multigraph_kn(2, 3)]
    plain += [random_multigraph(rng) for _ in range(8)]
    threshold = [threshold_graph(rng.choice(connected_threshold_sequences(n))) for n in (1, 3, 4, 5, 6)]
    products = [cartesian_product([complete_graph(1)])] + [random_product(rng) for _ in range(6)]
    cubes = [hypercube(n) for n in (1, 2, 3)]  # negative x exponents
    cases = {
        TreeStatistic.DEGREE: plain + threshold,
        TreeStatistic.IN_OUT_DEGREE: plain + threshold,
        TreeStatistic.DIRECTION: products + cubes,
        TreeStatistic.DIR_DECOUPLED: products,
        TreeStatistic.CUBE_SUBSTITUTED: cubes,
    }
    for stat, graphs in cases.items():
        for g in graphs:
            brute, ref = enumerate_sum(g, stat), per_tree_sum(g, stat)
            label = (stat.value, g.kind, g.n, g.edges)
            assert brute == ref, label
            assert brute.render() == ref.render() and brute.to_json() == ref.to_json(), label
    # a graph kind outside the statistic's domain, one-vertex graphs included
    for stat, g in [
        (TreeStatistic.DEGREE, hypercube(2)),
        (TreeStatistic.IN_OUT_DEGREE, cartesian_product([complete_graph(1)])),
        (TreeStatistic.DIRECTION, complete_graph(1)),
        (TreeStatistic.DIR_DECOUPLED, threshold_graph((0,))),
        (TreeStatistic.CUBE_SUBSTITUTED, multigraph_kn(3, 2)),
    ]:
        with pytest.raises(SchemeMismatch):
            enumerate_sum(g, stat)


# -- determinants: the Kronecker image against both polynomial methods ------


def random_entry(rng: random.Random, variables, degree=None, big=False) -> Polynomial:
    """0-3 random Laurent terms; all of total degree `degree` when it is given."""
    terms: dict = {}
    for _ in range(rng.randrange(0, 4)):
        exps = {v: rng.randrange(-1, 2) for v in variables}
        if degree is not None and variables:
            last = variables[-1]
            exps[last] = degree - sum(e for v, e in exps.items() if v != last)
        c = rng.choice((-1, 1)) * (2 ** 40 - rng.randrange(3) if big else rng.randrange(1, 6))
        mono = Monomial.of(exps)
        terms[mono] = terms.get(mono, 0) + c
    return Polynomial(terms)


def random_matrix(rng: random.Random, n: int, variables, big=False) -> list:
    """Rows that are each homogeneous, or all homogeneous but one, or mixed."""
    shape = rng.choice(("homogeneous", "one-inhomogeneous", "mixed"))
    rows = []
    for i in range(n):
        if shape == "mixed" or (shape == "one-inhomogeneous" and i == n - 1):
            degree = None
        else:
            degree = rng.randrange(-1, 3)
        rows.append([random_entry(rng, variables, degree, big) for _ in range(n)])
    return rows


def degenerate(rng: random.Random, rows: list) -> list:
    """The matrix with a zero leading pivot, a zero row, or a dependent row."""
    n = len(rows)
    kind = rng.choice(("pivot", "zero-row", "singular"))
    rows = [list(row) for row in rows]
    if kind == "pivot":
        rows[0][0] = Polynomial.zero()
    elif kind == "zero-row":
        rows[rng.randrange(n)] = [Polynomial.zero()] * n
    elif n >= 2:
        factor = random_entry(rng, [q(1)]) or Polynomial.one()
        rows[-1] = [a * factor - b for a, b in zip(rows[0], rows[1])]
    return rows


def test_kronecker_determinant_matches_minors():
    rng = random.Random(7005)
    pools = [[], [x(2)], [q(1), x(1)], [q(1), q(2), y(3)], [q(2), x(1), x(3), evar(1, 2)]]
    seen = set()
    for trial in range(300):
        n = rng.randrange(1, 8)
        variables = pools[trial % len(pools)]
        big = trial % 6 == 5
        rows = random_matrix(rng, n, variables, big)
        if trial % 3 == 2:
            rows = degenerate(rng, rows)
        image = _KroneckerImage(rows)
        if image.bits > 1 << 17:
            continue  # an image this wide takes seconds to eliminate
        det = laplacian._kronecker_det(image)
        assert det == laplacian._minors_det(rows), (n, variables, big)
        seen.add((n, len(variables), big, det.is_zero, len(image._radix) < len(image._lay.vars)))
    # every order, constant and one-variable matrices, 2**40 coefficients,
    # zero determinants, and images with and without a variable set to 1
    assert {key[0] for key in seen} == set(range(1, 8))
    assert {key[1] for key in seen} >= {0, 1}
    assert any(key[2] for key in seen) and any(key[3] for key in seen)
    assert {key[4] for key in seen} == {False, True}


def test_kronecker_slot_holds_a_coefficient_equal_to_the_hadamard_bound():
    # entry (i, j) = H_ij * q1^i * x1^j with H the 8x8 Sylvester-Hadamard
    # matrix: every entry has one unit term, so the bound is sqrt(8**8) =
    # 4096, and det M is one term whose coefficient is +-det H = +-8**4
    h = [[Polynomial({Monomial.of({q(1): i, x(1): j}): (-1) ** (i & j).bit_count()}) for j in range(8)]
         for i in range(8)]
    signs = set()
    for rows in (h, [[-p for p in h[0]], *h[1:]]):
        image = _KroneckerImage(rows)
        assert image._width == 14  # 4096 takes 13 bits, and one more for the sign
        det = laplacian._kronecker_det(image)
        assert det == laplacian._minors_det(rows)
        signs.update(c for _, c in det.terms())
    assert signs == {4096, -4096}


def test_kronecker_image_rejects_a_value_outside_its_box():
    rows = random_matrix(random.Random(7006), 3, [q(1), x(1)])
    image = _KroneckerImage(rows)
    with pytest.raises(AssertionError):
        image.polynomial(1 << image.bits)
    with pytest.raises(AssertionError):
        image.polynomial(-(1 << image.bits))
    # the balanced digits of the top slot run over [-X/2, X/2); that matrix
    # has a zero row, so its slot is one bit; this one has 6-bit slots
    wide = _KroneckerImage([[Polynomial.parse(t) for t in row] for row in [("2*q1 + x1", "-3"), ("x1^2", "q1 - 5*x1")]])
    assert (image._width, wide._width) == (1, 6)
    for im in (image, wide):
        top, half = im.bits - im._width, 1 << (im._width - 1)
        assert top > 0
        for digit in (half - 1, -half):
            assert im.polynomial(digit << top) == -digit * im.polynomial(-1 << top)
        with pytest.raises(AssertionError):
            im.polynomial(half << top)


def test_integer_bareiss_refuses_a_remainder():
    # an int whose products come out one too large stands in for broken
    # integer arithmetic: an interior division then leaves a remainder
    class OffByOne(int):
        def __mul__(self, other):
            return int(self) * other + 1

    assert laplacian._eliminate([[3, 1, 0], [1, 3, 1], [0, 1, 3]]) == 21
    with pytest.raises(AssertionError, match="left a remainder"):
        laplacian._eliminate([[OffByOne(3), 1, 0], [1, 3, 1], [0, 1, 3]])
    # past the pivot gate: the least diagonal, the broken one, is swapped in
    # first, and every later pivot is searched for too
    b = 2 ** 70
    assert laplacian._eliminate([[5 * b + 1, b, 0], [b, 3 * b + 2, b + 1], [0, b - 1, 4 * b]]) == \
        51 * b ** 3 + 51 * b ** 2 + 13 * b + 1
    with pytest.raises(AssertionError, match="left a remainder"):
        laplacian._eliminate([[5 * b + 1, b, 0], [b, OffByOne(3 * b + 2), b + 1], [0, b - 1, 4 * b]])


def random_int_matrix(rng: random.Random, n: int, kind: str) -> list[list[int]]:
    """An n x n integer matrix of one kind: small or past 2**62, zero or negative diagonals, or singular."""
    bits = 4 if kind == "small" else 80
    a = [[rng.randrange(-2 ** bits, 2 ** bits) for _ in range(n)] for _ in range(n)]
    for i in range(n):  # diagonals of many sizes, so the least one is rarely first
        a[i][i] = (rng.choice((-1, 1)) * rng.randrange(2 ** (bits - 2), 2 ** bits)) >> rng.randrange(bits // 2)
        if kind != "negative":
            a[i][i] = abs(a[i][i])
    if kind == "zero-diagonal":
        for i in rng.sample(range(n), rng.randint(1, n)):
            a[i][i] = 0
    elif kind == "singular" and n > 1:
        i, j = rng.sample(range(n), 2)
        a[i] = [rng.randrange(-3, 4) * v for v in a[j]]
    return a


def test_pivoted_bareiss_matches_minors():
    # integer Bareiss, which swaps the least diagonal in past 2**62, against
    # expansion by minors, which never reorders anything
    rng = random.Random(7011)
    kinds = ("small", "big", "zero-diagonal", "negative", "singular")
    orders, zero, least_first = set(), set(), set()
    for trial in range(200):
        n, kind = 1 + trial % 8, kinds[trial % 5]
        a = random_int_matrix(rng, n, kind)
        work = [row[:] for row in a]
        det = laplacian._eliminate(work)
        assert Polynomial.integer(det) == laplacian._minors_det([[Polynomial.integer(v) for v in row] for row in a]), (n, kind)
        orders.add(n)
        zero.add(det == 0)
        # the first pivot left on the diagonal: the given one up to 2**62
        # bits, else the least in magnitude; a finished row is never rewritten
        diagonal = [abs(a[i][i]) for i in range(n)]
        p = diagonal.index(min(diagonal)) if a[0][0].bit_length() > 62 else 0
        if n > 1 and a[p][p]:
            first = a[p][:]
            first[0], first[p] = first[p], first[0]
            assert work[0] == first, (n, kind)
            least_first.add(p == 0)
    assert orders == set(range(1, 9)) and zero == least_first == {False, True}


def test_symmetric_permutations_keep_the_directions_233_determinant():
    # a symmetric permutation of rows and columns keeps the determinant; the
    # 17 x 17 image of K2xK3xK3 under direction weights, 4,680 bits wide
    g = cartesian_product([complete_graph(2), complete_graph(3), complete_graph(3)])
    lap = weighted_laplacian(g, WeightScheme.DIRECTION)
    image = _KroneckerImage(reduce_matrix(lap, g.n - 1, g.n - 1)[0].rows)
    count, tops = laplacian._tree_box(g, lap)
    image.narrow(tops, count)
    m = image.matrix()
    det = laplacian._eliminate([row[:] for row in m])
    assert image.polynomial(det) == directions_rhs((2, 3, 3))
    rng = random.Random(7012)
    for _ in range(4):
        order = rng.sample(range(len(m)), len(m))
        assert laplacian._eliminate([[m[i][j] for j in order] for i in order]) == det


def test_kronecker_box_is_read_off_the_keys():
    # each radix is one more than the sum over rows of the row's largest
    # exponent less its smallest, as unpacking every term finds it; the ends
    # of the exponent range put the widest digits into the negated keys
    rng = random.Random(7007)
    ends = (-2 ** 28, 2 ** 28 - 1)
    variables = [q(1), x(1), x(2)]
    kinds = set()
    for trial in range(200):
        n, homogeneous = rng.randrange(1, 5), trial % 2
        rows = []
        for _ in range(n):
            degree, row = rng.randrange(-3, 4), []
            for _ in range(n):
                terms = {}
                for _ in range(rng.randrange(0, 4)):
                    e = [rng.choice(ends) if rng.random() < 0.2 else rng.randrange(-3, 4) for _ in variables]
                    if homogeneous:
                        e[-1] = degree - e[0] - e[1]
                    if -2 ** 28 <= e[-1] < 2 ** 28:
                        terms[Monomial.of(zip(variables, e))] = rng.choice((-2, -1, 1, 3))
                row.append(Polynomial(terms))
            rows.append(row)
        image = _KroneckerImage(rows)
        lay = image._lay
        high = dict.fromkeys(lay.vars, 0)
        shift = degree = 0
        one_degree = True
        for row in rows:
            monos = [m.as_dict() for p in row for m, _ in p.terms()]
            if not monos:
                continue
            low = {v: min(m.get(v, 0) for m in monos) for v in lay.vars}
            for v in lay.vars:
                high[v] += max(m.get(v, 0) for m in monos) - low[v]
                kinds.add(max(m.get(v, 0) for m in monos) - low[v] == 2 ** 29 - 1)
            shift += lay.key(low.items())
            degrees = {sum(m.values()) - sum(low.values()) for m in monos}
            one_degree = one_degree and len(degrees) == 1
            degree += max(degrees)
        radix = [high[v] + 1 for v in lay.vars]
        if one_degree and radix:  # the last variable is set to 1
            radix.pop()
            shift += degree * lay.unit[-1]
        assert (image._radix, image._shift) == (radix, shift), trial
        kinds.add(("dropped", len(radix) < len(lay.vars)))
    # rows spanning the whole range, and images with and without a variable set to 1
    assert kinds >= {True, False, ("dropped", True), ("dropped", False)}


# -- the tree box: a tree enumerator's image narrowed to its spanning trees --


def thinned(rng: random.Random, g: Graph) -> Graph:
    """g with each edge kept with probability 4/5, in 1-3 parallel copies; it may come out disconnected."""
    edges = tuple(e._replace(multiplicity=rng.choice((1, 1, 2, 3))) for e in g.edges if rng.random() < 0.8)
    return dataclasses.replace(g, edges=edges)


def test_narrowed_kronecker_determinant_matches_minors():
    # the image narrowed to the tree box against expansion by minors, two
    # independent algorithms, under every scheme each graph kind allows,
    # with parallel copies, disconnected graphs and off-diagonal strikes
    rng = random.Random(7009)
    bases = [complete_graph(n) for n in (3, 4, 5, 6)]
    bases += [threshold_graph(rng.choice(connected_threshold_sequences(n))) for n in (4, 5, 6)]
    bases += [cartesian_product([complete_graph(d) for d in dims]) for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 3)]]
    bases += [hypercube(2), hypercube(3)]
    seen = set()
    for trial in range(60):
        g = thinned(rng, bases[trial % len(bases)])
        for scheme in WeightScheme:
            if g.kind not in laplacian._SCHEME_KINDS[scheme]:
                continue
            lap = weighted_laplacian(g, scheme)
            r, s = rng.randrange(g.n), rng.randrange(g.n)
            reduced, _ = reduce_matrix(lap, r, s)
            det = laplacian._minors_det(reduced.rows)
            count, tops = laplacian._tree_box(g, lap)
            label = (scheme.value, g.kind, g.edges, r, s)
            if not count:
                assert det.is_zero and not tops, label
                seen.add("disconnected")
                continue
            image = _KroneckerImage(reduced.rows)
            bits, width = image.bits, image._width
            image.narrow(tops, count)
            assert image.bits <= bits and image._width <= width, label
            if image.bits > 1 << 16:
                continue  # an image this wide takes a second to eliminate
            assert laplacian._kronecker_det(image) == det, label
            seen.add(scheme)
            seen.add("negative" if ones(det) < 0 else "positive")
            seen.add("narrower" if image.bits < bits else "as wide")
            if max(e.multiplicity for e in g.edges) > 1:
                seen.add("parallel")
    assert seen >= {*WeightScheme, "disconnected", "negative", "positive", "narrower", "parallel"}


def test_a_disconnected_graph_has_determinant_zero_before_narrowing(monkeypatch):
    # two triangles: the route takes the image, and the zero tree count ends
    # it before the image is narrowed or eliminated
    def fail(*args):
        raise AssertionError("reached after a zero tree count")

    g = cartesian_product([complete_graph(2), complete_graph(3)])
    split = dataclasses.replace(g, edges=tuple(e for e in g.edges if e.direction == 2))
    for name in ("_minors_det", "_kronecker_det"):
        monkeypatch.setattr(laplacian, name, fail)
    monkeypatch.setattr(_KroneckerImage, "narrow", fail)
    for scheme in (WeightScheme.DIRECTION, WeightScheme.DECOUPLED):
        assert tree_enumerator_det(split, scheme).is_zero


def test_a_tree_box_too_tight_fails_loudly():
    # a triangle with 7, 7 and 1 copies: its trees are 49*e(1,2)*e(2,3),
    # 7*e(1,2)*e(1,3) and 7*e(1,3)*e(2,3), 63 in all, so the slots take 6
    # bits and a sign bit; e(2,3) is set to 1, and e(1,2) leads
    g = Graph(kind="plain", labels=(1, 2, 3), edges=(Edge(0, 1, 1, 7), Edge(1, 2, 1, 7), Edge(0, 2, 1, 1)))
    lap = weighted_laplacian(g, WeightScheme.GENERIC)
    reduced, _ = reduce_matrix(lap, 2, 2)
    count, tops = laplacian._tree_box(g, lap)
    assert (count, tops) == (63, [1, 1, 1])

    def narrowed(tops, width):
        image = _KroneckerImage(reduced.rows)
        image.narrow(tops, count)
        assert image._width == 7
        image._width = width
        image.bits = math.prod(image._radix) * width
        return laplacian._kronecker_det(image)

    assert narrowed(tops, 7) == laplacian._minors_det(reduced.rows)
    # in 6-bit slots 49 wraps to -15 and carries into 7*e(1,2)*e(1,3)'s slot
    with pytest.raises(AssertionError, match="one sign and add up to its tree count"):
        narrowed(tops, 6)
    # e(1,2) reaches 1, and with a top of 0 its terms leave the box
    with pytest.raises(AssertionError, match="does not fit its box"):
        narrowed([0, 1, 1], 7)


def brute_tops(g: Graph, scheme: WeightScheme, variables) -> list[int]:
    """Each variable's largest exponent over g's trees, read off the explicit tree sum."""
    statistic = {s: stat for stat, s in SCHEME_FOR_STATISTIC.items()}
    trees = enumerate_sum(g, statistic[scheme]) if scheme in statistic else generic_tree_sum(g)
    high: dict = {}
    for k in trees._terms:
        for v, e in zip(trees._lay.vars, trees._lay.exponents(k)):
            high[v] = max(high.get(v, e), e)
    return [high.get(v, 0) for v in variables]


def test_tree_box_tops_are_the_largest_exponents_over_the_trees():
    # a thinned K2xK2xK3 whose x(2,1) top read 15 when the union-find's
    # path halving detached a grandparent and Kruskal took a cycle edge
    pinned = [(0, 6, 1, 2), (1, 7, 1, 1), (3, 9, 1, 3), (5, 11, 1, 1), (0, 3, 2, 1), (2, 5, 2, 1),
              (7, 10, 2, 1), (3, 4, 3, 1), (6, 7, 3, 1), (9, 10, 3, 2), (0, 2, 3, 1), (3, 5, 3, 2),
              (6, 8, 3, 1), (9, 11, 3, 1), (1, 2, 3, 1), (4, 5, 3, 1), (10, 11, 3, 1)]
    g = dataclasses.replace(cartesian_product([complete_graph(2), complete_graph(2), complete_graph(3)]),
                            edges=tuple(Edge(*e) for e in pinned))
    lap = weighted_laplacian(g, WeightScheme.DECOUPLED)
    count, tops = laplacian._tree_box(g, lap)
    variables = lap.rows[0][0]._lay.vars
    assert variables == (q(1), q(2), q(3), xd(1, 1), xd(1, 2), xd(2, 1), xd(2, 2), xd(3, 1), xd(3, 2), xd(3, 3))
    assert count == 14488
    assert tops == brute_tops(g, WeightScheme.DECOUPLED, variables) == [4, 3, 8, 14, 14, 13, 13, 13, 10, 11]

    # thinned family graphs under every scheme each kind allows
    rng = random.Random(7011)
    bases = [complete_graph(n) for n in (4, 5, 6)]
    bases += [threshold_graph(rng.choice(connected_threshold_sequences(n))) for n in (5, 6)]
    bases += [cartesian_product([complete_graph(d) for d in dims]) for dims in [(2, 3), (2, 2, 2), (3, 3), (2, 2, 3)]]
    bases += [hypercube(3), hypercube(4)]
    seen = set()
    for trial in range(40):
        g = thinned(rng, bases[trial % len(bases)])
        count = spanning_tree_count(g)
        if not count or count > 20000:
            continue
        for scheme in WeightScheme:
            if g.kind not in laplacian._SCHEME_KINDS[scheme] or (scheme is WeightScheme.GENERIC and count > TREE_CAP):
                continue
            lap = weighted_laplacian(g, scheme)
            tops = laplacian._tree_box(g, lap)[1]
            assert tops == brute_tops(g, scheme, lap.rows[0][0]._lay.vars), (scheme.value, g.kind, g.edges)
            seen.add(scheme)
    assert seen == set(WeightScheme)


def test_joins_match_a_textbook_union_find():
    # the pairs that join two components, against find by walking to the
    # root and union by linking roots, with no path compression
    rng = random.Random(7012)
    for _ in range(2000):
        n = rng.randrange(1, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3 * n))]
        parent = list(range(n))

        def find(u):
            while parent[u] != u:
                u = parent[u]
            return u

        want = []
        for u, v in pairs:
            ru, rv = find(u), find(v)
            want.append(ru != rv)
            parent[ru] = rv
        assert graphs._joins(n, pairs) == want, (n, pairs)


# -- arithmetic against a dict-of-Monomial reference ------------------------

VARS = [q(1), q(3), x(1), x(2), x(7), y(2), xd(1, 2), xd(2, 1), evar(1, 3), evar(2, 4)]


def random_terms(rng: random.Random, max_terms: int = 6, max_exp: int = 4) -> dict:
    """A random Laurent polynomial as a reference dict {Monomial: coeff}."""
    terms: dict = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        chosen = rng.sample(VARS, rng.randrange(0, 4))
        mono = Monomial.of({v: rng.randrange(-max_exp, max_exp + 1) for v in chosen})
        terms[mono] = terms.get(mono, 0) + rng.randrange(-20, 21)
    return {m: c for m, c in terms.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma * mb
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def as_ref(p: Polynomial) -> dict:
    return dict(p.terms())


def test_multiply_and_add_match_reference():
    rng = random.Random(7004)
    for _ in range(400):
        a, b, c = (random_terms(rng) for _ in range(3))
        pa, pb, pc = Polynomial(a), Polynomial(b), Polynomial(c)
        assert as_ref(pa * pb) == ref_mul(a, b)
        assert as_ref(pa + pb) == ref_add(a, b)
        assert as_ref(pa * pb - pc) == ref_add(ref_mul(a, b), {m: -k for m, k in c.items()})
        assert as_ref(pa * 3) == {m: 3 * k for m, k in a.items()}


def test_int_operands_multiply_on_either_side():
    rng = random.Random(7008)
    for _ in range(200):
        a = random_terms(rng)
        pa = Polynomial(a)
        for c in (0, 1, -1, 7, -12, -(2 ** 70)):
            want = {m: c * k for m, k in a.items()} if c else {}
            assert as_ref(pa * c) == as_ref(c * pa) == want
    assert Polynomial.zero() * 5 == 0 and 0 * Polynomial.one() == 0 and -3 * Polynomial.integer(4) == -12


def ref_value(val) -> dict:
    """A binding of `substitute` as a reference dict."""
    if isinstance(val, Polynomial):
        return as_ref(val)
    if isinstance(val, int):
        return {Monomial(): val} if val else {}
    if isinstance(val, Variable):
        return {Monomial.of({val: 1}): 1}
    return {val: 1}


def ref_power(ref: dict, e: int) -> dict:
    if e < 0:  # ref is one term with coefficient +-1
        (m, c), = ref.items()
        ref, e = {Monomial.of({v: -k for v, k in m.exps}): c}, -e
    out = {Monomial(): 1}
    for _ in range(e):
        out = ref_mul(out, ref)
    return out


def test_substitute_matches_reference():
    rng = random.Random(7009)
    seen = set()
    for _ in range(300):
        terms = random_terms(rng, max_exp=3)
        present = {v for m in terms for v, _ in m.exps}
        bindings = {}
        for v in rng.sample(VARS, rng.randrange(0, 4)):
            kind = rng.randrange(5)
            seen.add(("kind", kind))
            seen.add(("absent", v not in present))
            bindings[v] = [
                lambda: Polynomial(random_terms(rng, max_terms=3, max_exp=2)),
                lambda: rng.randrange(-2, 3),
                lambda: rng.choice(VARS),
                lambda: Monomial.of({rng.choice(VARS): rng.choice((-2, -1, 1, 2))}),
                lambda: -Polynomial.variable(rng.choice(VARS)),  # a unit of coefficient -1
            ][kind]()
        refs = {v: ref_value(val) for v, val in bindings.items()}
        units = {v for v, r in refs.items() if len(r) == 1 and abs(next(iter(r.values()))) == 1}
        if any(e < 0 and v in refs and v not in units for m in terms for v, e in m.exps):
            with pytest.raises(NonInvertibleSubstitution):
                Polynomial(terms).substitute(bindings)
            seen.add("refused")
            continue
        want: dict = {}
        for m, c in terms.items():
            term = {Monomial.of([(v, e) for v, e in m.exps if v not in refs]): c}
            for v, e in m.exps:
                if v in refs:
                    term = ref_mul(term, ref_power(refs[v], e))
            want = ref_add(want, term)
        assert as_ref(Polynomial(terms).substitute(bindings)) == want
    assert seen >= {*(("kind", k) for k in range(5)), ("absent", True), ("absent", False), "refused"}


def random_linear_form(rng: random.Random, m: int) -> dict:
    """A reference dict of c_1*v_1 + ... + c_m*v_m over distinct variables of every family."""
    return {Monomial.of({v: 1}): rng.choice((-(2 ** 40) - 1, -7, -2, -1, 1, 2, 5, 3 ** 25)) for v in rng.sample(VARS, m)}


def test_power_matches_repeated_products_and_the_reference(monkeypatch):
    # a linear form of two or more terms is raised to k >= 2 by the
    # multinomial kernel, every other base and exponent by k sequential
    # products; both must agree with repeated `*`, and with the reference
    # wherever its monomial products stay cheap (the largest power here has
    # 12,870 terms)
    kernel, calls = polyring._linear_power, []
    monkeypatch.setattr(polyring, "_linear_power", lambda terms, k: calls.append(k) or kernel(terms, k))
    rng = random.Random(7010)
    cases = [(random_linear_form(rng, m), k, True) for m in range(1, 10) for k in range(9)]
    sequential = ("x1*x2 + x1 - 2*x2^2",  # shared variables
                  "x1 + x(1,2) + 3", "-2*q3 + 7",  # a constant term
                  "x1 + x1^-1", "q1*x2^-1 - 3*q1*x2",  # Laurent binomials
                  "x1^2 + y2", "-x(2,1)*e(2,4) + e(1,3)")  # a term of degree other than 1
    cases += [(as_ref(Polynomial.parse(text)), k, False) for text in sequential for k in range(9)]
    referenced = set()
    for ref, k, linear in cases:
        p, before = Polynomial(ref), len(calls)
        power, repeated = p ** k, Polynomial.one()
        for _ in range(k):
            repeated = repeated * p
        assert power == repeated, (p, k)
        assert len(calls) - before == (linear and len(ref) > 1 and k > 1), (p, k)
        if power.n_terms <= 300:
            assert as_ref(power) == ref_power(ref, k), (p, k)
            referenced.add((len(ref), k) if linear else "sequential")
    assert {(m, k) for m in range(1, 10) for k in (0, 1, 2)} | {(2, k) for k in range(9)} | {"sequential"} <= referenced
    zero = Polynomial.zero()
    assert [zero ** k for k in (0, 1, 2)] == [1, 0, 0]
    assert zero ** (2 ** 40) == 0


def test_div_exact_matches_reference():
    rng = random.Random(7005)
    checked = refused = 0
    for _ in range(400):
        a, b = random_terms(rng), random_terms(rng)
        if not b:
            continue
        product = Polynomial(ref_mul(a, b))
        assert as_ref(div_exact(product, Polynomial(b))) == a
        checked += 1
        if len(b) >= 2:
            # a single extra term cannot be a multiple of a non-monomial
            extra = random_terms(rng, max_terms=1) or {Monomial(): 1}
            with pytest.raises(NotDivisible) as err:
                div_exact(Polynomial(ref_add(ref_mul(a, b), extra)), Polynomial(b))
            mono, coeff = err.value.witness
            assert isinstance(mono, Monomial) and coeff != 0
            refused += 1
    assert checked > 300 and refused > 100


def test_content_is_the_per_variable_minimum():
    # the Laurent floor of div_exact; absent variables count as exponent 0
    rng = random.Random(7006)
    for _ in range(300):
        terms = random_terms(rng, max_exp=2 ** 28 - 1)
        if not terms:
            continue
        p = Polynomial(terms)
        lay = p._lay
        ref = {v: min(m.as_dict().get(v, 0) for m in terms) for v in lay.vars}
        assert lay.monomial(lay.content(p._terms)) == Monomial.of(ref)


def test_parse_render_json_roundtrip_random():
    rng = random.Random(7006)
    for _ in range(300):
        ref = random_terms(rng, max_terms=8, max_exp=6)
        p = Polynomial(ref)
        text = p.render()
        assert as_ref(Polynomial.parse(text)) == ref
        assert Polynomial.parse(text).render() == text
        assert as_ref(Polynomial.from_json(p.to_json())) == ref
        assert Polynomial.from_json(p.to_json()).to_json() == p.to_json()
        assert [m for m, _ in p.canonical_terms()] == sorted(
            ref, key=lambda m: (m.degree(), [m.as_dict().get(v, 0) for v in sorted(VARS)]), reverse=True
        )


# -- nullvector residues: one stack per vector against one product per row ---


def random_nullvector_entry(rng: random.Random, variables, low: int, high: int) -> Polynomial:
    """1-3 random terms with exponents in [low, high]; they may cancel to 0."""
    terms: dict = {}
    for _ in range(rng.randint(1, 3)):
        mono = Monomial.of({v: rng.randint(low, high) for v in rng.sample(variables, rng.randint(0, len(variables)))})
        terms[mono] = terms.get(mono, 0) + rng.choice((-2, -1, 1, 3))
    return Polynomial(terms)


def row_by_row(matrix, vectors, divisor):
    """The rows of L v and the first (vector, row) the divisor does not divide,
    one `_dot` and one `_divide` per row, over one layout of all operands."""
    from treefactor import verify
    from treefactor.polyring import NotDivisible, _dot, _new, share_layout

    size = len(matrix)
    shared = iter(share_layout([*(e for row in matrix for e in row), divisor,
                                *(val for v in vectors for val in v.values())]))
    rows = [[next(shared)._terms for _ in range(size)] for _ in range(size)]
    divisor = next(shared)
    lay = divisor._lay
    residues = []
    for v in vectors:
        walk = [(col, val._terms) for col, val in zip(v, shared) if val]
        residues.append([_dot(pairs) if (pairs := [(row[col], val) for col, val in walk if row[col]]) else {}
                         for row in rows])
    for k, entries in enumerate(residues):
        for r, terms in enumerate(entries):
            try:
                verify._divide(_new(lay, terms), divisor)
            except NotDivisible:
                return lay, residues, (k, r)
    return lay, residues, None


def test_stacked_residues_and_division_match_row_by_row():
    # matrices of order 1-6 whose rows are multiples of the divisor by
    # polynomials or Laurent polynomials, or random, or cancel to 0 against
    # the first vector; vectors polynomial or Laurent, on variables the
    # matrix may lack
    from treefactor import verify
    from treefactor.polyring import _new, share_layout

    rng = random.Random(7010)
    matrix_vars, vector_vars = [x(1), x(2), y(3)], [x(1), x(2), y(3), q(1)]
    seen = dict.fromkeys(("divided", "undivided", "past (0, 0)", "zero rows", "short rows", "re-keyed"), 0)
    for trial in range(400):
        size = rng.randint(1, 6)
        divisible = trial % 3 == 0  # most rows multiples, polynomial vectors
        divisor = Polynomial.zero()
        while divisor.is_zero:
            divisor = random_nullvector_entry(rng, matrix_vars[:rng.randint(1, 3)], 0, 2)
        low = 0 if divisible else rng.choice((-1, 0))
        vectors = [{col: random_nullvector_entry(rng, vector_vars if trial % 4 else matrix_vars, low, 2)
                    for col in rng.sample(range(size), rng.randint(1, min(2, size) if k == 0 else size))}
                   for k in range(rng.randint(1, 3))]
        matrix = []
        for _ in range(size):
            kind = rng.choice(("multiple", "multiple", "cancel", "laurent") if divisible else
                              ("multiple", "laurent", "random", "cancel"))
            if kind == "cancel" and len(vectors[0]) == 2:  # the row meets v_0 at a and b, and cancels there
                (a, va), (b, vb) = vectors[0].items()
                w = random_nullvector_entry(rng, matrix_vars, -1, 1)
                row = [Polynomial.zero()] * size
                row[a], row[b] = w * vb, -w * va
            elif kind == "random":
                row = [random_nullvector_entry(rng, matrix_vars, -1, 2) if rng.random() < 0.7 else Polynomial.zero()
                       for _ in range(size)]
            else:
                low_q = -1 if kind == "laurent" else 0
                row = [divisor * random_nullvector_entry(rng, matrix_vars, low_q, 1) if rng.random() < 0.7
                       else Polynomial.zero() for _ in range(size)]
            matrix.append(row)

        lay, want, first_bad = row_by_row(matrix, vectors, divisor)
        flat = share_layout(e for row in matrix for e in row)  # the matrix as its nonzero cells
        columns = verify._stacked_columns((flat[0]._lay, {divmod(i, size): p._terms for i, p in enumerate(flat) if p}),
                                          size)
        (shared_divisor,), stacks = verify._residues(columns, vectors, [divisor])
        assert shared_divisor._lay.vars == lay.vars, trial
        assert [lay.unstack(stack, size) for stack in stacks] == want, trial
        bad = verify._first_undivided(shared_divisor, stacks, size)
        assert (bad and bad[:2]) == first_bad, trial
        if bad is not None:  # the failing row itself, as row_by_row computed it
            k, r, row = bad
            assert row == _new(lay, want[k][r]), trial

        seen["divided" if first_bad is None else "undivided"] += 1
        seen["past (0, 0)"] += first_bad not in (None, (0, 0))
        seen["re-keyed"] += len(columns[0].vars) < len(lay.vars)
        floor = lay.content(shared_divisor._terms)
        for entries in want:
            seen["zero rows"] += sum(not terms for terms in entries)
            seen["short rows"] += sum(bool(terms and (lay.content(terms) - floor) & lay.guard) for terms in entries)
    assert min(seen.values()) >= 40, seen
