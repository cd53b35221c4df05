"""Weight schemes, Laplacian structure, and exact determinants."""

import hashlib
import itertools
import random

import pytest

from treefactor import (
    CapExceeded,
    Edge,
    ExponentOverflow,
    Graph,
    IndexOutOfRange,
    Monomial,
    PolyMatrix,
    Polynomial,
    SchemeMismatch,
    WeightScheme,
    cartesian_product,
    complete_graph,
    connected_threshold_sequences,
    decoupled_enumerator,
    edge_weight,
    evar,
    hypercube,
    is_connected,
    multigraph_kn,
    q,
    reduce_matrix,
    spanning_tree_count,
    threshold_graph,
    tree_enumerator_det,
    weighted_laplacian,
    x,
    xd,
    y,
)
from treefactor import laplacian
from treefactor.polyring import _KroneckerImage


P = Polynomial.parse


def test_edge_weight_examples():
    k4 = complete_graph(4)
    assert edge_weight(k4, k4.edges[0], WeightScheme.GENERIC).render() == "e(1,2)"
    assert edge_weight(k4, k4.edges[0], WeightScheme.CAYLEY_PRUFER).render() == "x1*x2"
    assert edge_weight(k4, k4.edges[0], WeightScheme.THRESHOLD_IN_OUT).render() == "x1*y2"

    prod = cartesian_product([complete_graph(2), complete_graph(3)])
    e_dir1 = next(e for e in prod.edges if e.direction == 1 and e.u == 0)
    assert edge_weight(prod, e_dir1, WeightScheme.DIRECTION).render() == "q1"
    # endpoints (1,1) and (2,1): shared second coordinate appears squared
    assert (
        edge_weight(prod, e_dir1, WeightScheme.DECOUPLED).render()
        == "q1*x(1,1)*x(1,2)*x(2,1)^2"
    )


def test_edge_weight_rejects_an_edge_the_graph_lacks():
    cube = hypercube(2)
    prod = cartesian_product([complete_graph(2), complete_graph(3)])
    for g, edge, scheme in [
        (cube, Edge(0, 1, 0), WeightScheme.CUBE_LAURENT),  # direction 0 would read the last q
        (cube, Edge(0, 3, 1), WeightScheme.CUBE_LAURENT),  # the ends differ in two coordinates
        (cube, Edge(0, 1, 1), WeightScheme.CUBE_LAURENT),  # 0 and 1 are joined in direction 2
        (prod, Edge(0, 1, 7), WeightScheme.DIRECTION),
        (prod, Edge(0, 1, 7), WeightScheme.DECOUPLED),
        (complete_graph(3), Edge(0, 3), WeightScheme.GENERIC),
        (threshold_graph((2, 1, 1)), Edge(1, 2), WeightScheme.THRESHOLD_IN_OUT),
    ]:
        named = rf"\(u, v, direction\) = \({edge.u}, {edge.v}, {edge.direction}\) is not an edge"
        with pytest.raises(ValueError, match=named):
            edge_weight(g, edge, scheme)
    # the multiplicity is not part of the weight
    assert edge_weight(cube, Edge(0, 1, 2, 5), WeightScheme.CUBE_LAURENT) == P("q2*x1^-1")


def test_cube_weights_depend_on_lower_endpoint():
    g = hypercube(2)
    w = {(e.u, e.v): edge_weight(g, e, WeightScheme.CUBE_LAURENT) for e in g.edges}
    assert w[(0, 2)] == P("q1*x2^-1")  # from the empty subset, 2 absent
    assert w[(1, 3)] == P("q1*x2")  # from {2}, 2 present
    assert w[(0, 1)] == P("q2*x1^-1")
    assert w[(2, 3)] == P("q2*x1")


def test_scheme_applicability():
    k3 = complete_graph(3)
    prod = cartesian_product([k3, k3])
    cube = hypercube(2)
    thr = threshold_graph((2, 1, 1))
    with pytest.raises(SchemeMismatch):
        edge_weight(k3, k3.edges[0], WeightScheme.DIRECTION)
    with pytest.raises(SchemeMismatch):
        weighted_laplacian(k3, WeightScheme.DECOUPLED)
    with pytest.raises(SchemeMismatch):
        weighted_laplacian(prod, WeightScheme.CUBE_LAURENT)
    with pytest.raises(SchemeMismatch):
        weighted_laplacian(cube, WeightScheme.CAYLEY_PRUFER)
    with pytest.raises(SchemeMismatch):
        weighted_laplacian(thr, WeightScheme.DIRECTION)
    # threshold weights also make sense on plain complete graphs
    weighted_laplacian(k3, WeightScheme.THRESHOLD_IN_OUT)


def test_laplacian_entry_and_symmetry():
    lap = weighted_laplacian(hypercube(2), WeightScheme.CUBE_LAURENT)
    assert lap.at(0, 2).render() == "-q1*x2^-1"
    assert lap.at(0, 0) == P("q1*x2^-1 + q2*x1^-1")
    for i in range(lap.size):
        for j in range(lap.size):
            assert lap.at(i, j) == lap.at(j, i)


def test_laplacian_prints_as_aligned_rows():
    lap = weighted_laplacian(complete_graph(3), WeightScheme.CAYLEY_PRUFER)
    assert str(lap) == (
        "[ x1*x2 + x1*x3         -x1*x2         -x1*x3 ]\n"
        "[        -x1*x2  x1*x2 + x2*x3         -x2*x3 ]\n"
        "[        -x1*x3         -x2*x3  x1*x3 + x2*x3 ]"
    )


def test_laplacian_rows_sum_to_zero():
    cases = [
        (complete_graph(4), WeightScheme.GENERIC),
        (complete_graph(4), WeightScheme.CAYLEY_PRUFER),
        (multigraph_kn(3, 2), WeightScheme.CAYLEY_PRUFER),
        (cartesian_product([complete_graph(2), complete_graph(3)]), WeightScheme.DIRECTION),
        (cartesian_product([complete_graph(2), complete_graph(3)]), WeightScheme.DECOUPLED),
        (hypercube(3), WeightScheme.CUBE_LAURENT),
        (threshold_graph((3, 1, 1, 1)), WeightScheme.THRESHOLD_IN_OUT),
    ]
    for g, scheme in cases:
        lap = weighted_laplacian(g, scheme)
        assert all(s.is_zero for s in lap.row_sums())


def test_multiplicity_scales_weights():
    lap1 = weighted_laplacian(complete_graph(3), WeightScheme.CAYLEY_PRUFER)
    lap2 = weighted_laplacian(multigraph_kn(3, 2), WeightScheme.CAYLEY_PRUFER)
    for i in range(3):
        for j in range(3):
            assert lap2.at(i, j) == lap1.at(i, j) * 2


def _reference_weight(g, e, scheme):
    """An edge's weight monomial written from each scheme's definition."""
    S, d = WeightScheme, e.direction
    if scheme is S.GENERIC:
        exps = [(evar(e.u + 1, e.v + 1), 1)]
    elif scheme is S.CAYLEY_PRUFER:
        exps = [(x(e.u + 1), 1), (x(e.v + 1), 1)]
    elif scheme is S.THRESHOLD_IN_OUT:
        exps = [(x(e.u + 1), 1), (y(e.v + 1), 1)]
    elif scheme is S.DIRECTION:
        exps = [(q(d), 1)]
    elif scheme is S.DECOUPLED:
        exps = [(q(d), 1)] + [(xd(t, m), 1) for label in (g.labels[e.u], g.labels[e.v])
                              for t, m in enumerate(label, start=1)]
    else:
        exps = [(q(d), 1)] + [(x(t), 1 if t in g.labels[e.u] else -1)
                              for t in range(1, len(g.dims) + 1) if t != d]
    return Polynomial.monomial(Monomial.of(exps))


def _random_laplacian_graphs(rng):
    def factor():
        n = rng.randint(1, 3)
        return complete_graph(n) if rng.random() < 0.5 else multigraph_kn(n, rng.randint(1, 3))

    graphs = [complete_graph(1), threshold_graph((1, 1, 0))]
    graphs += [multigraph_kn(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(6)]
    graphs += [cartesian_product([factor() for _ in range(rng.randint(1, 3))]) for _ in range(8)]
    graphs += [hypercube(n) for n in range(1, 5)]
    graphs += [threshold_graph(rng.choice(connected_threshold_sequences(rng.randint(1, 6)))) for _ in range(6)]
    return graphs


def test_key_built_laplacian_matches_edge_by_edge_sum():
    # every scheme on every graph family it is defined on, against the
    # matrix summed edge by edge from the weights, themselves checked
    # against each scheme's definition
    rng = random.Random(20261018)
    checked = set()
    for g in _random_laplacian_graphs(rng):
        for scheme in WeightScheme:
            try:
                lap = weighted_laplacian(g, scheme)
            except SchemeMismatch:
                with pytest.raises(SchemeMismatch):
                    laplacian.check_scheme(g, scheme)
                continue
            rows = [[Polynomial.zero()] * g.n for _ in range(g.n)]
            for e in g.edges:
                w = edge_weight(g, e, scheme)
                assert w == _reference_weight(g, e, scheme), (g.kind, scheme, e)
                w = w * e.multiplicity
                rows[e.u][e.u] += w
                rows[e.v][e.v] += w
                rows[e.u][e.v] -= w
                rows[e.v][e.u] -= w
            assert lap == PolyMatrix(rows), (g.kind, g.labels, scheme)
            checked.add((g.kind, scheme))
    assert len(checked) == 12  # the (kind, scheme) pairs check_scheme allows


def test_laplacian_cells_are_the_matrix_entries_and_stack_as_its_columns():
    # the cells are the nonzero entries of weighted_laplacian, on its layout;
    # with any row and column struck, or none, the stacked columns of the
    # nullvector checks are the stacks of reduce_matrix's columns
    from treefactor import verify

    rng = random.Random(20261021)
    parallel = set()
    for g in _random_laplacian_graphs(rng):
        for scheme in WeightScheme:
            try:
                lap = weighted_laplacian(g, scheme)
            except SchemeMismatch:
                continue
            lay, cells = laplacian._laplacian_cells(g, scheme)
            assert all(p._lay is lay for row in lap.rows for p in row)
            assert cells == {(i, j): p._terms for i, row in enumerate(lap.rows) for j, p in enumerate(row) if p}
            for strike in (None, *range(g.n)):
                minor = reduce_matrix(lap, strike, strike)[0] if strike is not None else lap
                want = [lay.stack(row[j]._terms for row in minor.rows) for j in range(minor.size)]
                assert verify._stacked_columns((lay, cells), g.n, strike) == (lay, want), (g.kind, scheme, strike)
            if any(e.multiplicity > 1 for e in g.edges):
                parallel.add(scheme)
    assert parallel == set(WeightScheme) - {WeightScheme.CUBE_LAURENT}  # no cube has parallel copies


def test_reduce_matrix_signs_and_bounds():
    lap = weighted_laplacian(complete_graph(4), WeightScheme.GENERIC)
    minor, sign = reduce_matrix(lap, 3, 3)
    assert minor.size == 3 and sign == 1
    minor, sign = reduce_matrix(lap, 0, 1)
    assert minor.size == 3 and sign == -1
    with pytest.raises(IndexOutOfRange):
        reduce_matrix(lap, 4, 0)
    with pytest.raises(IndexOutOfRange):
        reduce_matrix(lap, 0, -1)


def test_determinant_3x3_permutation_oracle():
    rng = random.Random(41021)
    vars_ = [q(1), x(1), x(2)]
    for _ in range(25):
        rows = [
            [_rand_poly(rng, vars_) for _ in range(3)]
            for _ in range(3)
        ]
        m = PolyMatrix(rows)
        expected = Polynomial.zero()
        for perm in itertools.permutations(range(3)):
            inv = sum(1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b])
            term = Polynomial.one()
            for i in range(3):
                term = term * rows[i][perm[i]]
            expected = expected + (term if inv % 2 == 0 else -term)
        assert laplacian._minors_det(m.rows) == expected
        assert laplacian._kronecker_det(_KroneckerImage(m.rows)) == expected


def _rand_poly(rng, vars_, laurent=True):
    terms = Polynomial.zero()
    for _ in range(rng.randrange(0, 4)):
        c = rng.randrange(-4, 5)
        mono = Polynomial.one() * c
        for v in vars_:
            if rng.random() < 0.4:
                e = rng.randrange(-2, 3) if laurent else rng.randrange(0, 3)
                if e:
                    mono = mono * Polynomial.parse(f"{v.render()}^{e}")
        terms = terms + mono
    return terms


def test_determinant_methods_agree_on_random_matrices():
    rng = random.Random(41022)
    vars_ = [q(1), q(2), x(1), x(2)]
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = PolyMatrix([[_rand_poly(rng, vars_) for _ in range(n)] for _ in range(n)])
        assert laplacian._kronecker_det(_KroneckerImage(m.rows)) == laplacian._minors_det(m.rows)


def test_determinant_methods_agree_on_reduced_laplacians():
    cases = [
        (complete_graph(5), WeightScheme.CAYLEY_PRUFER),
        (cartesian_product([complete_graph(2), complete_graph(3)]), WeightScheme.DIRECTION),
        (hypercube(2), WeightScheme.CUBE_LAURENT),
        (threshold_graph((3, 3, 2, 2)), WeightScheme.THRESHOLD_IN_OUT),
    ]
    for g, scheme in cases:
        lap = weighted_laplacian(g, scheme)
        minor, _ = reduce_matrix(lap, g.n - 1, g.n - 1)
        assert laplacian._kronecker_det(_KroneckerImage(minor.rows)) == laplacian._minors_det(minor.rows)


def test_full_laplacian_is_singular():
    for g, scheme in [
        (complete_graph(4), WeightScheme.GENERIC),
        (hypercube(2), WeightScheme.CUBE_LAURENT),
        (cartesian_product([complete_graph(3), complete_graph(3)]), WeightScheme.DIRECTION),
    ]:
        lap = weighted_laplacian(g, scheme)
        assert laplacian._kronecker_det(_KroneckerImage(lap.rows)).is_zero
        assert laplacian._minors_det(lap.rows).is_zero


def test_enumerator_independent_of_removal_choice():
    g = complete_graph(4)
    base = tree_enumerator_det(g, WeightScheme.CAYLEY_PRUFER)
    for r in range(4):
        for s in range(4):
            assert tree_enumerator_det(g, WeightScheme.CAYLEY_PRUFER, remove=(r, s)) == base

    cube = hypercube(2)
    base = tree_enumerator_det(cube, WeightScheme.CUBE_LAURENT)
    for r, s in [(0, 0), (1, 2), (3, 3), (2, 0)]:
        assert tree_enumerator_det(cube, WeightScheme.CUBE_LAURENT, remove=(r, s)) == base


def test_default_strike_is_a_vertex_of_most_edges_and_rows_ascend_by_degree(monkeypatch):
    # every principal cofactor is the tree sum: by default a vertex of most
    # edges is struck and the rows left ascend by degree, ties in vertex
    # order; a connected threshold graph's struck vertex is its last
    # dominating one, vertex 0 when no other vertex dominates
    seen = []
    determinant = laplacian.determinant
    monkeypatch.setattr(laplacian, "determinant", lambda m, tree_box=None: seen.append(m) or determinant(m, tree_box))
    sixes = connected_threshold_sequences(6)
    assert len(sixes) == 16
    for lam in sixes:
        g = threshold_graph(lam)
        lap = weighted_laplacian(g, WeightScheme.THRESHOLD_IN_OUT)
        seen.clear()
        det = tree_enumerator_det(g, WeightScheme.THRESHOLD_IN_OUT)
        (m,) = seen
        vertex_of = {lap.at(v, v).render(): v for v in range(g.n)}  # each vertex's diagonal is its own
        order = [vertex_of[m.at(i, i).render()] for i in range(m.size)]
        (struck,) = set(range(g.n)) - set(order)
        assert struck == max(v for v in range(g.n) if lam[v] == g.n - 1), lam
        assert m == PolyMatrix([[lap.at(i, j) for j in order] for i in order]), lam
        assert order == sorted(order, key=lambda v: (lam[v], v)), lam
        # every vertex left neighbours the struck one, so a row's nonzero cells number its degree
        assert [sum(1 for p in row if p) for row in m.rows] == [lam[v] for v in order], lam
        assert det == tree_enumerator_det(g, WeightScheme.THRESHOLD_IN_OUT, remove=(0, 0)), lam
    # when every degree ties, the last row and column are struck, as before
    for g, scheme in [(complete_graph(6), WeightScheme.CAYLEY_PRUFER),
                      (cartesian_product([complete_graph(2), complete_graph(3)]), WeightScheme.DIRECTION),
                      (hypercube(3), WeightScheme.CUBE_LAURENT)]:
        seen.clear()
        tree_enumerator_det(g, scheme)
        assert seen == [reduce_matrix(weighted_laplacian(g, scheme), g.n - 1, g.n - 1)[0]], g.kind


def test_default_strike_equals_every_diagonal_strike_on_random_multigraphs():
    rng = random.Random(36017)
    checked = 0
    while checked < 12:
        n = rng.randint(4, 7)
        edges = tuple(Edge(u, v, 1, rng.choice((1, 1, 2, 3)))
                      for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6)
        g = Graph(kind="plain", labels=tuple(range(1, n + 1)), edges=edges)
        if not is_connected(g) or len(set(g.degrees())) == 1:
            continue
        checked += 1
        for scheme in (WeightScheme.GENERIC, WeightScheme.CAYLEY_PRUFER):
            default = tree_enumerator_det(g, scheme)
            assert not default.is_zero
            for v in range(n):
                assert tree_enumerator_det(g, scheme, remove=(v, v)) == default, (edges, scheme, v)


def test_enumerator_edge_cases():
    assert tree_enumerator_det(complete_graph(1), WeightScheme.GENERIC) == Polynomial.one()
    assert tree_enumerator_det(threshold_graph((1, 1, 0)), WeightScheme.THRESHOLD_IN_OUT).is_zero


def test_the_empty_graph_enumerates_no_trees():
    # no vertex to strike by default, and no spanning tree, as Kirchhoff's count says;
    # a strike the caller names is still checked
    empty = Graph(kind="plain", labels=(), edges=())
    assert spanning_tree_count(empty) == 0
    for scheme in (WeightScheme.GENERIC, WeightScheme.CAYLEY_PRUFER, WeightScheme.THRESHOLD_IN_OUT):
        assert tree_enumerator_det(empty, scheme).is_zero
    with pytest.raises(IndexOutOfRange):
        tree_enumerator_det(empty, WeightScheme.GENERIC, remove=(0, 0))


def test_enumerator_counts_at_unit_weights():
    # specialize every variable to 1 by counting terms with coefficients
    g = complete_graph(4)
    enum = tree_enumerator_det(g, WeightScheme.CAYLEY_PRUFER)
    ones = {v: Polynomial.one() for v in enum.variables()}
    assert enum.substitute(ones).as_int() == 16


def test_the_cube_is_k2_to_the_n_under_direction_weights():
    # Q_n and K2^n have one direction enumerator, and the Laurent cube
    # enumerator at every x_t = 1 is that enumerator too
    for n in (1, 2, 3):
        cube = hypercube(n)
        direction = tree_enumerator_det(cube, WeightScheme.DIRECTION)
        assert direction == tree_enumerator_det(
            cartesian_product([complete_graph(2)] * n), WeightScheme.DIRECTION
        ), n
        laurent = tree_enumerator_det(cube, WeightScheme.CUBE_LAURENT)
        assert laurent.substitute({x(t): 1 for t in range(1, n + 1)}) == direction, n


def test_the_cube_is_the_decoupled_product_of_k2s_at_inverse_pairs():
    # x(t,1) -> 1/x_t and x(t,2) -> x_t send the decoupled enumerator of
    # K2^n to the Laurent cube enumerator at x_t -> x_t^2; moving one
    # coordinate of the substitution breaks it
    for n, size in ((2, 4), (3, 111)):
        decoupled = decoupled_enumerator((2,) * n)
        squared = tree_enumerator_det(hypercube(n), WeightScheme.CUBE_LAURENT).substitute(
            {x(t): Polynomial.variable(x(t), 2) for t in range(1, n + 1)})
        pairs = {xd(t, 1): Polynomial.variable(x(t), -1) for t in range(1, n + 1)}
        pairs.update({xd(t, 2): x(t) for t in range(1, n + 1)})
        assert len(list(decoupled.terms())) == len(list(squared.terms())) == size, n
        assert decoupled.substitute(pairs) == squared, n
        assert decoupled.substitute({**pairs, xd(1, 1): x(1)}) != squared, n


def test_direction_weights_are_decoupled_weights_at_one():
    # every x(i,j) = 1 sends the decoupled enumerator to the direction one;
    # x(1,1) = 2 does not
    for dims in ((2, 3), (3, 3)):
        direction = tree_enumerator_det(cartesian_product([complete_graph(d) for d in dims]), WeightScheme.DIRECTION)
        ones = {xd(i, j): 1 for i, d in enumerate(dims, start=1) for j in range(1, d + 1)}
        decoupled = decoupled_enumerator(dims)
        assert decoupled.substitute(ones) == direction, dims
        assert decoupled.substitute({**ones, xd(1, 1): 2}) != direction, dims


def test_every_scheme_is_the_generic_enumerator_at_its_edge_weights():
    # e(u,v) -> the scheme's weight of the edge joining u and v sends the
    # generic enumerator to the scheme's, parallel copies included; binding
    # the first edge to another edge's weight instead breaks it
    def product(*factors):
        return cartesian_product([complete_graph(f) if isinstance(f, int) else f for f in factors])

    S = WeightScheme
    cases = [(complete_graph(4), S.CAYLEY_PRUFER), (multigraph_kn(5, 2), S.CAYLEY_PRUFER),
             (product(2, 2), S.DIRECTION), (product(multigraph_kn(2, 2), 3), S.DIRECTION),
             (product(2, 2), S.DECOUPLED), (product(2, 3), S.DECOUPLED),
             (hypercube(2), S.CUBE_LAURENT), (hypercube(3), S.CUBE_LAURENT),
             (threshold_graph((3, 3, 2, 2)), S.THRESHOLD_IN_OUT),
             (threshold_graph((4, 3, 2, 2, 1)), S.THRESHOLD_IN_OUT)]
    assert {scheme for _, scheme in cases} == set(S) - {S.GENERIC}
    for g, scheme in cases:
        weights = {evar(e.u + 1, e.v + 1): edge_weight(g, e, scheme) for e in g.edges}
        generic = tree_enumerator_det(g, S.GENERIC)
        target = tree_enumerator_det(g, scheme)
        assert generic.substitute(weights) == target, (g.kind, scheme)
        (first, w), *_ = weights.items()
        other = next(v for v in weights.values() if v != w)
        assert generic.substitute({**weights, first: other}) != target, (g.kind, scheme)


def test_bareiss_divides_exactly_over_laurent_entries():
    # negative exponents are shifted out row by row before the image is
    # eliminated; every interior division must still be exact
    rng = random.Random(52033)
    vars_ = [q(1), x(1), x(2)]
    for n in (5, 6):
        for _ in range(4):
            m = PolyMatrix([[_rand_poly(rng, vars_) for _ in range(n)] for _ in range(n)])
            assert laplacian._kronecker_det(_KroneckerImage(m.rows)) == laplacian._minors_det(m.rows)


def _pinned_enumerator_cases():
    def product(dims):
        return cartesian_product([complete_graph(d) for d in dims])

    S = WeightScheme
    cases = [(complete_graph(n), S.CAYLEY_PRUFER) for n in range(3, 8)]
    cases += [(product(d), S.DIRECTION) for d in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (4, 4),
                                                    (2, 3, 3), (2, 5), (3, 4), (5, 5)]]
    cases += [(threshold_graph(lam), S.THRESHOLD_IN_OUT)
              for n in range(1, 7) for lam in connected_threshold_sequences(n)]
    cases += [(product(d), S.DECOUPLED) for d in [(2, 3), (2, 4), (2, 2, 2)]]
    cases += [(hypercube(n), s) for n in (1, 2, 3) for s in (S.CUBE_LAURENT, S.DIRECTION)]
    cases += [(multigraph_kn(5, 2), S.CAYLEY_PRUFER), (multigraph_kn(6, 3), S.GENERIC),
              (complete_graph(6), S.GENERIC)]
    return cases


def test_enumerator_outputs_are_pinned():
    # one digest over the canonical text and JSON of 59 determinants, on
    # both sides of every size threshold that picks a determinant method
    cases = _pinned_enumerator_cases()
    digest = hashlib.sha256()
    for g, scheme in cases:
        p = tree_enumerator_det(g, scheme)
        digest.update(f"{p.render()}\n{p.to_json()}\n".encode())
    assert len(cases) == 59
    assert digest.hexdigest() == "21eb5ccd4209042b1672ad029e89e51fe13682fe0903b8a3f70679ab078ed0b7"


def _product(dims):
    return cartesian_product([complete_graph(d) for d in dims])


def test_determinant_takes_each_path_where_intended(monkeypatch):
    # the plan's choices on the families, from per-matrix times of both
    # routes: minors wherever the image loses, the image for the direction
    # products; stubs stand in for the seconds-long cases
    calls = []
    monkeypatch.setattr(laplacian, "_minors_det", lambda rows: calls.append("minors") or Polynomial.zero())
    monkeypatch.setattr(laplacian, "_kronecker_det", lambda image: calls.append("image") or Polynomial.zero())

    def route(g, scheme):
        calls.clear()
        tree_enumerator_det(g, scheme)
        return calls[0]

    S = WeightScheme
    minors = [(complete_graph(7), S.CAYLEY_PRUFER), (hypercube(3), S.CUBE_LAURENT), (_product((2, 3)), S.DECOUPLED)]
    minors += [(threshold_graph(lam), S.THRESHOLD_IN_OUT) for lam in connected_threshold_sequences(6)]
    image = [(_product(dims), S.DIRECTION) for dims in [(3, 3), (2, 2, 2), (2, 2, 3), (4, 4), (2, 3, 3), (2, 2, 2, 2),
                                                       (3, 3, 3)]]
    image.append((hypercube(4), S.DIRECTION))
    assert {(5, 5, 2, 2, 2, 2), (5, 1, 1, 1, 1, 1)} <= {lam.parts for lam in connected_threshold_sequences(6)}
    for expected, cases in (("minors", minors), ("image", image)):
        for g, scheme in cases:
            assert route(g, scheme) == expected, (g.kind, g.dims or g.n, scheme.value)


def test_minors_that_win_outright_build_no_image_and_take_no_tree_box(monkeypatch):
    # under the price of an image with no bits the plan builds nothing of the
    # image route, so neither the image nor the tree box may be touched
    S = WeightScheme
    cases = [(threshold_graph(lam), S.THRESHOLD_IN_OUT) for lam in [(5, 5, 5, 5, 5, 5), (5, 5, 3, 3, 2, 2),
                                                                     (5, 5, 2, 2, 2, 2), (5, 1, 1, 1, 1, 1)]]
    cases += [(complete_graph(6), S.CAYLEY_PRUFER), (_product((2, 3)), S.DIRECTION), (_product((2, 3)), S.DECOUPLED),
              (threshold_graph((6, 6, 2, 2, 2, 2, 2)), S.THRESHOLD_IN_OUT)]
    expected = [tree_enumerator_det(g, scheme) for g, scheme in cases]

    def forbidden(*args):
        raise AssertionError("the image route was priced")

    monkeypatch.setattr(laplacian, "_KroneckerImage", forbidden)
    monkeypatch.setattr(laplacian, "_tree_box", forbidden)
    assert [tree_enumerator_det(g, scheme) for g, scheme in cases] == expected


def test_determinant_refuses_an_image_past_the_bit_cap(monkeypatch):
    # K40's image would run past 10**64 bits; the refusal reads only its
    # size and never unpacks it
    def no_matrix(self):
        raise AssertionError("the image was unpacked")

    monkeypatch.setattr(_KroneckerImage, "matrix", no_matrix)
    with pytest.raises(CapExceeded, match=r"Kronecker image needs \d+ bits, past the bound of 1048576$"):
        tree_enumerator_det(complete_graph(40), WeightScheme.CAYLEY_PRUFER)


def test_minors_past_the_cap_are_refused_once_their_products_pass_its_share():
    # decoupled K4xK4: an image of 2,886,218,022,912 bits, and 97,759 minor
    # products, past 2**20 / 15; refused at once, where expanding it by
    # minors ran out of memory
    g = cartesian_product([complete_graph(4), complete_graph(4)])
    with pytest.raises(CapExceeded, match=r"needs 2886218022912 bits, past the bound of 1048576$"):
        tree_enumerator_det(g, WeightScheme.DECOUPLED)


def test_direction_kronecker_images_are_sized_by_hadamards_bound():
    # the identity-det direction images, in bits: their slots hold Hadamard's
    # bound on a coefficient and a sign bit, and nothing more
    sizes = {(2, 3): 60, (3, 3): 171, (2, 2, 2): 896, (2, 2, 3): 3600, (4, 4): 672, (2, 3, 3): 13932}
    for dims, bits in sizes.items():
        g = cartesian_product([complete_graph(d) for d in dims])
        reduced, _ = reduce_matrix(weighted_laplacian(g, WeightScheme.DIRECTION), g.n - 1, g.n - 1)
        assert _KroneckerImage(reduced.rows).bits == bits, dims


def test_tree_enumerator_images_are_narrowed_to_the_tree_box(monkeypatch):
    # the images tree_enumerator_det eliminates, in bits: each exponent top
    # is the variable's largest over the spanning trees, and each slot holds
    # the tree count and a sign bit; (3,3,3)'s 51,759 bits and (2,2,2,3)'s
    # 801,792 are narrowed before the plan prices them
    bits = []
    monkeypatch.setattr(laplacian, "_kronecker_det", lambda image: bits.append(image.bits) or Polynomial.zero())
    sizes = {(2, 2, 3): 980, (2, 3, 3): 4680, (3, 3, 3): 22743, (2, 2, 2, 3): 107653}
    for dims, size in sizes.items():
        bits.clear()
        tree_enumerator_det(cartesian_product([complete_graph(d) for d in dims]), WeightScheme.DIRECTION)
        assert bits == [size], dims
    # T:5,5,2,2,2,2 goes by minors, so its image is narrowed here, on the
    # matrix tree_enumerator_det strikes: the dominating vertex, rows by degree
    g = threshold_graph((5, 5, 2, 2, 2, 2))
    lap = weighted_laplacian(g, WeightScheme.THRESHOLD_IN_OUT)
    order = sorted(range(g.n), key=g.degrees().__getitem__)
    rows = [[lap.rows[i][j] for j in order[:-1]] for i in order[:-1]]
    image = _KroneckerImage(rows)
    assert image.bits == 3600
    count, tops = laplacian._tree_box(g, lap)
    image.narrow(tops, count)
    assert image.bits == 2800


def test_determinant_of_empty_matrix_is_one():
    assert laplacian.determinant(PolyMatrix([])) == 1
    assert laplacian._minors_det(()) == 1


def test_poly_matrix_is_square_and_equals_only_matrices():
    one = Polynomial.one()
    with pytest.raises(ValueError, match="matrix must be square"):
        PolyMatrix([[one, one]])
    m = PolyMatrix([[one]])
    assert m.__eq__([[one]]) is NotImplemented
    assert m != [[one]] and not m == 1
    assert m == PolyMatrix([[1]])


def test_one_vertex_and_disconnected_graphs_check_their_indices():
    # no shortcut answers before the struck row and column are checked
    k1, split = complete_graph(1), threshold_graph((1, 1, 0))
    with pytest.raises(IndexOutOfRange):
        tree_enumerator_det(k1, WeightScheme.GENERIC, remove=(3, 3))
    with pytest.raises(IndexOutOfRange):
        tree_enumerator_det(split, WeightScheme.THRESHOLD_IN_OUT, remove=(7, -2))
    # K1's 0x0 reduced matrix has determinant 1; a disconnected graph's is 0 for every strike
    assert tree_enumerator_det(k1, WeightScheme.GENERIC) == 1
    assert all(tree_enumerator_det(split, WeightScheme.THRESHOLD_IN_OUT, remove=(r, s)) == 0
               for r in range(3) for s in range(3))


def test_minors_det_makes_the_products_the_plan_counts(monkeypatch):
    # one key-sum per column set below the first row, and in them exactly
    # the entry-times-minor products the plan's walk counts off the zero
    # pattern, one running count per row below the first
    g = hypercube(3)
    rows = reduce_matrix(weighted_laplacian(g, WeightScheme.GENERIC), 7, 7)[0].rows
    expected = tree_enumerator_det(g, WeightScheme.GENERIC)
    calls = []
    dot = laplacian._dot
    monkeypatch.setattr(laplacian, "_dot", lambda pairs: calls.append(pairs) or dot(pairs))
    assert laplacian._minors_det(rows) == expected
    counts = list(laplacian._minor_products(rows))
    assert len(counts) == len(rows) - 1 and counts[-1] == sum(map(len, calls)) == 188
    assert len(calls) == 108
    # rows 0 and 1 equal: their three minors cancel and are dropped, so row 2 expands nothing
    calls.clear()
    a, b = P("x1 + x2"), P("x2")
    assert laplacian._minors_det([[a, b, a], [a, b, a], [b, a, b]]) == 0
    assert len(calls) == 3


_TOP = 2 ** 28  # exponents of a packed key lie in [-_TOP, _TOP)


def _ref_terms(p):
    return dict(p.terms())


def _ref_sum_of_products(pairs):
    """The sum of f*g over pairs of {Monomial: coefficient} dicts, multiplied term by term."""
    out = {}
    for f, g in pairs:
        for ma, ca in f.items():
            for mb, cb in g.items():
                m = ma * mb
                out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _scanned_minors(rows):
    """The determinant expanded along its rows over {Monomial: coefficient}
    dicts, one minor per column set, every minor scanned: ExponentOverflow
    as soon as one leaves the range."""
    level = {1 << j: _ref_terms(p) for j, p in enumerate(rows[0]) if p}
    for r, row in enumerate(rows[1:], start=1):
        pairs = {}
        for t, minor in level.items():
            for j, p in enumerate(row):
                if p and not t >> j & 1:
                    sign = -1 if bin(t >> j).count("1") % 2 else 1
                    pairs.setdefault(t | 1 << j, []).append((_ref_terms(sign * p), minor))
        level = {s: d for s, terms in pairs.items() if (d := _ref_sum_of_products(terms))}
        if any(not -_TOP <= e < _TOP for d in level.values() for m in d for _, e in m.exps):
            raise ExponentOverflow("a minor left the range")
    return level.popitem()[1] if level else {}


def test_minors_near_the_range_ends_match_an_expansion_that_scans_every_minor():
    # a matrix whose rows' spans add up to less than 2**28 is expanded
    # unscanned; any other must fail exactly where an expansion that scans
    # every minor fails, and otherwise agree with it
    rng = random.Random(30029)
    variables = [x(1), x(2), y(3)]
    ends = (0, 1, -1, _TOP // 4, -_TOP // 4 - 1, _TOP // 2 - 1, -_TOP // 2, _TOP - 1, -_TOP)

    def entry():
        if rng.random() < 0.25:
            return Polynomial.zero()
        terms = {}
        for _ in range(rng.randint(1, 2)):
            mono = Monomial.of({v: rng.choice(ends) for v in rng.sample(variables, rng.randint(1, 2))})
            terms[mono] = terms.get(mono, 0) + rng.choice((-1, 1, 2))
        return Polynomial(terms)

    seen = {"fits": 0, "overflow": 0}
    for _ in range(200):
        size = rng.randint(2, 4)
        rows = [[entry() for _ in range(size)] for _ in range(size)]
        try:
            want = _scanned_minors(rows)
        except ExponentOverflow:
            with pytest.raises(ExponentOverflow):
                laplacian.determinant(PolyMatrix(rows))
            seen["overflow"] += 1
            continue
        assert _ref_terms(laplacian.determinant(PolyMatrix(rows))) == want
        seen["fits"] += 1
    assert min(seen.values()) >= 30, seen
    # two rows of span 2**27 each: exactly 2**28 in all, so the minors are scanned
    half = Polynomial.variable(x(1), _TOP // 2)
    with pytest.raises(ExponentOverflow):
        laplacian.determinant(PolyMatrix([[half, P("x2")], [P("x2"), half]]))
    low = Polynomial.variable(x(1), -_TOP // 2)
    assert laplacian.determinant(PolyMatrix([[half, P("x2")], [P("x2"), low]])) == 1 - P("x2^2")


def test_minors_under_the_range_budget_are_never_scanned(monkeypatch):
    # a minor takes one entry per row, so rows whose spans add up to less
    # than 2**28 bound every minor: the expansion scans none
    from treefactor import polyring

    g = hypercube(3)
    rows = reduce_matrix(weighted_laplacian(g, WeightScheme.CUBE_LAURENT), 0, 0)[0].rows
    small = [[P("x1 + y3"), P(f"x2^{_TOP // 8}"), 0], [P("x1^-1"), 0, P("x2 - 1")], [P("y3"), 1, P("x1*x2")]]
    want = laplacian._minors_det(rows), laplacian.determinant(PolyMatrix(small))

    def forbidden(*args):
        raise AssertionError("a minor under the range budget was scanned")

    monkeypatch.setattr(polyring._Layout, "check_range", forbidden)
    assert (laplacian._minors_det(rows), laplacian.determinant(PolyMatrix(small))) == want


def test_minor_walk_stops_at_its_budget_without_polynomials(monkeypatch):
    # the plan's walk reads only which entries are zero and stops on the
    # first count past its budget: on directions (4,4), 97,759 products in
    # all, at the narrowed image's price; on K40, whose image is past the
    # cap, at 2**20 / 39 products, and the determinant is refused
    from treefactor import polyring

    def no_polynomials(*args):
        raise AssertionError("a polynomial was built")

    def reduced(g, scheme):
        lap = weighted_laplacian(g, scheme)
        return lap, reduce_matrix(lap, g.n - 1, g.n - 1)[0].rows

    g = _product((4, 4))
    lap, rows = reduced(g, WeightScheme.DIRECTION)
    assert list(laplacian._minor_products(rows))[-1] == 97759
    _, k40 = reduced(complete_graph(40), WeightScheme.CAYLEY_PRUFER)
    counts = []
    walk = laplacian._minor_products
    monkeypatch.setattr(laplacian, "_minor_products", lambda rows: (counts.append(c) or c for c in walk(rows)))
    for module, name in ((polyring, "_new"), (laplacian, "_new"), (laplacian, "_dot")):
        monkeypatch.setattr(module, name, no_polynomials)

    plan = laplacian._plan(rows, lambda: laplacian._tree_box(g, lap))
    assert plan.func is laplacian._kronecker_det
    price = laplacian._image_price(15, plan.args[0].bits)
    assert counts == [45, 282, 1212] and 282 <= price < 1212
    counts.clear()
    with pytest.raises(CapExceeded):
        laplacian._plan(k40)
    assert counts[-2] <= (1 << 20) // 39 < counts[-1]
    # zero entries add no products: a diagonal pattern has one per row
    assert list(walk([[int(i == j) for j in range(39)] for i in range(39)])) == list(range(1, 39))
