"""Weight schemes, Laplacian structure, and exact determinants."""

import itertools
import random

import pytest

from treefactor import (
    Edge,
    IndexOutOfRange,
    PolyMatrix,
    Polynomial,
    SchemeMismatch,
    WeightScheme,
    cartesian_product,
    complete_graph,
    determinant,
    edge_weight,
    hypercube,
    multigraph_kn,
    q,
    reduce_matrix,
    threshold_graph,
    tree_enumerator_det,
    weighted_laplacian,
    x,
)

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
        assert determinant(m, method="cofactor") == expected
        assert determinant(m, method="bareiss") == expected


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
        assert determinant(m, method="bareiss") == determinant(m, method="cofactor")


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
        assert determinant(minor, method="bareiss") == determinant(minor, method="cofactor")


def test_full_laplacian_is_singular():
    for g, scheme in [
        (complete_graph(4), WeightScheme.GENERIC),
        (hypercube(2), WeightScheme.CUBE_LAURENT),
        (cartesian_product([complete_graph(3), complete_graph(3)]), WeightScheme.DIRECTION),
    ]:
        lap = weighted_laplacian(g, scheme)
        assert determinant(lap, method="bareiss").is_zero


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


def test_enumerator_edge_cases():
    assert tree_enumerator_det(complete_graph(1), WeightScheme.GENERIC) == Polynomial.one()
    assert tree_enumerator_det(threshold_graph((1, 1, 0)), WeightScheme.THRESHOLD_IN_OUT).is_zero


def test_enumerator_counts_at_unit_weights():
    # specialize every variable to 1 by counting terms with coefficients
    g = complete_graph(4)
    enum = tree_enumerator_det(g, WeightScheme.CAYLEY_PRUFER)
    ones = {v: Polynomial.one() for v in enum.variables()}
    assert enum.substitute(ones).as_int() == 16


def test_bareiss_divides_exactly_over_laurent_entries():
    # negative exponents go straight into the elimination; every interior
    # division must still be exact in the Laurent ring
    rng = random.Random(52033)
    vars_ = [q(1), x(1), x(2)]
    for n in (5, 6):
        for _ in range(4):
            m = PolyMatrix([[_rand_poly(rng, vars_) for _ in range(n)] for _ in range(n)])
            assert determinant(m, method="bareiss") == determinant(m, method="cofactor")
