"""Closed-form product formulas against the enumeration and determinant routes."""

import hashlib
import warnings
from math import prod

import pytest

from treefactor import (
    Disconnected,
    FormMismatch,
    NotDivisibleCount,
    NotThresholdSequence,
    Partition,
    Polynomial,
    Spectrum,
    TreeStatistic,
    WeightScheme,
    cartesian_product,
    cayley_prufer_rhs,
    complete_graph,
    coordinate_sum,
    count_from_spectrum,
    cube_rhs,
    cube_subset_factor,
    decoupled_enumerator_factors,
    directions_rhs,
    enumerate_sum,
    hypercube,
    merris_count,
    poly_product,
    product_spectrum,
    q,
    spanning_tree_count,
    threshold_degree_rhs,
    threshold_f_factor,
    threshold_g_factor,
    threshold_graph,
    threshold_rewrite_rhs,
    threshold_rhs,
    tree_enumerator_det,
    x,
    xd,
    y,
)
from treefactor.formulas import InvalidSize
from treefactor.polyring import div_exact


P = Polynomial.parse


def test_cayley_prufer_small():
    assert cayley_prufer_rhs(2) == P("x1*x2")
    assert cayley_prufer_rhs(3) == P("x1^2*x2*x3 + x1*x2^2*x3 + x1*x2*x3^2")
    with pytest.raises(InvalidSize):
        cayley_prufer_rhs(1)


def test_cayley_prufer_matches_other_routes():
    for n in (3, 4, 5):
        rhs = cayley_prufer_rhs(n)
        g = complete_graph(n)
        assert rhs == enumerate_sum(g, TreeStatistic.DEGREE)
        assert rhs == tree_enumerator_det(g, WeightScheme.CAYLEY_PRUFER)


def test_formula_stretch_sizes_count_their_trees():
    # the largest closed forms the benchmark leaves out: K10's 24,310-term
    # Cayley form, its one power raised by composition, against the same
    # power multiplied in sequentially, and Q5's direction form, whose
    # coefficients add up to its tree count
    xs = [Polynomial.variable(x(i)) for i in range(1, 11)]
    rhs = cayley_prufer_rhs(10)
    assert rhs.n_terms == 24310 and sum(c for _, c in rhs.terms()) == 10 ** 8
    assert rhs == poly_product(xs) * poly_product([sum(xs, Polynomial.zero())] * 8)
    q5 = directions_rhs((2, 2, 2, 2, 2))
    assert sum(c for _, c in q5.terms()) == spanning_tree_count(hypercube(5)) == 20776019874734407680


def test_directions_rhs_small():
    assert directions_rhs((3,)) == P("3*q1^2")
    assert directions_rhs((2, 2)) == P("2*q1^2*q2 + 2*q1*q2^2")


def test_directions_rhs_matches_enumeration():
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        g = cartesian_product([complete_graph(d) for d in dims])
        assert directions_rhs(dims) == enumerate_sum(g, TreeStatistic.DIRECTION)


def test_directions_rhs_strips_unit_factors():
    with pytest.warns(UserWarning):
        rhs = directions_rhs((2, 1, 3))
    # kept factors keep their original direction indices
    g = cartesian_product([complete_graph(2), complete_graph(1), complete_graph(3)])
    assert rhs == enumerate_sum(g, TreeStatistic.DIRECTION)
    with pytest.warns(UserWarning):
        assert directions_rhs((1, 1)) == Polynomial.one()


def test_size_errors_share_one_class():
    import treefactor

    for build, arg in [(cayley_prufer_rhs, 1), (cube_rhs, 0), (directions_rhs, ()), (product_spectrum, (0,))]:
        with pytest.raises(treefactor.InvalidSize):
            build(arg)


def test_directions_rhs_rejects_bad_dims():
    with pytest.raises(InvalidSize):
        directions_rhs(())
    with pytest.raises(InvalidSize):
        directions_rhs((2, 0))


# unit factors, one direction, and the direction products the benchmark checks
_SPECTRAL_DIMS = [(2,), (5,), (1, 2), (2, 1, 3), (1, 1),
                  (2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (4, 4), (2, 3, 3),
                  (2, 5), (3, 4), (5, 5), (3, 3, 3), (2, 2, 2, 2), (2, 2, 2, 2, 2)]


def test_direction_forms_digest():
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for dims in _SPECTRAL_DIMS:
            rhs = directions_rhs(dims)
            digest.update(f"{dims}\n{rhs.render()}\n{rhs.to_json()}\n".encode())
            for base, e in decoupled_enumerator_factors(dims):
                digest.update(f"{base.render()}\t{base.to_json()}\t{e}\n".encode())
    assert digest.hexdigest() == "c7e2cd996ffe1a3c0bae7bc7ae5b18b8719db46a8679dc3ac2ddf370d15d91af"


def test_directions_self_check_compares_against_the_spectrum(monkeypatch):
    import treefactor.formulas as formulas

    spectrum = formulas.product_spectrum

    def doubled_first_direction(dims, qs=None):
        # the pair at position 1 is direction set {1}
        pairs = list(spectrum(dims, qs))
        pairs[1] = (pairs[1][0] * 2, pairs[1][1])
        return Spectrum(pairs)

    monkeypatch.setattr(formulas, "product_spectrum", doubled_first_direction)
    for dims in [(2, 3), (3, 3), (2, 2, 2)]:
        with pytest.raises(FormMismatch):
            directions_rhs(dims)


def test_directions_spectrum_leaves_out_unit_factors(monkeypatch):
    import treefactor.formulas as formulas

    sizes = []
    spectrum = formulas.product_spectrum
    monkeypatch.setattr(formulas, "product_spectrum",
                        lambda dims, qs=None: sizes.append(tuple(dims)) or spectrum(dims, qs))
    with pytest.warns(UserWarning):
        assert directions_rhs((1,) * 6 + (3,)) == P("3*q7^2")
    assert sizes == [(3,)]


def test_product_spectrum_subset_order():
    spec = product_spectrum((2, 3))
    assert len(spec) == 4
    pairs = list(spec)
    assert pairs[0] == (Polynomial.zero(), 1)
    assert pairs[1] == (P("2*q1"), 1)
    assert pairs[2] == (P("3*q2"), 2)
    assert pairs[3] == (P("2*q1 + 3*q2"), 2)
    assert spec.total_multiplicity() == 6


def test_count_from_spectrum_numeric_and_symbolic():
    spec = product_spectrum((2, 3), qs=[1, 1])
    assert count_from_spectrum(spec, 6).as_int() == 75
    assert count_from_spectrum(spec, 6).as_int() == spanning_tree_count(
        cartesian_product([complete_graph(2), complete_graph(3)])
    )
    assert count_from_spectrum(product_spectrum((2, 2)), 4) == directions_rhs((2, 2))


def test_count_from_spectrum_requires_simple_kernel():
    bad = Spectrum([(Polynomial.zero(), 2), (P("q1"), 1)])
    with pytest.raises(NotDivisibleCount):
        count_from_spectrum(bad, 2)


def test_decoupled_factor_list():
    factors = decoupled_enumerator_factors((2, 2))
    rendered = sorted((base.render(), e) for base, e in factors)
    assert rendered == [
        ("q1", 1),
        ("q2", 1),
        ("x(1,1)", 2),
        ("x(1,2)", 2),
        ("x(2,1)", 2),
        ("x(2,2)", 2),
    ]


def test_decoupled_factors_complete_for_single_direction():
    # one direction: the factor list is the whole enumerator
    g = cartesian_product([complete_graph(3)])
    enum = tree_enumerator_det(g, WeightScheme.DECOUPLED)
    prod = Polynomial.one()
    for base, e in decoupled_enumerator_factors((3,)):
        prod = prod * base ** e
    assert prod == enum


def test_decoupled_factors_divide_enumerator():
    # several directions: the factors divide; the quotient is the part the
    # non-negativity scan examines
    for dims in [(2, 2), (2, 3)]:
        g = cartesian_product([complete_graph(d) for d in dims])
        enum = tree_enumerator_det(g, WeightScheme.DECOUPLED)
        prod = Polynomial.one()
        for base, e in decoupled_enumerator_factors(dims):
            prod = prod * base ** e
        quotient = div_exact(enum, prod)
        assert prod * quotient == enum, dims
        assert not quotient.is_zero


def test_decoupled_factors_list_size_one_directions():
    # every vertex carries x(i,1) of a size-1 direction, so each tree has it
    # to the 2(N - 1); the rest of the enumerator is that of the product
    # without the direction, renamed onto the kept directions
    for dims, rest in [((1, 3), (3,)), ((2, 1, 2), (2, 2))]:
        with pytest.warns(UserWarning, match="size-1 factors"):
            factors = decoupled_enumerator_factors(dims)
        for i in (i for i, d in enumerate(dims, start=1) if d == 1):
            assert (Polynomial.variable(xd(i, 1)), 2 * (prod(dims) - 1)) in factors, dims
        kept = [i for i, d in enumerate(dims, start=1) if d > 1]
        rename = {q(k): q(i) for k, i in enumerate(kept, start=1)}
        rename.update({xd(k, j): xd(i, j) for k, i in enumerate(kept, start=1) for j in range(1, dims[i - 1] + 1)})
        rest_enum = tree_enumerator_det(cartesian_product([complete_graph(d) for d in rest]), WeightScheme.DECOUPLED)
        quotient = div_exact(rest_enum, poly_product(b ** e for b, e in decoupled_enumerator_factors(rest)))
        enum = tree_enumerator_det(cartesian_product([complete_graph(d) for d in dims]), WeightScheme.DECOUPLED)
        assert poly_product(b ** e for b, e in factors) * quotient.substitute(rename) == enum, dims


def test_coordinate_sum():
    assert coordinate_sum(2, 3) == P("x(2,1) + x(2,2) + x(2,3)")
    # listed at multiplicity 0, which decoupled_enumerator_factors omits
    assert coordinate_sum(1, 2) == P("x(1,1) + x(1,2)")
    for i, size in [(0, 3), (1, 1), (2, 0)]:
        with pytest.raises(InvalidSize):
            coordinate_sum(i, size)


def test_cube_subset_factor():
    assert cube_subset_factor([1, 3]) == P("q1*x1^-1 + q1*x1 + q3*x3^-1 + q3*x3")


def test_cube_rhs_small():
    assert cube_rhs(1) == P("q1")
    assert cube_rhs(2) == P("q1*q2") * cube_subset_factor([1, 2])
    with pytest.raises(InvalidSize):
        cube_rhs(0)


def test_cube_rhs_matches_enumeration():
    for n in (1, 2, 3):
        g = hypercube(n)
        assert cube_rhs(n) == enumerate_sum(g, TreeStatistic.CUBE_SUBSTITUTED), n


def test_merris_counts():
    assert merris_count((2, 2, 2)) == 3
    assert merris_count((3, 1, 1, 1)) == 1
    assert merris_count((3, 3, 2, 2)) == 8
    assert merris_count((4, 3, 2, 2, 1)) == 8
    assert merris_count((1, 1)) == 1


def test_merris_rejects_bad_input():
    with pytest.raises(Disconnected):
        merris_count((1, 1, 0))
    with pytest.raises(NotThresholdSequence):
        merris_count((2, 2, 1, 1))


def test_disconnected_is_one_class():
    from treefactor import DisconnectedGraph

    g = threshold_graph((1, 1, 0))
    for call in (lambda: enumerate_sum(g, TreeStatistic.IN_OUT_DEGREE), lambda: threshold_rhs((1, 1, 0))):
        for name in (Disconnected, DisconnectedGraph):
            with pytest.raises(name):
                call()


def test_helpers_name_out_of_range_arguments():
    lam = Partition((2, 2, 2))
    for factor, r in [(threshold_f_factor, 4), (threshold_f_factor, 0),
                      (threshold_g_factor, -1), (threshold_g_factor, 1), (threshold_g_factor, 4)]:
        with pytest.raises(ValueError, match=f"row r = {r} "):
            factor(lam, r)
    for qs in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="qs has"):
            product_spectrum((2, 3), qs=qs)
    # a raw partition whose parts pass n - 1 keeps its whole sum
    assert threshold_g_factor(Partition((5, 5, 5)), 2) == P("x1 + x2 + x3 + x4 + x5")


def test_threshold_rhs_star():
    assert threshold_rhs((3, 1, 1, 1)) == P("x1^3*y2*y3*y4")
    assert threshold_rhs((1, 1)) == P("x1*y2")


def test_threshold_rhs_matches_enumeration():
    for lam in [(2, 2, 2), (3, 1, 1, 1), (3, 3, 2, 2), (4, 3, 2, 2, 1)]:
        g = threshold_graph(lam)
        assert threshold_rhs(lam) == enumerate_sum(g, TreeStatistic.IN_OUT_DEGREE), lam
        assert threshold_rhs(lam) == tree_enumerator_det(g, WeightScheme.THRESHOLD_IN_OUT), lam


def test_threshold_forms_on_one_vertex_are_one():
    # the single vertex has one spanning tree, the empty one, of weight 1
    g = threshold_graph((0,))
    assert enumerate_sum(g, TreeStatistic.IN_OUT_DEGREE) == Polynomial.one()
    assert tree_enumerator_det(g, WeightScheme.THRESHOLD_IN_OUT) == Polynomial.one()
    assert threshold_rhs((0,)) == Polynomial.one()
    assert threshold_degree_rhs((0,)) == Polynomial.one()
    assert threshold_rewrite_rhs((0,)) == Polynomial.one()


def test_threshold_degree_rhs_is_y_to_x_specialization():
    for lam in [(2, 2, 2), (3, 3, 2, 2), (4, 3, 2, 2, 1)]:
        n = len(lam)
        sub = {y(i): Polynomial.variable(x(i)) for i in range(1, n + 1)}
        assert threshold_rhs(lam).substitute(sub) == threshold_degree_rhs(lam), lam
        g = threshold_graph(lam)
        assert threshold_degree_rhs(lam) == enumerate_sum(g, TreeStatistic.DEGREE), lam


def test_threshold_factor_pieces():
    lam = Partition((2, 2, 2))
    assert threshold_f_factor(lam, 2) == P("x1*y2 + x2*y2 + x2*y3")
    # past the staircase: x_r of the last vertex, an empty tail
    assert threshold_f_factor(lam, 3) == P("x1*y3 + x2*y3 + x3*y3")
    with pytest.raises(ValueError):
        threshold_f_factor(lam, 1)  # row 1 is struck from the reduced Laplacian
    assert threshold_g_factor(Partition((3, 1, 1, 1)), 2) == P("x1")
    assert threshold_g_factor(Partition((3, 1, 1, 1)), 4) == Polynomial.zero()


def test_threshold_rewrite_star():
    assert threshold_rewrite_rhs((3, 1, 1, 1)) == P("x1^3*y2*y3*y4")


def test_threshold_rewrite_names_a_direct_product_it_disagrees_with(monkeypatch):
    import treefactor.formulas as formulas

    monkeypatch.setattr(formulas, "threshold_rhs", lambda lam: Polynomial.one())
    with pytest.raises(FormMismatch, match="staircase rewrite disagrees with the direct product"):
        threshold_rewrite_rhs((3, 1, 1, 1))


def test_threshold_rewrite_agrees_everywhere():
    # the rewrite internally cross-checks against the direct product
    from treefactor import connected_threshold_sequences

    for n in range(2, 9):
        for lam in connected_threshold_sequences(n):
            assert threshold_rewrite_rhs(lam) == threshold_rhs(lam)


def test_threshold_rhs_all_ones_is_merris_count():
    for lam in [(2, 2, 2), (3, 3, 2, 2), (4, 3, 2, 2, 1)]:
        rhs = threshold_rhs(lam)
        ones = {v: Polynomial.one() for v in rhs.variables()}
        assert rhs.substitute(ones).as_int() == merris_count(lam), lam


def test_closed_forms_digest():
    from treefactor import connected_threshold_sequences

    digest = hashlib.sha256()

    def add(label, p):
        digest.update(f"{label}\n{p.render()}\n{p.to_json()}\n".encode())

    for n in range(2, 10):
        add(f"cayley {n}", cayley_prufer_rhs(n))
    for n in range(1, 4):
        add(f"cube {n}", cube_rhs(n))
    for n in range(1, 8):
        for lam in connected_threshold_sequences(n):
            add(f"threshold {lam.parts}", threshold_rhs(lam))
            add(f"degree {lam.parts}", threshold_degree_rhs(lam))
            add(f"rewrite {lam.parts}", threshold_rewrite_rhs(lam))
            for r in range(2, n + 1):
                add(f"f {lam.parts} {r}", threshold_f_factor(lam, r))
                add(f"g {lam.parts} {r}", threshold_g_factor(lam, r))
    assert digest.hexdigest() == "6a32b91d1b2203f4dca99ca6085867c4f3d15236d3327c6f1d7100c300e501bf"


def test_closed_forms_build_on_their_own_layouts(monkeypatch):
    # one warm call each: every operand of a closed form is keyed over the
    # form's one layout, so no product or sum rebuilds a term dict
    import treefactor.polyring as polyring
    from treefactor import connected_threshold_sequences

    rekey = polyring._rekey
    count = [0]

    def counted_rekey(terms, src, dst):
        out = rekey(terms, src, dst)
        count[0] += out is not terms
        return out

    def warm_rekeys(call):
        call()
        count[0] = 0
        with monkeypatch.context() as patched:
            patched.setattr(polyring, "_rekey", counted_rekey)
            call()
        return count[0]

    sevens = connected_threshold_sequences(7)
    assert warm_rekeys(lambda: [threshold_rhs(lam) for lam in sevens]) == 0
    assert warm_rekeys(lambda: cayley_prufer_rhs(9)) == 0
    assert warm_rekeys(lambda: directions_rhs((2, 3, 3))) == 0


def test_threshold_rhs_builds_its_rows_with_no_product(monkeypatch):
    # each row's monomials are key sums, so a warm direct product runs no `*`
    from treefactor import connected_threshold_sequences

    sevens = connected_threshold_sequences(7)
    assert len(sevens) == 32
    for lam in sevens:
        threshold_rhs(lam)
    mul = Polynomial.__mul__
    count = [0]

    def counted_mul(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    for lam in sevens:
        threshold_rhs(lam)
    assert count[0] == 0
