"""Exercises the polynomial substrate: canonical form, arithmetic, exact
division with Laurent shifts, substitution, rendering, and serialization."""

import pickle
import random

import pytest

from treefactor.polyring import (
    DivisionByZero,
    ExponentOverflow,
    Monomial,
    NonInvertibleSubstitution,
    NotDivisible,
    Polynomial,
    Variable,
    _dot,
    _new,
    div_exact,
    evar,
    poly_product,
    poly_sum,
    q,
    share_layout,
    x,
    xd,
    y,
)


def P(text):
    return Polynomial.parse(text)


def test_variable_order_family_then_indices():
    ordered = [q(1), q(2), x(1), x(3), y(2), xd(1, 2), xd(2, 1), evar(1, 2)]
    assert ordered == sorted(ordered)


def test_edge_variable_symmetric():
    assert evar(4, 7) is not None
    assert evar(7, 4) == evar(4, 7)
    assert evar(4, 7).render() == "e(4,7)"
    with pytest.raises(ValueError):
        evar(3, 3)


def test_monomial_canonical_drops_zero_exponents():
    m = Monomial.of({x(1): 2, x(2): 0})
    assert m.as_dict() == {x(1): 2}
    assert Monomial.of({}).is_one


def test_add_inverse_gives_zero():
    p = Polynomial.variable(x(1))
    assert (p + (-p)).is_zero


def test_integer_minus_polynomial():
    assert (1 - P("x1")).render() == "-x1 + 1"


def test_add_collects_like_terms():
    total = P("x1 + x2") + P("x2")
    assert total == P("x1 + 2*x2")


def test_laurent_cancellation():
    assert Polynomial.variable(x(1), -1) * Polynomial.variable(x(1)) == Polynomial.one()


def test_difference_of_squares():
    assert P("x1 + x2") * P("x1 - x2") == P("x1^2 - x2^2")


def test_square_of_trinomial_matches_repeated_addition():
    s = P("x1 + x2 + x3")
    # oracle: repeated addition, no multiplication involved
    expected = Polynomial.zero()
    vars3 = [x(1), x(2), x(3)]
    for a in vars3:
        for b in vars3:
            expected = expected + Polynomial.monomial(Monomial.of({a: 1}) * Monomial.of({b: 1}))
    sq = s * s
    assert sq == expected
    assert sq.n_terms == 6
    assert sorted(c for _, c in sq.terms()) == [1, 1, 1, 2, 2, 2]


def test_div_exact_known_factorization():
    assert div_exact(P("x1^2 - x2^2"), P("x1 + x2")) == P("x1 - x2")


def test_div_exact_laurent_shift():
    pal = P("x1^-1 + x1")
    assert div_exact(Polynomial.variable(q(1)) * pal, pal) == P("q1")


def test_div_exact_monomial_divisors_are_units():
    # monomials are invertible in the Laurent ring, so this succeeds
    assert div_exact(P("x1 + x2"), P("x1")) == P("1 + x1^-1*x2")
    assert div_exact(Polynomial.one(), P("x1")) == P("x1^-1")


def test_div_exact_remainder_refuses():
    # the witness is the stuck term: its monomial and its coefficient
    with pytest.raises(NotDivisible, match=r"^remainder term x2 is not reducible$") as err:
        div_exact(P("x1 + x2"), P("x1 + 1"))
    assert err.value.witness == (Monomial.of({x(2): 1}), 1)
    with pytest.raises(NotDivisible, match=r"^remainder term 2\*x2\^2 is not reducible$") as err:
        div_exact(P("x1^2 + x2^2"), P("x1 + x2"))
    assert err.value.witness == (Monomial.of({x(2): 2}), 2)


def test_div_by_zero():
    with pytest.raises(DivisionByZero):
        div_exact(P("x1"), Polynomial.zero())


def test_substitute_edge_to_endpoint_product():
    p = Polynomial.variable(evar(1, 2))
    assert p.substitute({evar(1, 2): P("x1*x2")}) == P("x1*x2")


def test_substitute_identity_on_laurent():
    p = P("x1^-1 + x1")
    assert p.substitute({x(1): x(1)}) == p


def test_substitute_all_ones():
    p = P("q1*x1^2")
    assert p.substitute({x(1): 1, q(1): 1}) == Polynomial.one()


def test_substitute_negative_exponent_needs_invertible_image():
    p = P("x1^-1")
    with pytest.raises(NonInvertibleSubstitution):
        p.substitute({x(1): P("x1 + x2")})
    assert p.substitute({x(1): Monomial.of({x(2): 1})}) == P("x2^-1")


def test_is_nonneg_and_witness():
    ok, wit = P("x1 + 2*x2").is_nonneg()
    assert ok and wit is None
    ok, (mono, coeff) = P("x1 - x2").is_nonneg()
    assert not ok
    assert mono == Monomial.of({x(2): 1})
    assert coeff == -1
    # the witness is the first negative term in descending graded-lex order
    assert P("x1^4 - 2*x1^-1*x2^3 + x2^2 - 5*x1 - 1").is_nonneg() == (False, (Monomial.of({x(1): -1, x(2): 3}), -2))


def test_render_canonical_example():
    p = Polynomial.monomial(Monomial.of({q(1): 1, q(2): 2, xd(1, 2): -1}), 2)
    assert p.render() == "2*q1*q2^2*x(1,2)^-1"


def test_render_zero_and_signs():
    assert Polynomial.zero().render() == "0"
    assert P("-x1 + x2").render() == "x2 - x1" or P("-x1 + x2").render() == "-x1 + x2"
    # leading sign attaches to the first term, interior joins use " - "
    text = (P("x1^2") - P("3*x2")).render()
    assert text == "x1^2 - 3*x2"
    assert repr(P("x1^2 - 3*x2")) == "Polynomial(x1^2 - 3*x2)"


def test_render_descending_graded_lex():
    p = P("x2 + x1 + x1*x2")
    assert p.render() == "x1*x2 + x1 + x2"


def test_parse_render_roundtrip_exact_text():
    for text in [
        "x1^2*x2 + x1*x2^2",
        "2*q1*q2^2*x(1,2)^-1",
        "q1^2*q2*x1 + q1*q2^2*x2 + q1^2*q2*x1^-1 + q1*q2^2*x2^-1",
        "e(1,2)*e(1,3) + e(1,2)*e(2,3) + e(1,3)*e(2,3)",
        "0",
        "-5",
        "y3^4 - 7",
    ]:
        assert Polynomial.parse(text).render() == text


def test_json_roundtrip_shape():
    p = P("2*q1*q2^2*x(1,2)^-1 + x1")
    obj = p.to_json_obj()
    assert isinstance(obj, list)
    assert all(set(t) == {"coeff", "exps"} for t in obj)
    assert all(isinstance(t["coeff"], str) for t in obj)
    assert Polynomial.from_json(p.to_json()) == p


VARS = [q(1), q(2), x(1), x(2), y(3), xd(1, 2), evar(2, 5)]


def rand_poly(rng, max_terms=5, max_exp=3, laurent=True):
    p = Polynomial.zero()
    for _ in range(rng.randrange(0, max_terms + 1)):
        exps = {}
        for v in rng.sample(VARS, rng.randrange(0, 4)):
            lo = -max_exp if laurent else 0
            e = rng.randrange(lo, max_exp + 1)
            if e:
                exps[v] = e
        coeff = rng.randrange(-9, 10)
        if coeff:
            p = p + Polynomial.monomial(Monomial.of(exps), coeff)
    return p


def test_ring_axioms_random():
    rng = random.Random(90053)
    for _ in range(1000):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Polynomial.zero() == a
        assert a * Polynomial.one() == a
        assert (a - a).is_zero
        assert a * -1 == -a


def test_division_roundtrip_random():
    rng = random.Random(90054)
    checked = 0
    for _ in range(1000):
        p = rand_poly(rng)
        d = rand_poly(rng)
        if d.is_zero:
            continue
        assert div_exact(p * d, d) == p
        checked += 1
    assert checked > 700


def test_division_detects_nonunit_remainder_random():
    rng = random.Random(90055)
    for _ in range(300):
        p = rand_poly(rng)
        d = rand_poly(rng)
        if d.n_terms < 2:
            continue
        # p*d + 1 = c*d would force d to be a unit, impossible for 2+ terms
        with pytest.raises(NotDivisible):
            div_exact(p * d + 1, d)


def test_laurent_shift_soundness_random():
    rng = random.Random(90056)
    for _ in range(300):
        p = rand_poly(rng)
        d = rand_poly(rng)
        if d.is_zero:
            continue
        n = p * d
        shift = Polynomial.monomial(Monomial.of({x(1): -2, y(3): 1}))
        assert div_exact(shift * n, shift * d) == div_exact(n, d)


def test_serialization_roundtrip_random():
    rng = random.Random(90057)
    for _ in range(300):
        p = rand_poly(rng)
        assert Polynomial.parse(p.render()) == p
        assert Polynomial.from_json(p.to_json()) == p
        # canonical text itself is stable under reparse
        assert Polynomial.parse(p.render()).render() == p.render()


def test_pickle_roundtrip():
    p = P("2*q1*q2^2*x(1,2)^-1 + x1 - 7")
    back = pickle.loads(pickle.dumps(p))
    assert back == p and back.render() == p.render()
    assert back + P("x1") == p + P("x1")


def test_power_matches_repeated_multiplication():
    rng = random.Random(90058)
    for _ in range(100):
        p = rand_poly(rng, max_terms=3, max_exp=2)
        acc = Polynomial.one()
        for k in range(5):
            assert p ** k == acc
            acc = acc * p


def test_negative_power_only_for_unit_monomials():
    m = Polynomial.monomial(Monomial.of({x(1): 2}), -1)
    assert m ** -2 == Polynomial.monomial(Monomial.of({x(1): -4}))
    with pytest.raises(ValueError):
        P("x1 + x2") ** -1


def test_poly_sum_and_product_helpers():
    assert poly_sum([]) == Polynomial.zero()
    assert poly_product([]) == Polynomial.one()
    parts = [P("x1"), P("x2"), P("x1 - x2")]
    assert poly_sum(parts) == P("2*x1")
    assert poly_product(parts) == P("x1^2*x2 - x1*x2^2")


def _reference_terms(p):
    """{Monomial: coefficient} of a polynomial or an int, read through terms()."""
    if isinstance(p, int):
        return {Monomial(): p} if p else {}
    return dict(p.terms())


def _reference_product(f, g):
    """Two {Monomial: coefficient} dicts multiplied term by term with Monomial.__mul__."""
    out = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            m = ma * mb
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _reference_sum(dicts):
    out = {}
    for d in dicts:
        for m, c in d.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def test_product_kernel_against_monomial_reference():
    # each operand holds its own random subset of variables, so operands
    # meet on different layouts; one-term operands take __mul__'s key shift
    rng = random.Random(90059)
    for _ in range(300):
        items = [rand_poly(rng, max_terms=rng.choice((1, 1, 3, 6))) for _ in range(rng.randrange(0, 5))]
        items += [rng.randrange(-3, 4) for _ in range(rng.randrange(0, 2))]
        rng.shuffle(items)
        if items and rng.random() < 0.3:  # a sum that cancels to 0
            items += [-p for p in items]
        refs = [_reference_terms(p) for p in items]
        polys = [p for p in items if isinstance(p, Polynomial)]
        for a, b in zip(polys, polys[1:]):
            assert _reference_terms(a * b) == _reference_product(_reference_terms(a), _reference_terms(b))
        assert _reference_terms(poly_sum(items)) == _reference_sum(refs)
        product = {Monomial(): 1}
        for ref in refs:
            product = _reference_product(product, ref)
        assert _reference_terms(poly_product(items)) == product
        # a sum of products: consecutive items paired, on one layout
        zero, *shared = share_layout([0, *items])
        pairs = list(zip(shared[::2], shared[1::2]))
        got = _new(zero._lay, _dot(zero._lay, ((a._terms, b._terms) for a, b in pairs)))
        want = _reference_sum(_reference_product(_reference_terms(a), _reference_terms(b)) for a, b in pairs)
        assert _reference_terms(got) == want
    assert poly_sum([]) == 0 and poly_product([]) == 1
    lay = P("x1")._lay
    assert _dot(lay, []) == {}
    # pairs that cancel to 0 leave no zero coefficient behind
    a, b = share_layout([P("x1 - x1^-1"), P("2*x1 + 3")])
    assert _dot(a._lay, [(a._terms, b._terms), ((-a)._terms, b._terms)]) == {}


def test_share_layout_passes_polynomials_on_one_layout_through(monkeypatch):
    import treefactor.polyring as polyring

    items = share_layout([P("x1 + y2"), P("q1*x1^-1"), 3])
    assert len({p._lay for p in items}) == 1 and items[2] == 3

    def no_coerce(val):
        raise AssertionError("an operand was coerced")

    monkeypatch.setattr(polyring, "_coerce_poly", no_coerce)
    shared = share_layout(items)
    assert len(shared) == 3 and all(a is b for a, b in zip(shared, items))


def test_one_term_operand_shifts_keys_without_the_kernel(monkeypatch):
    import treefactor.polyring as polyring

    def no_kernel(*args):
        raise AssertionError("the sum-of-products kernel ran")

    monkeypatch.setattr(polyring, "_dot", no_kernel)
    one, many = P("-3*x1^-1*y3"), P("x1 + 2*x2 - q1")
    assert one * many == many * one == P("-3*y3 - 6*x1^-1*x2*y3 + 3*q1*x1^-1*y3")
    assert (one * one).render() == "9*x1^-2*y3^2"


def test_sums_run_neither_the_product_kernel_nor_a_range_check(monkeypatch):
    # a sum's keys are its items' keys, which are in range already
    import treefactor.polyring as polyring

    def forbidden(*args):
        raise AssertionError("a sum multiplied or checked the range")

    monkeypatch.setattr(polyring, "_dot", forbidden)
    monkeypatch.setattr(polyring._Layout, "check_range", forbidden)
    a, b = P("x1 - 2*y3"), P("2*y3 + q1")
    assert poly_sum([a, b, 3]) == a + b + 3 == 3 + b + a == P("q1 + x1 + 3")
    assert a - b == -(b - a) == P("x1 - 4*y3 - q1")
    assert 1 - a == P("1 - x1 + 2*y3") and a - 1 == -(1 - a)
    assert (a - a).is_zero and poly_sum([]).is_zero


def test_sums_take_only_ints_and_polynomials():
    p = P("x1 + 1")
    for bad in (lambda: p + "x", lambda: "x" + p, lambda: p - object(), lambda: object() - p,
                lambda: p + x(1), lambda: x(1) - p):
        with pytest.raises(TypeError):
            bad()


def test_min_exponents_and_coefficient():
    p = P("x1^-2*x2 + x1*x2^3")
    assert p.min_exponents() == {x(1): -2, x(2): 1}
    assert p.coefficient(Monomial.of({x(1): 1, x(2): 3})) == 1
    assert p.coefficient(Monomial.of({x(1): 5})) == 0
    # x3 is outside p's layout
    assert p.coefficient(Monomial.of({x(1): 1, x(3): 1})) == 0


def test_equality_with_an_int():
    assert Polynomial.integer(3) == 3 and not Polynomial.integer(3) != 3
    assert Polynomial.zero() == 0 and Polynomial.integer(-2) != 2
    assert P("x1") != 1 and not P("x1") == 0
    assert Polynomial.one() != 0 and not Polynomial.zero() == 1


def test_variable_to_the_zero_is_one():
    assert Polynomial.variable(x(1), 0) == Polynomial.one()


def test_as_int_only_for_constants():
    assert Polynomial.integer(-12).as_int() == -12
    assert Polynomial.zero().as_int() == 0
    with pytest.raises(ValueError):
        P("x1").as_int()


def test_exponent_overflow_at_the_limb_boundary():
    top = 2 ** 28  # exponents of a packed key lie in [-top, top)
    assert Polynomial.variable(x(1), top - 1).render() == f"x1^{top - 1}"
    assert Polynomial.variable(x(1), -top).render() == f"x1^{-top}"
    for e in (top, -top - 1):
        with pytest.raises(ExponentOverflow):
            Polynomial.variable(x(1), e)
        with pytest.raises(ExponentOverflow):
            P(f"x2 + x1^{e}")
    half = Polynomial.variable(x(1), top // 2)
    assert (half * Polynomial.variable(x(1), top // 2 - 1)).render() == f"x1^{top - 1}"
    with pytest.raises(ExponentOverflow):
        half * half
    with pytest.raises(ExponentOverflow):
        P(f"x1^{top // 2} + x2") * P(f"x1^{top // 2} + x2")
    with pytest.raises(ExponentOverflow):
        half ** 2
    with pytest.raises(ExponentOverflow):
        Polynomial.variable(x(1), -top) ** -1
    # powers that wrap whole 32-bit digits of the key
    with pytest.raises(ExponentOverflow):
        Polynomial.variable(x(1)) ** 2 ** 32
    with pytest.raises(ExponentOverflow):
        Polynomial.variable(x(1), 16) ** top
    with pytest.raises(ExponentOverflow):
        P("x1*x2^-1") ** -(2 ** 32)
    assert (P("-x1*x2^-1") ** -(top - 1)).render() == f"-x1^{1 - top}*x2^{top - 1}"
    with pytest.raises(ExponentOverflow):
        div_exact(Polynomial.variable(x(1), -top), half)
    # the error is an arithmetic error, not an assertion
    assert issubclass(ExponentOverflow, ArithmeticError)
    assert not issubclass(ExponentOverflow, AssertionError)
