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


def test_a_linear_power_from_a_start_key_is_the_power_shifted_by_it():
    # `_linear_power(terms, k, start)` is start times the power: term for
    # term and in order, the power's keys each shifted by start, also for a
    # start with negative (Laurent) exponents
    from treefactor.polyring import _layout_of, _linear_power

    rng = random.Random(35012)
    lay = _layout_of([q(1), q(2), x(1), x(2), x(3), y(2), y(4), xd(1, 2), evar(1, 3)])
    laurent = 0
    for _ in range(40):
        terms = {u: rng.choice((-3, -2, -1, 1, 2, 3)) for u in rng.sample(lay.unit, rng.randint(2, 6))}
        exps = [rng.randint(-3, 3) for _ in lay.vars]
        laurent += min(exps) < 0
        start = lay.key(zip(lay.vars, exps))
        for k in range(7):
            power = _linear_power(terms, k)
            assert list(_linear_power(terms, k, start).items()) == [(key + start, c) for key, c in power.items()]
    assert laurent >= 30


def test_negative_power_only_for_unit_monomials():
    m = Polynomial.monomial(Monomial.of({x(1): 2}), -1)
    assert m ** -2 == Polynomial.monomial(Monomial.of({x(1): -4}))
    with pytest.raises(ValueError):
        P("x1 + x2") ** -1


def test_a_one_term_non_unit_or_zero_has_no_negative_power():
    for base in (P("2*x1"), P("-3"), Polynomial.zero()):
        with pytest.raises(ValueError, match="negative power of a non-unit polynomial"):
            base ** -1
    assert P("-x1^2") ** -3 == P("-x1^-6") and P("-1") ** -2 == 1


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
        got = _new(zero._lay, _dot(((a._terms, b._terms) for a, b in pairs)))
        want = _reference_sum(_reference_product(_reference_terms(a), _reference_terms(b)) for a, b in pairs)
        assert _reference_terms(got) == want
    assert poly_sum([]) == 0 and poly_product([]) == 1
    assert _dot([]) == {}
    # pairs that cancel to 0 leave no zero coefficient behind
    a, b = share_layout([P("x1 - x1^-1"), P("2*x1 + 3")])
    assert _dot([(a._terms, b._terms), ((-a)._terms, b._terms)]) == {}


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


_TOP = 2 ** 28  # exponents of a packed key lie in [-_TOP, _TOP)


def _scanned_fold(items):
    """The items' product over {Monomial: coefficient} dicts, every partial
    product scanned: ExponentOverflow as soon as one leaves the range."""
    product = {Monomial(): 1}
    for item in items:
        product = _reference_product(product, _reference_terms(item))
        if any(not -_TOP <= e < _TOP for m in product for _, e in m.exps):
            raise ExponentOverflow("a partial product left the range")
    return product


def _budget_poly(rng, variables):
    """1-3 terms whose exponents sit at 0, +-1 or near either end of the range, halved or whole."""
    ends = (1, -1, _TOP // 2 - 1, _TOP // 2, -_TOP // 2, -_TOP // 2 - 1, _TOP - 1, -_TOP)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = Monomial.of({v: rng.choice(ends) for v in rng.sample(variables, rng.randint(0, 2))})
        terms[mono] = terms.get(mono, 0) + rng.choice((-2, -1, 1, 3))
    return Polynomial(terms)


def _same_or_overflow(compute, reference):
    try:
        want = reference()
    except ExponentOverflow:
        with pytest.raises(ExponentOverflow):
            compute()
        return "overflow"
    assert _reference_terms(compute()) == want
    return "fits"


def test_products_near_the_range_ends_match_a_fold_that_scans_every_partial_product():
    # chains whose spans add up to less than 2**28 are folded unscanned;
    # the rest must fail exactly where a fold that scans every partial
    # product fails, and otherwise agree with it
    rng = random.Random(30028)
    variables = [x(1), x(2), y(3)]
    seen = {"fits": 0, "overflow": 0, "power fits": 0, "power overflow": 0}
    for _ in range(300):
        items = [_budget_poly(rng, variables) for _ in range(rng.randint(1, 4))]
        seen[_same_or_overflow(lambda: poly_product(items), lambda: _scanned_fold(items))] += 1
        base, k = items[0], rng.randint(1, 3)
        seen["power " + _same_or_overflow(lambda: base ** k, lambda: _scanned_fold([base] * k))] += 1
    assert min(seen.values()) >= 30, seen
    # spans adding up to exactly 2**28 reach the range's end only on one side
    half, neg = Polynomial.variable(x(1), _TOP // 2), Polynomial.variable(x(1), -_TOP // 2)
    for items in ([half, half + 1], [half + 1, half, 3], [neg, neg + 1], [neg - 1, neg - P("x2")]):
        _same_or_overflow(lambda: poly_product(items), lambda: _scanned_fold(items))
    with pytest.raises(ExponentOverflow):
        poly_product([half + P("x2"), half - P("x2")])
    assert poly_product([neg + 1, neg - 1]) == Polynomial.variable(x(1), -_TOP) - 1
    with pytest.raises(ExponentOverflow):
        poly_product([Polynomial.variable(x(1), -_TOP // 2 - 1) + 1, neg + 1])


def test_a_chain_under_the_range_budget_is_never_scanned(monkeypatch):
    # a power is bounded by k times its base's extreme exponents, checked
    # up front, even where the k copies' spans add up past 2**28
    import treefactor.polyring as polyring

    def forbidden(*args):
        raise AssertionError("a chain under the range budget was scanned")

    wide = P(f"x1^{_TOP // 4 - 1} + x1^-{_TOP // 4}")
    wide_power = poly_product([wide] * 4)
    seventh = poly_product([P(f"x1^{_TOP // 8} + x2^-1 + 1")] * 7)
    monkeypatch.setattr(polyring._Layout, "check_range", forbidden)
    assert wide ** 4 == wide_power
    assert P(f"x1^{_TOP // 8} + x2^-1 + 1") ** 7 == seventh
    assert (P("x1*x2 - y2") ** 3).render() == "x1^3*x2^3 - 3*x1^2*x2^2*y2 + 3*x1*x2*y2^2 - y2^3"


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


def test_bad_variables_and_texts_fail_with_named_errors():
    from treefactor.polyring import Family

    with pytest.raises(ValueError, match="X variables take 1 indices"):
        Variable(Family.X, (1, 2))
    with pytest.raises(ValueError, match="E variables take 2 indices"):
        Variable(Family.E, (1,))
    with pytest.raises(ValueError, match="variable indices are positive integers"):
        Variable(Family.Q, (0,))
    with pytest.raises(ValueError, match="not a variable: 'z1'"):
        Variable.parse("z1")
    with pytest.raises(ValueError, match="zero polynomial has no leading term"):
        Polynomial.zero().leading_term()
    with pytest.raises(ValueError, match="empty polynomial text"):
        Polynomial.parse("   ")
    with pytest.raises(ValueError, match="bad term: '-'"):
        Polynomial.parse("x1 + -")
    with pytest.raises(ValueError, match=r"bad factor 'z2' in term 'x1\*z2'"):
        Polynomial.parse("x1*z2")
    with pytest.raises(TypeError, match="cannot coerce 1.5 to Polynomial"):
        P("x1").substitute({x(1): 1.5})


def test_equality_and_product_with_a_non_number_are_not_implemented():
    p = P("x1 + 1")
    assert p.__eq__("x1 + 1") is NotImplemented and p != "x1 + 1"
    assert p.__mul__(1.5) is NotImplemented
    with pytest.raises(TypeError, match="unsupported operand"):
        p * 1.5
    with pytest.raises(TypeError, match="unsupported operand"):
        1.5 * p


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
    assert (P(f"x1^{-top // 2}*x3") ** 2).render() == f"x1^{-top}*x3^2"
    with pytest.raises(ExponentOverflow):
        div_exact(Polynomial.variable(x(1), -top), half)
    # the error is an arithmetic error, not an assertion
    assert issubclass(ExponentOverflow, ArithmeticError)
    assert not issubclass(ExponentOverflow, AssertionError)


def test_an_oversized_power_fails_before_building_anything():
    # p**k reaches k times each variable's extreme exponents in p, checked
    # before anything is built: each of these would otherwise build k copies
    # of the base, k groups of partial terms or k sequential products first
    top = 2 ** 28
    for base, k in ((f"x1^{top // 2} + x2", 2), ("x1 + x2", top), ("x1 + 1", 2 ** 32),
                    (f"x1^{-top // 2} + x2", 3), ("x1*x2^-1 + x3", 2 ** 40), ("x1 + x(1,2) + y3", top),
                    ("x1^-1 + x2^-2", top // 2 + 1)):
        with pytest.raises(ExponentOverflow):
            P(base) ** k
    # at the ends of the range, the sequential path and the linear one
    assert (P(f"x1^{top // 2 - 1} + x2") ** 2).render() == f"x1^{top - 2} + 2*x1^{top // 2 - 1}*x2 + x2^2"
    assert (P(f"x1^{-top // 2} + x2") ** 2).render() == f"x2^2 + 2*x1^{-top // 2}*x2 + x1^{-top}"
    assert (P("2*x1 - x2") ** 3).render() == "8*x1^3 - 12*x1^2*x2 + 6*x1*x2^2 - x2^3"


def test_stack_rows_keep_to_their_bands_at_the_exponent_limits():
    # every digit at an end of [-2**28, 2**28), so the degree digit is as far
    # from 0 as a key allows, of either sign (past 32 bits with nine
    # variables); held in the first and the last row of a stack, each key
    # must unstack to itself, and the masks must read it in its band
    from itertools import product

    from treefactor.polyring import _layout

    top = 2 ** 28
    for variables in ([x(1)], [q(1), x(1), y(2)], [q(i) for i in range(1, 10)]):
        lay = _layout(tuple(variables))
        digits = 32 * len(variables)
        signs = set()
        for exps in product((-top, top - 1), repeat=len(variables)):
            k = lay.key(zip(variables, exps))
            signs.add((k >> digits) > 0)
            assert lay.stack([{k: 3}]) == {k: 3}
            for rows in (2, 7):
                stacked = [{k: 3}, *([{}] * (rows - 2)), {k: -5}]
                stack = lay.stack(stacked)
                assert len(stack) == 2 and lay.unstack(stack, rows) == stacked, (exps, rows)
                lay.check_range(stack)
                assert [lay.exponents(s) for s in stack] == [exps, exps]
                assert lay.content(stack) == k
        assert signs == {False, True}


def test_a_stack_of_multiples_divides_to_the_stack_of_quotients():
    # rows g * q_r, zero rows and quotients at the top of the exponent range
    # among them, divide as one stack to the stack of the q_r; a row off by a
    # term makes the stack fail
    from treefactor.polyring import _pdiv

    top = 2 ** 28
    rng = random.Random(20261020)
    g = P("x1^2*y2 + 3*x2 - y2^3")
    for trial in range(60):
        quotients = [P(f"x1^{top - 3}*y2^{top - 4} - 2*x2^{top - 2}")] if trial % 4 == 0 else []
        for _ in range(rng.randint(1, 6)):
            terms = [f"{rng.choice([-3, -1, 1, 2])}*x1^{rng.randint(0, 3)}*x2^{rng.randint(0, 2)}*y2^{rng.randint(0, 3)}"
                     for _ in range(rng.randint(0, 3))]
            quotients.append(P(" + ".join(terms)) if terms else Polynomial.zero())
        rng.shuffle(quotients)
        shared_g, *shared = share_layout([g, *quotients, P("x1 + x2 + y2")])
        lay = shared_g._lay
        rows = [(shared_g * qr)._terms for qr in shared[:-1]]
        want = lay.stack(qr._terms for qr in shared[:-1])
        assert _pdiv(lay.stack(rows), shared_g._terms, 0, lay) == want
        r = rng.randrange(len(rows))
        rows[r] = (_new(lay, rows[r]) + shared[-1])._terms
        with pytest.raises(NotDivisible):
            _pdiv(lay.stack(rows), shared_g._terms, 0, lay)


def test_one_term_divisors_shift_keys_and_fail_at_the_largest_failing_term(monkeypatch):
    # seeded plain and stacked dividends over one-term divisors, some with a
    # coefficient other than +-1.  A division that passes runs no heap and
    # its quotient times the divisor is the dividend; one that fails raises
    # at the graded-lex largest term that fails by the definition: its
    # coefficient is not a multiple of the divisor's, a quotient exponent is
    # below the floor's, or one is outside [-2**28, 2**28), NotDivisible
    # ahead of ExponentOverflow on the same term
    import heapq

    from treefactor.polyring import _pdiv

    top = 2 ** 28
    rng = random.Random(20261021)
    names = ("x1", "x2", "y3")
    seen = dict.fromkeys(("divided", "divided by a non-unit", "coefficient", "floor", "range", "stacked"), 0)

    def monomial(low, high):
        return "*".join(f"{v}^{rng.randint(low, high)}" for v in names)

    def dividend(g, kind):
        if kind == "multiple":  # g times a polynomial or a Laurent polynomial
            return g * P(" + ".join(f"{rng.choice([-2, -1, 1, 3])}*{monomial(rng.choice([-1, 0]), 2)}"
                                    for _ in range(rng.randint(1, 4))))
        if kind == "edge":  # a term at an end of the exponent range, shifted past it by most divisors
            v = rng.choice(names)
            return P(f"{rng.choice([-4, 2])}*{v}^{rng.choice([-top, top - 1])} + {monomial(-2, 3)}")
        return P(" + ".join(f"{rng.choice([-6, -3, -2, 1, 2, 4])}*{monomial(-2, 3)}" for _ in range(rng.randint(1, 4))))

    for trial in range(600):
        g = P(f"{rng.choice([1, -1, 2, -3])}*{monomial(-1, 2)}")
        kinds = [rng.choice(("multiple", "multiple", "edge", "random")) for _ in range(rng.choice((1, 1, 2, 3)))]
        shared_g, *rows = share_layout([g, *(dividend(g, kind) for kind in kinds)])
        lay = shared_g._lay
        f = lay.stack(p._terms for p in rows)
        if not f:
            continue
        (kg, cg), = shared_g._terms.items()
        # the polynomial ring's floor, or `div_exact`'s
        floor = 0 if trial % 2 else lay.content(f) - lay.content(shared_g._terms)

        def fails(k, c):
            quotient = [a - b for a, b in zip(lay.exponents(k), lay.exponents(kg))]
            coefficient = bool(c % cg)
            short = any(e < low for e, low in zip(quotient, lay.exponents(floor)))
            wide = any(not -top <= e < top for e in quotient)
            return coefficient, short, wide

        failing = [k for k, c in f.items() if any(fails(k, c))]
        seen["stacked"] += len(rows) > 1
        if not failing:
            with monkeypatch.context() as patched:
                patched.setattr(heapq, "heapify", None)  # any heap division would call it
                quotient = _pdiv(f, shared_g._terms, floor, lay)
            assert [(_new(lay, terms) * shared_g)._terms for terms in lay.unstack(quotient, len(rows))] == \
                [p._terms for p in rows], trial
            seen["divided"] += 1
            seen["divided by a non-unit"] += cg not in (1, -1)
            continue
        w = max(failing)
        coefficient, short, wide = fails(w, f[w])
        if coefficient or short:
            with pytest.raises(NotDivisible) as err:
                _pdiv(f, shared_g._terms, floor, lay)
            assert err.value.witness == (lay.monomial(w), f[w]), trial
            seen["coefficient" if coefficient else "floor"] += 1
        else:
            with pytest.raises(ExponentOverflow):
                _pdiv(f, shared_g._terms, floor, lay)
            seen["range"] += 1
    assert min(seen.values()) >= 20, seen
