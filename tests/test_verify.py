"""Verdict machinery and the mechanical verification routines."""

import json

from treefactor import (
    Polynomial,
    PolyMatrix,
    WeightScheme,
    cayley_prufer_rhs,
    complete_graph,
    conjecture_scan,
    decoupled_enumerator,
    decoupled_enumerator_factors,
    determinant,
    div_exact,
    reduce_matrix,
    report_json,
    verify_cayley,
    verify_cube,
    verify_cube_nullvector,
    verify_decoupled_nullvectors,
    verify_directions,
    verify_divisibility,
    verify_identity,
    verify_threshold,
    verify_threshold_nullvectors,
    weighted_laplacian,
)

P = Polynomial.parse


def test_identity_verified():
    v = verify_identity("check", P("x1 + x2"), P("x2 + x1"))
    assert v.ok
    assert v.status == "Verified"
    assert v.witness is None
    assert v.elapsed_ms >= 0.0


def test_identity_refuted_with_leading_difference_witness():
    v = verify_identity("check", P("x1 + x2"), P("x1"))
    assert not v.ok
    assert v.status == "Refuted"
    assert v.witness == "x2"


def test_orchestrators_verify():
    v = verify_cayley(4)
    assert v.ok and v.claim_id == "cayley:n=4"
    v = verify_directions((2, 2))
    assert v.ok and v.claim_id == "directions:dims=2x2"
    assert verify_cube(2).ok
    assert verify_cube(2, use_brute=True).ok
    v = verify_threshold((3, 1, 1, 1))
    assert v.ok and v.claim_id == "threshold:lam=3,1,1,1"


def test_perturbed_laplacian_entry_refutes():
    lap = weighted_laplacian(complete_graph(4), WeightScheme.CAYLEY_PRUFER)
    rows = [list(r) for r in lap.rows]
    rows[0][1] = rows[0][1] + 1
    minor, sign = reduce_matrix(PolyMatrix(rows), 3, 3)
    det = determinant(minor)
    if sign < 0:
        det = -det
    v = verify_identity("perturbed", det, cayley_prufer_rhs(4))
    assert v.status == "Refuted"
    assert v.witness is not None


def test_divisibility_verdicts_and_quotient():
    verdicts, quotient = verify_divisibility((2, 2))
    assert all(v.ok for v in verdicts)
    assert {v.claim_id for v in verdicts} == {
        "divides:dims=2x2:factor=q1^1",
        "divides:dims=2x2:factor=q2^1",
        "divides:dims=2x2:factor=x(1,1)^2",
        "divides:dims=2x2:factor=x(1,2)^2",
        "divides:dims=2x2:factor=x(2,1)^2",
        "divides:dims=2x2:factor=x(2,2)^2",
    }
    assert quotient.n_terms == 4
    prod = Polynomial.one()
    for base, e in decoupled_enumerator_factors((2, 2)):
        prod = prod * base ** e
    assert prod * quotient == decoupled_enumerator((2, 2))


def test_divisibility_names_sum_factors_with_parentheses():
    verdicts, _ = verify_divisibility((2, 3))
    ids = {v.claim_id for v in verdicts}
    assert "divides:dims=2x3:factor=(x(2,1) + x(2,2) + x(2,3))^1" in ids


def test_conjecture_scan_reports_minimum_coefficient():
    verdict, quotient = conjecture_scan((2, 2))
    assert verdict.ok
    assert verdict.claim_id == "nonneg:dims=2x2"
    assert verdict.witness == "min coefficient 1 at q1*x(1,1)^2*x(2,1)*x(2,2)"
    assert quotient.n_terms == 4

    verdict, quotient = conjecture_scan((3,))
    assert verdict.ok
    assert quotient == Polynomial.one()


def test_quotient_independent_of_division_order():
    _, quotient = verify_divisibility((2, 3))
    enum = decoupled_enumerator((2, 3))
    acc = enum
    for base, e in reversed(decoupled_enumerator_factors((2, 3))):
        for _ in range(e):
            acc = div_exact(acc, base)
    assert acc == quotient


def test_cube_nullvectors():
    v = verify_cube_nullvector(2, (1, 2))
    assert v.ok and v.claim_id == "cube-null:n=2:A={1,2}"
    assert verify_cube_nullvector(3, (1, 3)).ok
    assert verify_cube_nullvector(3, (1, 2, 3)).ok


def test_cube_nullvector_residue_sign_is_pinned(monkeypatch):
    import treefactor.verify as verify

    # negating the Laplacian negates every residue but keeps each entry
    # divisible by f_A: only the sign check can catch it
    real = verify.weighted_laplacian

    def negated(g, scheme):
        return PolyMatrix([[-p for p in row] for row in real(g, scheme).rows])

    monkeypatch.setattr(verify, "weighted_laplacian", negated)
    for n, a_set in [(2, (1, 2)), (3, (1, 3)), (3, (1, 2, 3))]:
        v = verify_cube_nullvector(n, a_set)
        assert v.status == "Refuted", (n, a_set)
        assert v.witness.startswith("residue mismatch at R="), v.witness


def test_threshold_one_vertex_verified():
    v = verify_threshold((0,))
    assert v.ok and v.claim_id == "threshold:lam=0"


def test_decoupled_nullvectors():
    v = verify_decoupled_nullvectors((2, 3), 2)
    assert v.ok and v.claim_id == "decoupled-null:dims=2x3:dir=2"
    assert verify_decoupled_nullvectors((2, 3), 1).ok
    assert verify_decoupled_nullvectors((3,), 1).ok


def test_threshold_nullvectors():
    vs = verify_threshold_nullvectors((3, 3, 2, 2))
    assert vs and all(v.ok for v in vs)
    ids = {v.claim_id for v in vs}
    assert "threshold-null:lam=3,3,2,2:f:r=2" in ids
    assert "threshold-null:lam=3,3,2,2:g:a=3:extra" in ids

    vs = verify_threshold_nullvectors((3, 1, 1, 1))
    ids = {v.claim_id for v in vs}
    assert "threshold-null:lam=3,1,1,1:g:a=2:inblock:k=1" in ids
    assert "threshold-null:lam=3,1,1,1:g:a=2:extra" in ids
    assert all(v.ok for v in vs)


def test_report_json_sorted_and_shaped():
    v1 = verify_identity("b:second", P("x1"), P("x1"))
    v2 = verify_identity("a:first", P("x1"), P("x2"))
    rows = json.loads(report_json([v1, v2]))
    assert [r["claim_id"] for r in rows] == ["a:first", "b:second"]
    for r in rows:
        assert set(r) == {"claim_id", "status", "witness", "elapsed_ms"}
    assert rows[0]["status"] == "Refuted"
    assert rows[1]["witness"] is None


def test_verdicts_deterministic_apart_from_timing():
    a = verify_directions((2, 3))
    b = verify_directions((2, 3))
    assert (a.claim_id, a.status, a.witness) == (b.claim_id, b.status, b.witness)


def test_decoupled_enumerator_is_cached():
    assert decoupled_enumerator((2, 2)) is decoupled_enumerator((2, 2))
