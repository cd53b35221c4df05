"""Verdict machinery and the mechanical verification routines."""

import json

import pytest

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


def _refuted_nullvector_witnesses(lam):
    verdicts = [*verify_threshold_nullvectors(lam), verify_cube_nullvector(3, (1, 2)),
                verify_decoupled_nullvectors((2, 3), 2)]
    return {v.claim_id: v.witness for v in verdicts if not v.ok}


# x1 added to diagonal entry i of the Laplacian refutes the claims whose
# vector is nonzero at vertex i, at that row.  Together with the divisor
# perturbation below this reaches threshold f cases (i)-(iii) and g cases
# (ii)-(iv); neither perturbation reaches f case (iv) or g case (i).
_DIAGONAL_WITNESSES = {
    2: {
        "threshold-null:lam=4,4,2,2,2:f:r=2": "case (iii), row 3: x1*x2",
        "threshold-null:lam=4,4,2,2,2:g:a=3:extra": "case (ii), row 3: x1*y3*y5 + x2*y3*y5 + x1*y5",
        "cube-null:n=3:A={1,2}":
            "entry R={2}: x1^3*x2^2 + q1*x1^2*x2*x3^-1 + q2*x1*x2^2*x3^-1 + x1^3 + q1*x2*x3^-1 + q2*x1*x3^-1",
        "decoupled-null:dims=2x3:dir=2":
            "k=2, row (1, 3): -q2*x(1,1)^2*x(2,1)^2*x(2,3) - q2*x(1,1)^2*x(2,1)*x(2,2)*x(2,3)"
            " - q2*x(1,1)^2*x(2,1)*x(2,3)^2 - x1*x(2,1)",
    },
    3: {
        "threshold-null:lam=4,4,2,2,2:f:r=2": "case (iii), row 4: x1*x2",
        "threshold-null:lam=4,4,2,2,2:g:a=3:inblock:k=1": "case (iii), row 4: x1*y4*y5 + x2*y4*y5 + x1*y5",
        "cube-null:n=3:A={1,2}":
            "entry R={2,3}: q1*x1^2*x2*x3 + q2*x1*x2^2*x3 + x1^3*x2^2 + q1*x2*x3 + q2*x1*x3 + x1^3",
        "decoupled-null:dims=2x3:dir=2":
            "k=1, row (2, 1): q2*x(1,2)^2*x(2,1)^2*x(2,2) + q2*x(1,2)^2*x(2,1)*x(2,2)^2"
            " + q2*x(1,2)^2*x(2,1)*x(2,2)*x(2,3) + x1*x(2,2)",
    },
    4: {
        "threshold-null:lam=4,4,2,2,2:f:r=2": "case (iii), row 5: x1*x2",
        "threshold-null:lam=4,4,2,2,2:g:a=3:inblock:k=1": "case (iv), row 5: -x1*y4*y5 - x2*y4*y5 - x1*y4",
        "threshold-null:lam=4,4,2,2,2:g:a=3:extra": "case (iv), row 5: -x1*y3*y5 - x2*y3*y5 - x1*y3",
        "cube-null:n=3:A={1,2}":
            "entry R={1}: x1^3*x2^2 + q1*x1^2*x2*x3^-1 + q2*x1*x2^2*x3^-1 + x1*x2^2 + q1*x2*x3^-1 + q2*x1*x3^-1",
        "decoupled-null:dims=2x3:dir=2":
            "k=1, row (2, 2): -q2*x(1,2)^2*x(2,1)^2*x(2,2) - q2*x(1,2)^2*x(2,1)*x(2,2)^2"
            " - q2*x(1,2)^2*x(2,1)*x(2,2)*x(2,3) - x1*x(2,1)",
    },
}


@pytest.mark.parametrize("index", sorted(_DIAGONAL_WITNESSES))
def test_nullvector_witnesses_with_perturbed_diagonal(monkeypatch, index):
    import treefactor.verify as verify

    real = verify.weighted_laplacian

    def bumped(g, scheme):
        rows = [list(row) for row in real(g, scheme).rows]
        rows[index][index] = rows[index][index] + P("x1")
        return PolyMatrix(rows)

    monkeypatch.setattr(verify, "weighted_laplacian", bumped)
    assert _refuted_nullvector_witnesses((4, 4, 2, 2, 2)) == _DIAGONAL_WITNESSES[index]


def test_nullvector_witnesses_with_perturbed_divisors(monkeypatch):
    import treefactor.verify as verify

    for name in ("threshold_f_factor", "cube_subset_factor", "coordinate_sum"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, real=real: real(*args) + 1)
    assert _refuted_nullvector_witnesses((4, 4, 4, 4, 4)) == {
        "threshold-null:lam=4,4,4,4,4:f:r=2":
            "case (ii), row 2: x1^2*y2 + x1*x2*y2 + x1*x2*y3 + x1*x2*y4 + x1*x2*y5",
        "threshold-null:lam=4,4,4,4,4:f:r=3":
            "case (i), row 2: -x1*x2*y3 - x2^2*y3 - x2*x3*y3 - x2*x3*y4 - x2*x3*y5",
        "threshold-null:lam=4,4,4,4,4:f:r=4":
            "case (i), row 2: -x1*x2*y4 - x2^2*y4 - x2*x3*y4 - x2*x4*y4 - x2*x4*y5",
        "cube-null:n=3:A={1,2}": "entry R={3}: -q1*x1^2*x2*x3 - q2*x1*x2^2*x3 - q1*x2*x3 - q2*x1*x3",
        "decoupled-null:dims=2x3:dir=2":
            "k=1, row (1, 1): q2*x(1,1)^2*x(2,1)^2*x(2,2) + q2*x(1,1)^2*x(2,1)*x(2,2)^2"
            " + q2*x(1,1)^2*x(2,1)*x(2,2)*x(2,3)",
    }


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
