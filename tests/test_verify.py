"""Verdict machinery and the mechanical verification routines."""

import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest

from treefactor import (
    NotDivisible,
    Polynomial,
    PolyMatrix,
    Verdict,
    WeightScheme,
    cayley_prufer_rhs,
    complete_graph,
    conjecture_scan,
    connected_threshold_sequences,
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
pytestmark = pytest.mark.usefixtures("time_bound")


def _cells_of(matrix_of):
    """A stand-in for `verify._laplacian_cells` that reads the matrix `matrix_of(g, scheme)` gives."""
    from treefactor.polyring import share_layout

    def cells(g, scheme):
        m = matrix_of(g, scheme)
        flat = share_layout(p for row in m.rows for p in row)
        return flat[0]._lay, {divmod(i, m.size): p._terms for i, p in enumerate(flat) if p}

    return cells


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


def _one_power_too_many(monkeypatch):
    # the last factor of a product claims one more power than divides
    import treefactor.verify as verify

    real = verify.decoupled_enumerator_factors

    def claimed(dims):
        *factors, (base, exp) = real(dims)
        return [*factors, (base, exp + 1)]

    monkeypatch.setattr(verify, "decoupled_enumerator_factors", claimed)


def test_divisibility_refutes_with_the_stuck_term(monkeypatch):
    _one_power_too_many(monkeypatch)
    witness = "-q1^2*x(1,1)^4*x(2,1)*x(2,2)^2*x(2,3)"
    verdicts, _ = verify_divisibility((2, 3))
    assert [v.ok for v in verdicts] == [True] * 7 + [False]
    assert (verdicts[-1].claim_id, verdicts[-1].witness) == (
        "divides:dims=2x3:factor=(x(2,1) + x(2,2) + x(2,3))^2", witness)
    verdict, _ = conjecture_scan((2, 3))
    assert (verdict.claim_id, verdict.status, verdict.witness) == ("nonneg:dims=2x3", "Refuted", witness)


def test_divisibility_of_monomial_powers_is_read_in_the_polynomial_ring(monkeypatch):
    # a monomial is a unit of the Laurent ring and divides everything there;
    # a claimed power of one holds only where every term has that much of it,
    # and one power too many is refuted at the largest term that falls short
    import treefactor.verify as verify

    real = verify.decoupled_enumerator_factors
    monomials = [i for i, (base, _) in enumerate(real((2, 3))) if base.n_terms == 1]
    assert len(monomials) == 7
    for i in monomials:
        def claimed(dims, i=i):
            factors = list(real(dims))
            base, exp = factors[i]
            factors[i] = (base, exp + 1)
            return factors

        monkeypatch.setattr(verify, "decoupled_enumerator_factors", claimed)
        verdicts, _ = verify_divisibility((2, 3))
        assert [v.ok for v in verdicts] == [j != i for j in range(8)], i
    monkeypatch.setattr(verify, "decoupled_enumerator_factors",
                        lambda dims: [(real(dims)[0][0], 2), *real(dims)[1:]])
    verdicts, _ = verify_divisibility((2, 3))
    assert (verdicts[0].claim_id, verdicts[0].witness) == (
        "divides:dims=2x3:factor=q1^2", "q1*q2^4*x(1,1)^5*x(1,2)^5*x(2,1)^6*x(2,2)^2*x(2,3)^2")


def test_a_monomial_divisor_refutes_rows_without_it():
    # the height-1 block of (6,4,4,4,4,1,1) has g = x1; y3 at vertex 2 is no
    # nullvector, and row 2 of L-hat v holds terms without x1
    import treefactor.verify as verify
    from treefactor.formulas import _in_out_variables
    from treefactor.polyring import _new

    lam = (6, 4, 4, 4, 4, 1, 1)
    g = verify.threshold_graph(lam)
    size = g.n - 1  # L-hat's order
    xs, ys = _in_out_variables(len(lam))
    columns = verify._stacked_columns(verify._laplacian_cells(g, WeightScheme.THRESHOLD_IN_OUT), g.n, 0)
    (divisor,), stacks = verify._residues(columns, [{0: ys[3]}], [xs[1]])
    row = _new(divisor._lay, divisor._lay.unstack(stacks[0], size)[0])
    assert row == P("x1*y2*y3 + x2*y3^2 + x2*y3*y4 + x2*y3*y5")
    assert verify._first_undivided(divisor, stacks, size) == (0, 0, row)
    assert all(v.ok for v in verify_threshold_nullvectors(lam))


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


def test_cube_nullvector_label_check_survives_optimize():
    # python -O strips assert statements; the check that the struck vertex
    # is the empty subset must still raise there
    import treefactor

    code = """
import dataclasses
import treefactor.verify as verify
real = verify.hypercube
verify.hypercube = lambda n: dataclasses.replace(real(n), labels=real(n).labels[::-1])
try:
    verify.verify_cube_nullvector(2, (1, 2))
except AssertionError as exc:
    print(exc)
"""
    src = os.path.dirname(os.path.dirname(treefactor.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "hypercube vertex 0 is not the empty subset\n", proc.stderr


def test_cube_nullvector_residue_sign_is_pinned(monkeypatch):
    import treefactor.verify as verify

    # negating the Laplacian negates every residue but keeps each entry
    # divisible by f_A: only the sign check can catch it
    real = weighted_laplacian

    def negated(g, scheme):
        return PolyMatrix([[-p for p in row] for row in real(g, scheme).rows])

    monkeypatch.setattr(verify, "_laplacian_cells", _cells_of(negated))
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
            "residue mismatch at R={2}: x1^3*x2^2 + q1*x1^2*x2*x3^-1 + q2*x1*x2^2*x3^-1 + x1^3"
            " + q1*x2*x3^-1 + q2*x1*x3^-1",
        "decoupled-null:dims=2x3:dir=2":
            "k=2, row (1, 3): -q2*x(1,1)^2*x(2,1)^2*x(2,3) - q2*x(1,1)^2*x(2,1)*x(2,2)*x(2,3)"
            " - q2*x(1,1)^2*x(2,1)*x(2,3)^2 - x1*x(2,1)",
    },
    3: {
        "threshold-null:lam=4,4,2,2,2:f:r=2": "case (iii), row 4: x1*x2",
        "threshold-null:lam=4,4,2,2,2:g:a=3:inblock:k=1": "case (iii), row 4: x1*y4*y5 + x2*y4*y5 + x1*y5",
        "cube-null:n=3:A={1,2}":
            "residue mismatch at R={2,3}: q1*x1^2*x2*x3 + q2*x1*x2^2*x3 + x1^3*x2^2 + q1*x2*x3 + q2*x1*x3 + x1^3",
        "decoupled-null:dims=2x3:dir=2":
            "k=1, row (2, 1): q2*x(1,2)^2*x(2,1)^2*x(2,2) + q2*x(1,2)^2*x(2,1)*x(2,2)^2"
            " + q2*x(1,2)^2*x(2,1)*x(2,2)*x(2,3) + x1*x(2,2)",
    },
    4: {
        "threshold-null:lam=4,4,2,2,2:f:r=2": "case (iii), row 5: x1*x2",
        "threshold-null:lam=4,4,2,2,2:g:a=3:inblock:k=1": "case (iv), row 5: -x1*y4*y5 - x2*y4*y5 - x1*y4",
        "threshold-null:lam=4,4,2,2,2:g:a=3:extra": "case (iv), row 5: -x1*y3*y5 - x2*y3*y5 - x1*y3",
        "cube-null:n=3:A={1,2}":
            "residue mismatch at R={1}: x1^3*x2^2 + q1*x1^2*x2*x3^-1 + q2*x1*x2^2*x3^-1 + x1*x2^2"
            " + q1*x2*x3^-1 + q2*x1*x3^-1",
        "decoupled-null:dims=2x3:dir=2":
            "k=1, row (2, 2): -q2*x(1,2)^2*x(2,1)^2*x(2,2) - q2*x(1,2)^2*x(2,1)*x(2,2)^2"
            " - q2*x(1,2)^2*x(2,1)*x(2,2)*x(2,3) - x1*x(2,1)",
    },
}


@pytest.mark.parametrize("index", sorted(_DIAGONAL_WITNESSES))
def test_nullvector_witnesses_with_perturbed_diagonal(monkeypatch, index):
    import treefactor.verify as verify

    real = weighted_laplacian

    def bumped(g, scheme):
        rows = [list(row) for row in real(g, scheme).rows]
        rows[index][index] = rows[index][index] + P("x1")
        return PolyMatrix(rows)

    monkeypatch.setattr(verify, "_laplacian_cells", _cells_of(bumped))
    assert _refuted_nullvector_witnesses((4, 4, 2, 2, 2)) == _DIAGONAL_WITNESSES[index]


def _perturb_factor_lists(monkeypatch):
    # every base of each family's factor list plus 1, so every divisor the
    # nullvector checks read from those lists is perturbed
    import treefactor.verify as verify

    for name in ("_threshold_factors", "_cube_factors", "_decoupled_factors"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, real=real: [(base + 1, m) for base, m in real(*args)])


def test_nullvector_witnesses_with_perturbed_divisors(monkeypatch):
    _perturb_factor_lists(monkeypatch)
    assert _refuted_nullvector_witnesses((4, 4, 4, 4, 4)) == {
        "threshold-null:lam=4,4,4,4,4:f:r=2":
            "case (ii), row 2: x1^2*y2 + x1*x2*y2 + x1*x2*y3 + x1*x2*y4 + x1*x2*y5",
        "threshold-null:lam=4,4,4,4,4:f:r=3":
            "case (i), row 2: -x1*x2*y3 - x2^2*y3 - x2*x3*y3 - x2*x3*y4 - x2*x3*y5",
        "threshold-null:lam=4,4,4,4,4:f:r=4":
            "case (i), row 2: -x1*x2*y4 - x2^2*y4 - x2*x3*y4 - x2*x4*y4 - x2*x4*y5",
        "cube-null:n=3:A={1,2}":
            "residue mismatch at R={3}: -q1*x1^2*x2*x3 - q2*x1*x2^2*x3 - q1*x2*x3 - q2*x1*x3",
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


def test_decoupled_nullvectors_need_a_direction_of_size_two():
    with pytest.raises(ValueError, match="direction needs at least two coordinate values"):
        verify_decoupled_nullvectors((1, 3), 1)


def test_decoupled_rank_check_refutes_dependent_vectors(monkeypatch):
    # every coordinate of the random point 0: the numeric vectors vanish
    import treefactor.verify as verify

    class Zeros:
        def __init__(self, seed):
            pass

        def randrange(self, start, stop):
            return 0

    monkeypatch.setattr(verify.random, "Random", Zeros)
    for dims, direction in [((2, 3), 1), ((3, 3), 2)]:
        v = verify_decoupled_nullvectors(dims, direction)
        assert (v.status, v.witness) == ("Refuted", "nullvectors are linearly dependent at a random point")


def test_decoupled_rank_check_takes_its_point_on_the_coordinate_sums_zero_set(monkeypatch):
    # draws 5 and 7 become x(2,2) and x(2,3), and x(2,1) = -(5 + 7), so the
    # point lies on c_2 = x(2,1) + x(2,2) + x(2,3) = 0
    import treefactor.verify as verify
    from treefactor.laplacian import _eliminate

    class Draws:
        def __init__(self, seed):
            self.values = iter((5, 7, 11))

        def randrange(self, start, stop):
            return next(self.values)

    grams = []

    def capture(a):
        grams.append([list(row) for row in a])  # before the elimination overwrites it
        return _eliminate(a)

    monkeypatch.setattr(verify.random, "Random", Draws)
    monkeypatch.setattr(verify, "_eliminate", capture)
    assert verify_decoupled_nullvectors((2, 3), 2).ok
    # u_2 = (5, 12, 0) and u_3 = (7, 0, 12) on each of the two copies of K3
    x1 = -(5 + 7)
    assert grams == [[[2 * (5 * 5 + x1 * x1), 2 * 5 * 7], [2 * 5 * 7, 2 * (7 * 7 + x1 * x1)]]]


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


def test_report_json_text_is_pinned():
    verdicts = [Verdict("b:second", "Verified", None, 0.5), Verdict("a:first", "Refuted", "x1", 1.23456)]
    assert report_json(verdicts) == """[
  {
    "claim_id": "a:first",
    "status": "Refuted",
    "witness": "x1",
    "elapsed_ms": 1.235
  },
  {
    "claim_id": "b:second",
    "status": "Verified",
    "witness": null,
    "elapsed_ms": 0.5
  }
]"""


def test_every_check_reports_a_time_within_its_call():
    checks = [lambda: [verify_identity("check", P("x1"), P("x1"))],
              lambda: verify_divisibility((2, 2))[0],
              lambda: [conjecture_scan((2, 2))[0]],
              lambda: [verify_cube_nullvector(3, (1, 2))],
              lambda: [verify_decoupled_nullvectors((2, 3), 2)],
              lambda: verify_threshold_nullvectors((3, 3, 2, 2))]
    for check in checks:
        t0 = time.perf_counter()
        verdicts = check()
        wall_ms = (time.perf_counter() - t0) * 1000.0
        assert verdicts and all(0.0 <= v.elapsed_ms <= wall_ms for v in verdicts), verdicts


def test_cube_nullvector_refutes_a_trivial_vector(monkeypatch):
    # every vector whose rows match their closed residues reaches this check;
    # L-hat is nonsingular, so that pins v, which f_A does not divide, and
    # only a division test that accepts every division, as a unit divisor's
    # would, makes it refute
    import treefactor.verify as verify

    monkeypatch.setattr(verify, "_divides", lambda divisor, p: True)
    v = verify_cube_nullvector(3, (1, 2))
    assert (v.status, v.witness) == ("Refuted", "every entry of v is divisible by f_A; v is trivial")


def test_cube_nullvector_divides_only_to_show_v_is_nontrivial(monkeypatch):
    # each row of L-hat v is tested once, by equality with its closed
    # residue, f_A times a unit; only the test that v is nonzero modulo f_A
    # divides, so Q4 with A = {1,2} makes fewer divisions than L-hat's 15 rows
    import treefactor.verify as verify

    calls = []
    real = verify._divides
    monkeypatch.setattr(verify, "_divides", lambda divisor, p: calls.append(p) or real(divisor, p))
    assert verify_cube_nullvector(4, (1, 2)).ok
    assert 0 < len(calls) < 15


def _threshold_witness_with_entry_bumped(monkeypatch, lam, row, col, claim_id):
    # x1 added to one entry of the full Laplacian (0-based)
    import treefactor.verify as verify

    real = weighted_laplacian

    def bumped(g, scheme):
        rows = [list(r) for r in real(g, scheme).rows]
        rows[row][col] = rows[row][col] + P("x1")
        return PolyMatrix(rows)

    monkeypatch.setattr(verify, "_laplacian_cells", _cells_of(bumped))
    (verdict,) = [v for v in verify_threshold_nullvectors(lam) if v.claim_id == claim_id]
    assert verdict.status == "Refuted"
    return verdict.witness


def test_g_witness_case_i(monkeypatch):
    # rows 2..h of L v are exactly 0 for a g vector, whatever the divisor;
    # a bump in row 2 on the vector's support (entry 3 of (3,3,2,2)'s block
    # a = 3, h = 2) makes row 2 the first bad one
    witness = _threshold_witness_with_entry_bumped(monkeypatch, (3, 3, 2, 2), 1, 2,
                                                   "threshold-null:lam=3,3,2,2:g:a=3:extra")
    assert witness == "case (i), row 2: x1*y4"


def test_g_witness_outside_the_cases(monkeypatch):
    # row n falls in no case of a block that ends before it: the first of
    # (4,3,2,2,1)'s blocks is a = 3, b = 1, h = 2, and its vector's entry 4
    # meets the bump in row 5
    witness = _threshold_witness_with_entry_bumped(monkeypatch, (4, 3, 2, 2, 1), 4, 3,
                                                   "threshold-null:lam=4,3,2,2,1:g:a=3:extra")
    assert witness == "case outside-cases, row 5: -x1*y3"


def test_g_witness_case_iv_at_the_block_end(monkeypatch):
    # row a + b is case (iv) even where it is also a row a + 1..n - 1 of case
    # (iii): (4,3,2,2,1)'s first block is a = 3, b = 1, so row 4 is both,
    # and x1 on vertex 4's diagonal entry meets the extra vector there
    witness = _threshold_witness_with_entry_bumped(monkeypatch, (4, 3, 2, 2, 1), 3, 3,
                                                   "threshold-null:lam=4,3,2,2,1:g:a=3:extra")
    assert witness == "case (iv), row 4: -x1*y3*y4 - x2*y3*y4 - x1*y3"


def test_conjecture_scan_of_a_zero_quotient(monkeypatch):
    # a zero enumerator: every factor divides it and the quotient is 0
    import treefactor.verify as verify

    monkeypatch.setattr(verify, "decoupled_enumerator", lambda dims: Polynomial.zero())
    verdict, quotient = conjecture_scan((2, 3))
    assert (verdict.claim_id, verdict.status, verdict.witness) == ("nonneg:dims=2x3", "Verified", "quotient is 0")
    assert quotient.is_zero


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


def _nullvector_verdicts():
    verdicts = []
    for n in range(5, 9):
        for lam in connected_threshold_sequences(n):
            verdicts += verify_threshold_nullvectors(lam)
    for n in (3, 4):
        for r in range(2, n + 1):
            verdicts += [verify_cube_nullvector(n, a_set) for a_set in combinations(range(1, n + 1), r)]
    for dims in [(2, 3), (3, 3), (2, 3, 4)]:
        verdicts += [verify_decoupled_nullvectors(dims, i) for i in range(1, len(dims) + 1)]
    return verdicts


def _verdicts_digest():
    digest = hashlib.sha256()
    for v in _nullvector_verdicts():
        digest.update(json.dumps([v.claim_id, v.status, v.witness]).encode() + b"\n")
    return digest.hexdigest()


def test_nullvector_verdicts_are_pinned(monkeypatch):
    # threshold n = 5..8, cube n = 3, 4 with every subset of size >= 2 and
    # decoupled (2,3), (3,3), (2,3,4) in every direction: as they are, with
    # every factor-list base plus 1 (each claim then Refuted), and with x1 on
    # diagonal entry 1
    import treefactor.verify as verify

    assert _verdicts_digest() == "2f9471594086eef3bc6ce9820ee0e133d7bbef998dfa81fc0af19370e87c8510"

    with monkeypatch.context() as patched:
        _perturb_factor_lists(patched)
        assert not any(v.ok for v in _nullvector_verdicts())
        assert _verdicts_digest() == "0e736a1ed19a669cd6f138fdbf69b15a5f4b3e185ce7e8dad6aa1078bb9e2cab"

    real = weighted_laplacian

    def bumped(g, scheme):
        rows = [list(row) for row in real(g, scheme).rows]
        rows[1][1] = rows[1][1] + P("x1")
        return PolyMatrix(rows)

    monkeypatch.setattr(verify, "_laplacian_cells", _cells_of(bumped))
    assert _verdicts_digest() == "0d3a79d22927d6e706b04e230fca8f67aa836a65d163de9d91318c5aa4a1b732"


def test_nullvector_hot_path_builds_operands_on_the_claims_layout(monkeypatch):
    # one warm call of each check: the threshold check builds its graph and
    # its Laplacian, whose key table takes the layout cached for its size,
    # so it builds no variable; the cube and decoupled checks build no
    # graph, no Laplacian and no variable, their operands being cached per
    # size.  The claim's operands and factor list take the cached variables
    # of `formulas` on that layout, so nothing re-keys
    import treefactor.graphs as graphs
    import treefactor.polyring as polyring
    import treefactor.verify as verify

    counts = dict.fromkeys(("variables", "rekeys", "graphs", "laplacians"), 0)
    init, rekey, post_init = polyring.Variable.__init__, polyring._rekey, graphs.Graph.__post_init__

    def counted_init(self, *args):
        counts["variables"] += 1
        init(self, *args)

    def counted_rekey(terms, src, dst):
        out = rekey(terms, src, dst)
        counts["rekeys"] += out is not terms
        return out

    def counted_post_init(self):
        counts["graphs"] += 1
        post_init(self)

    def warm_counts(call):
        real = verify._laplacian_cells

        def counted_laplacian(g, scheme):
            counts["laplacians"] += 1
            return real(g, scheme)

        with monkeypatch.context() as patched:
            # patched before the warm-up, which fills the caches keyed on it
            patched.setattr(verify, "_laplacian_cells", counted_laplacian)
            call()
            counts.update(dict.fromkeys(counts, 0))
            patched.setattr(polyring.Variable, "__init__", counted_init)
            patched.setattr(polyring, "_rekey", counted_rekey)
            patched.setattr(graphs.Graph, "__post_init__", counted_post_init)
            verdicts = call()
        assert all(v.ok for v in (verdicts if isinstance(verdicts, list) else [verdicts]))
        return tuple(counts.values())

    assert warm_counts(lambda: verify_threshold_nullvectors((8, 7, 5, 4, 4, 3, 2, 2, 1))) == (0, 0, 1, 1)
    assert warm_counts(lambda: verify_cube_nullvector(5, (1, 2, 3))) == (0, 0, 0, 0)
    assert warm_counts(lambda: verify_decoupled_nullvectors((2, 3, 4), 2)) == (0, 0, 0, 0)


def test_cached_nullvector_operands_follow_a_patched_laplacian(monkeypatch):
    # the cube and decoupled operands are cached per size; a check run after
    # a warm one with a perturbed Laplacian must see the perturbation, and
    # one run after the patch is undone must not
    import treefactor.verify as verify

    checks = {"cube-null:n=3:A={1,2}": lambda: verify_cube_nullvector(3, (1, 2)),
              "decoupled-null:dims=2x3:dir=2": lambda: verify_decoupled_nullvectors((2, 3), 2)}
    assert all(check().ok for check in checks.values())
    real = weighted_laplacian
    for index, witnesses in _DIAGONAL_WITNESSES.items():
        def bumped(g, scheme, index=index):
            rows = [list(row) for row in real(g, scheme).rows]
            rows[index][index] = rows[index][index] + P("x1")
            return PolyMatrix(rows)

        with monkeypatch.context() as patched:
            patched.setattr(verify, "_laplacian_cells", _cells_of(bumped))
            for claim, check in checks.items():
                v = check()
                assert (v.claim_id, v.status, v.witness) == (claim, "Refuted", witnesses[claim]), index
        for claim, check in checks.items():
            assert check().ok, (index, claim)


def test_nullvector_checks_hold_on_a_wider_laplacian_layout(monkeypatch):
    # the same Laplacian keyed over a layout with a variable none of its
    # entries holds: the divisors and vector entries come back on that wider
    # layout, and the cube check rebuilds its keys of x_t there, so every
    # claim still verifies
    import treefactor.verify as verify
    from treefactor.polyring import share_layout

    def wider(g, scheme):
        *entries, _ = share_layout([*(p for row in weighted_laplacian(g, scheme).rows for p in row), P("y1")])
        return PolyMatrix([entries[i * g.n:(i + 1) * g.n] for i in range(g.n)])

    monkeypatch.setattr(verify, "_laplacian_cells", _cells_of(wider))
    verdicts = [*verify_threshold_nullvectors((4, 4, 2, 2, 2)), verify_cube_nullvector(3, (1, 2)),
                verify_cube_nullvector(4, (1, 3, 4)), verify_decoupled_nullvectors((2, 3), 2)]
    assert all(v.ok for v in verdicts), [v for v in verdicts if not v.ok]


def _short_terms(divisor, p):
    # p's terms, largest first in graded-lex order, with less of some
    # variable than the divisor's least exponent (absent counting as 0)
    names = {v for m, _ in [*divisor.terms(), *p.terms()] for v in m.as_dict()}
    low = {v: min(m.as_dict().get(v, 0) for m, _ in divisor.terms()) for v in names}
    return [(m, c) for m, c in p.canonical_terms() if any(m.as_dict().get(v, 0) < e for v, e in low.items())]


def _old_row_test(divisor, p):
    # the composition the nullvector checks ran before, with the least-exponent
    # check made for every divisor: p falls short when some term of it has
    # less of a variable than the divisor's least exponent, and otherwise it
    # must divide exactly in the Laurent ring
    if _short_terms(divisor, p):
        return "short"
    try:
        div_exact(p, divisor)
    except NotDivisible:
        return "undivided"
    return "divided"


def _random_polynomial(rng, variables, n_terms, low, high):
    return P(" + ".join(f"{rng.choice([-2, -1, 1, 3])}*" + "*".join(f"{v}^{rng.randint(low, high)}" for v in variables)
                        for _ in range(n_terms)))


def test_row_division_test_agrees_with_the_old_composition():
    # seeded rows, Laurent ones with negative exponents among them, zero rows,
    # monomial and sum divisors, and rows that are multiples of the divisor
    import random

    import treefactor.verify as verify
    from treefactor.polyring import share_layout

    rng = random.Random(20261019)
    variables = ["x1", "x2", "y3"]
    seen = {"short": 0, "undivided": 0, "divided": 0}  # nonzero rows only
    for trial in range(500):
        low = rng.choice([-2, 0, 0])
        divisor = Polynomial.zero()
        while divisor.is_zero:  # random terms may cancel
            divisor = _random_polynomial(rng, variables, 1 if trial % 3 == 0 else rng.randint(2, 3), low, 2)
        kind = trial % 5
        if kind == 0:
            p = Polynomial.zero()
        elif kind <= 2:  # a multiple, by a polynomial or by a Laurent polynomial
            p = divisor * _random_polynomial(rng, variables, rng.randint(1, 3), 0 if kind == 1 else -1, 2)
        else:
            p = _random_polynomial(rng, variables, rng.randint(1, 4), rng.choice([-2, 0]), 3)
        expected = _old_row_test(divisor, p)
        seen[expected] += not p.is_zero
        shared_divisor, shared_p = share_layout([divisor, p])
        # a one-row stack is the row's own term dict
        undivided = verify._first_undivided(shared_divisor, [shared_p._terms], 1)
        assert undivided == (None if expected == "divided" else (0, 0, shared_p)), (divisor, p)
        try:
            quotient = verify._divide(shared_p, shared_divisor)
        except NotDivisible as err:
            assert expected != "divided", (divisor, p)
            text = verify._term_text(*err.witness)
            if expected == "short":
                # the graded-lex largest term that falls short
                assert text == verify._term_text(*_short_terms(divisor, p)[0]), (divisor, p)
            else:
                with pytest.raises(NotDivisible) as old:
                    div_exact(p, divisor)
                assert text == verify._term_text(*old.value.witness)
        else:
            assert expected == "divided" and quotient == div_exact(p, divisor), (divisor, p)
    assert min(seen.values()) >= 30, seen
