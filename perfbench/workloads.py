"""Claim lists of the treefactor benchmark.

A claim is one verdict-producing check, run through the public library
API.  Each claim has a timed part (`run`, returning the verdicts and the
polynomials it produced) and an untimed independent check (`check`) that
the benchmark applies to those outputs.

Every workload's claim set is fixed; the seed only permutes the order of
the claims inside each pass, so runs on different seeds do the same work.

Known defect, kept visible on purpose: `threshold_rhs((0,))` returns `x1`
while the one-vertex tree sum is `1`, so the claim `threshold:lam=0` is
Refuted on identity-det and brute-oracle.  It is a failed claim in those
workloads' figures until the library is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

# identity-det runs verify_directions on these; formula-expand expands them
# and adds (2,2,2,2), whose determinant is too slow for identity-det's pass.
DIRECTION_DIMS = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (4, 4), (2, 3, 3)]
# dims whose decoupled enumerator factor-certify caches during set-up
CERTIFY_DIMS = [(2, 3), (2, 4), (2, 2, 2)]


@dataclass(frozen=True)
class Claim:
    cid: str
    # timed: returns (verdicts, outputs); verdicts is a list of Verdict
    run: Callable[[], tuple[list, object]]
    # untimed: returns None when the outputs pass, else what is wrong
    check: Callable[[list, object], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[object], list[Claim]]
    prepare: Callable[[object], None] = lambda lib: None


def ones(p) -> int:
    """All-ones specialization of a Laurent polynomial: its coefficient sum."""
    return sum(c for _, c in p.terms())


def _sides_problem(lhs, rhs, count: int) -> Optional[str]:
    for side, p in (("lhs", lhs), ("rhs", rhs)):
        if ones(p) != count:
            return f"{side} at all-ones is {ones(p)}, spanning tree count is {count}"
    return None


def _verdict_problem(verdict, cid: str, equal: bool) -> Optional[str]:
    if verdict.claim_id != cid:
        return f"verdict names {verdict.claim_id!r}"
    expected = "Verified" if equal else "Refuted"
    if verdict.status != expected:
        return f"verdict {verdict.status} but the sides are {'equal' if equal else 'different'}"
    return None


def _names(verdict, cid: str) -> bool:
    """The verdict is the claim's own or one of its per-factor parts."""
    return verdict.claim_id == cid or verdict.claim_id.startswith(cid + ":")


def _dims_id(dims) -> str:
    return "x".join(str(d) for d in dims)


def _lam_id(lam) -> str:
    return ",".join(str(p) for p in lam)


def _product(lib, dims):
    return lib.graphs.cartesian_product([lib.graphs.complete_graph(d) for d in dims])


def route_claim(lib, cid: str, call, graph, scheme, rhs) -> Claim:
    """A verify_* orchestrator: determinant route against a closed form."""

    def check(verdicts, _):
        g = graph()
        lhs = lib.laplacian.tree_enumerator_det(g, scheme)
        right = rhs()
        return (_sides_problem(lhs, right, lib.treebrute.spanning_tree_count(g))
                or _verdict_problem(verdicts[0], cid, lhs == right))

    return Claim(cid, lambda: ([call()], None), check)


def brute_claim(lib, cid: str, graph, stat, rhs) -> Claim:
    """Explicit tree enumeration against a closed form via verify_identity."""

    def run():
        lhs = lib.treebrute.enumerate_sum(graph(), stat)
        right = rhs()
        return [lib.verify.verify_identity(cid, lhs, right)], (lhs, right)

    def check(verdicts, sides):
        lhs, right = sides
        return (_sides_problem(lhs, right, lib.treebrute.spanning_tree_count(graph()))
                or _verdict_problem(verdicts[0], cid, lhs == right))

    return Claim(cid, run, check)


def formula_claim(lib, cid: str, graph, rhs) -> Claim:
    """A closed form alone; it must raise nothing and count the trees."""

    def check(_, right):
        count = lib.treebrute.spanning_tree_count(graph())
        return None if ones(right) == count else f"all-ones value {ones(right)}, spanning tree count {count}"

    return Claim(cid, lambda: ([], rhs()), check)


def certify_claim(lib, cid: str, dims, call) -> Claim:
    """Divisibility or coefficient scan on a cached decoupled enumerator."""

    def check(verdicts, quotient):
        if not verdicts or any(not _names(v, cid) for v in verdicts):
            return "verdict names another claim"
        enumerator = lib.verify.decoupled_enumerator(dims)
        count = lib.treebrute.spanning_tree_count(_product(lib, dims))
        if ones(enumerator) != count:
            return f"enumerator at all-ones is {ones(enumerator)}, spanning tree count is {count}"
        rebuilt = quotient
        for base, exp in lib.formulas.decoupled_enumerator_factors(dims):
            rebuilt = rebuilt * base ** exp
        return None if rebuilt == enumerator else "factors times quotient do not rebuild the enumerator"

    return Claim(cid, call, check)


def null_claim(cid: str, call, n_verdicts: int) -> Claim:
    """Nullvector residues; the verdicts themselves are the output."""

    def check(verdicts, _):
        if len(verdicts) != n_verdicts:
            return f"{len(verdicts)} verdicts, expected {n_verdicts}"
        if any(not _names(v, cid) for v in verdicts):
            return "verdict names another claim"
        return None

    return Claim(cid, call, check)


def _threshold_seqs(lib, sizes):
    return [lam for n in sizes for lam in lib.graphs.connected_threshold_sequences(n)]


def build_identity_det(lib) -> list[Claim]:
    S, F, V, G = lib.laplacian.WeightScheme, lib.formulas, lib.verify, lib.graphs
    claims = []
    for n in range(3, 8):
        claims.append(route_claim(lib, f"cayley:n={n}", lambda n=n: V.verify_cayley(n),
                                  lambda n=n: G.complete_graph(n), S.CAYLEY_PRUFER,
                                  lambda n=n: F.cayley_prufer_rhs(n)))
    for dims in DIRECTION_DIMS:
        claims.append(route_claim(lib, f"directions:dims={_dims_id(dims)}",
                                  lambda d=dims: V.verify_directions(d), lambda d=dims: _product(lib, d),
                                  S.DIRECTION, lambda d=dims: F.directions_rhs(d)))
    for n in range(1, 4):
        claims.append(route_claim(lib, f"cube:n={n}", lambda n=n: V.verify_cube(n),
                                  lambda n=n: G.hypercube(n), S.CUBE_LAURENT, lambda n=n: F.cube_rhs(n)))
    for lam in _threshold_seqs(lib, range(1, 7)):
        claims.append(route_claim(lib, f"threshold:lam={_lam_id(lam)}",
                                  lambda lam=lam: V.verify_threshold(lam),
                                  lambda lam=lam: G.threshold_graph(lam), S.THRESHOLD_IN_OUT,
                                  lambda lam=lam: F.threshold_rhs(lam)))
    return claims


def build_brute_oracle(lib) -> list[Claim]:
    T, F, G = lib.treebrute.TreeStatistic, lib.formulas, lib.graphs
    claims = []
    for n in range(3, 8):
        claims.append(brute_claim(lib, f"brute:cayley:n={n}", lambda n=n: G.complete_graph(n),
                                  T.DEGREE, lambda n=n: F.cayley_prufer_rhs(n)))
    for dims in [(3, 3), (2, 4), (2, 2, 2)]:
        claims.append(brute_claim(lib, f"brute:directions:dims={_dims_id(dims)}",
                                  lambda d=dims: _product(lib, d), T.DIRECTION,
                                  lambda d=dims: F.directions_rhs(d)))
    claims.append(brute_claim(lib, "brute:cube:n=3", lambda: G.hypercube(3),
                              T.CUBE_SUBSTITUTED, lambda: F.cube_rhs(3)))
    for lam in _threshold_seqs(lib, range(1, 7)):
        claims.append(brute_claim(lib, f"brute:threshold:lam={_lam_id(lam)}",
                                  lambda lam=lam: G.threshold_graph(lam), T.IN_OUT_DEGREE,
                                  lambda lam=lam: F.threshold_rhs(lam)))
    return claims


def prepare_factor_certify(lib) -> None:
    for dims in CERTIFY_DIMS:
        lib.verify.decoupled_enumerator(dims)


def build_factor_certify(lib) -> list[Claim]:
    V = lib.verify
    claims = []
    for dims in CERTIFY_DIMS:
        claims.append(certify_claim(lib, f"divides:dims={_dims_id(dims)}", dims,
                                    lambda d=dims: V.verify_divisibility(d)))
        claims.append(certify_claim(lib, f"nonneg:dims={_dims_id(dims)}", dims,
                                    lambda d=dims: _scan(V, d)))
    for lam in lib.graphs.connected_threshold_sequences(9):
        # one verdict per claimed factor: durfee-1 f-rows plus n-1-durfee g-rows
        claims.append(null_claim(f"threshold-null:lam={_lam_id(lam)}",
                                 lambda lam=lam: (V.verify_threshold_nullvectors(lam), None),
                                 len(lam) - 2))
    for n in (4, 5):
        for r in range(2, n + 1):
            for a_set in combinations(range(1, n + 1), r):
                cid = f"cube-null:n={n}:A={{{','.join(map(str, a_set))}}}"
                claims.append(null_claim(cid, lambda n=n, a=a_set: ([V.verify_cube_nullvector(n, a)], None), 1))
    for dims in [(3, 3), (2, 3, 4), (4, 4, 4)]:
        for direction in range(1, len(dims) + 1):
            cid = f"decoupled-null:dims={_dims_id(dims)}:dir={direction}"
            claims.append(null_claim(
                cid, lambda d=dims, i=direction: ([V.verify_decoupled_nullvectors(d, i)], None), 1))
    return claims


def _scan(verify, dims):
    verdict, quotient = verify.conjecture_scan(dims)
    return [verdict], quotient


def build_formula_expand(lib) -> list[Claim]:
    F, G = lib.formulas, lib.graphs
    claims = []
    for n in range(2, 10):
        claims.append(formula_claim(lib, f"rhs:cayley:n={n}", lambda n=n: G.complete_graph(n),
                                    lambda n=n: F.cayley_prufer_rhs(n)))
    for dims in DIRECTION_DIMS + [(2, 2, 2, 2)]:
        claims.append(formula_claim(lib, f"rhs:directions:dims={_dims_id(dims)}",
                                    lambda d=dims: _product(lib, d), lambda d=dims: F.directions_rhs(d)))
    for n in range(1, 4):
        claims.append(formula_claim(lib, f"rhs:cube:n={n}", lambda n=n: G.hypercube(n),
                                    lambda n=n: F.cube_rhs(n)))
    for lam in lib.graphs.connected_threshold_sequences(7):
        claims.append(formula_claim(lib, f"rhs:threshold:lam={_lam_id(lam)}",
                                    lambda lam=lam: G.threshold_graph(lam),
                                    lambda lam=lam: F.threshold_rhs(lam)))
    return claims


WORKLOADS = {
    w.name: w
    for w in [
        # Bareiss elimination in `laplacian` is most of the pass, so
        # determinant work shows here and nowhere else.
        Workload("identity-det", build_identity_det),
        # `treebrute` explicit enumeration and tree statistics are most of
        # the pass; the integer Kirchhoff count that gates it is small.
        Workload("brute-oracle", build_brute_oracle),
        # Exact division in `polyring`, driven by `verify`, does the work; the
        # determinant cost moves into set-up, so removing or breaking the
        # enumerator cache shows in setup_s and pass_s.
        Workload("factor-certify", build_factor_certify, prepare_factor_certify),
        # Products of linear forms grow to 6,435 terms: `polyring`
        # multiplication driven by `formulas` is the pass.  Without it
        # `formulas` would never be most of a pass.
        Workload("formula-expand", build_formula_expand),
    ]
}
