"""Mechanical checks of the factorization identities and nullvector claims.

Every check is exact: two polynomials are compared term by term, or a
division is performed and must leave no remainder.  Results are Verdict
records; a Refuted verdict always carries a concrete witness (the term or
matrix entry that broke the claim), never just a boolean.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence, Union

from .formulas import (
    Disconnected,
    coordinate_sum,
    cube_rhs,
    cube_subset_factor,
    cayley_prufer_rhs,
    decoupled_enumerator_factors,
    directions_rhs,
    threshold_f_factor,
    threshold_rhs,
)
from .graphs import (
    Partition,
    PartitionLike,
    _coerce_partition,
    cartesian_product,
    complete_graph,
    conjugate,
    durfee,
    hypercube,
    is_connected,
    threshold_graph,
)
from .laplacian import (
    PolyMatrix,
    WeightScheme,
    reduce_matrix,
    tree_enumerator_det,
    weighted_laplacian,
)
from .polyring import (
    Monomial,
    NotDivisible,
    Polynomial,
    div_exact,
    poly_sum,
    share_layout,
    x,
    xd,
    y,
)
from .treebrute import TreeStatistic, enumerate_sum


@dataclass(frozen=True)
class Verdict:
    """Outcome of one mechanical check."""

    claim_id: str
    status: str  # "Verified" or "Refuted"
    witness: Optional[str] = None
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "Verified"

    def to_json_obj(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def report_json(verdicts: Sequence[Verdict]) -> str:
    """Machine-readable report, ordered by claim id."""
    rows = [v.to_json_obj() for v in sorted(verdicts, key=lambda v: v.claim_id)]
    return json.dumps(rows, indent=2)


def _term_text(m: Monomial, c: int) -> str:
    return Polynomial.monomial(m, c).render()


def _dims_id(dims: Sequence[int]) -> str:
    return "x".join(str(d) for d in dims)


def _lam_id(lam: PartitionLike) -> str:
    return ",".join(str(p) for p in lam)


def verify_identity(claim_id: str, lhs: Polynomial, rhs: Union[Polynomial, int]) -> Verdict:
    """Exact equality check; the witness is the leading term of the difference."""
    t0 = time.perf_counter()
    if isinstance(rhs, int):
        rhs = Polynomial.integer(rhs)
    diff = lhs - rhs
    ms = (time.perf_counter() - t0) * 1000.0
    if diff.is_zero:
        return Verdict(claim_id, "Verified", None, ms)
    m, c = diff.leading_term()
    return Verdict(claim_id, "Refuted", _term_text(m, c), ms)


def _decoupled_enumerator(dims: Sequence[int]) -> Polynomial:
    g = cartesian_product([complete_graph(d) for d in dims])
    return tree_enumerator_det(g, WeightScheme.DECOUPLED)


_ENUMERATOR_CACHE: dict[tuple[int, ...], Polynomial] = {}


def decoupled_enumerator(dims: Sequence[int]) -> Polynomial:
    """Tree sum of a product of complete graphs under per-coordinate weights.

    Cached: the same polynomial backs the divisibility check, the
    conjecture scan, and the acceptance suite.
    """
    key = tuple(int(d) for d in dims)
    if key not in _ENUMERATOR_CACHE:
        _ENUMERATOR_CACHE[key] = _decoupled_enumerator(key)
    return _ENUMERATOR_CACHE[key]


def verify_divisibility(dims: Sequence[int]) -> tuple[list[Verdict], Polynomial]:
    """Each claimed factor divides the product-graph tree sum exactly.

    Returns one verdict per factor plus the final quotient after dividing
    by all of them; a failed division refutes that factor's claim and
    leaves the quotient at its last good value.
    """
    f = decoupled_enumerator(dims)
    verdicts: list[Verdict] = []
    quotient = f
    for base, exp in decoupled_enumerator_factors(dims):
        base_text = base.render() if base.n_terms == 1 else f"({base.render()})"
        claim = f"divides:dims={_dims_id(dims)}:factor={base_text}^{exp}"
        t0 = time.perf_counter()
        try:
            piece = quotient
            for _ in range(exp):
                piece = div_exact(piece, base)
            quotient = piece
            verdicts.append(Verdict(claim, "Verified", None, (time.perf_counter() - t0) * 1000.0))
        except NotDivisible as err:
            wit = _term_text(err.witness, 1) if err.witness is not None else str(err)
            verdicts.append(Verdict(claim, "Refuted", wit, (time.perf_counter() - t0) * 1000.0))
    return verdicts, quotient


def conjecture_scan(dims: Sequence[int]) -> tuple[Verdict, Polynomial]:
    """Scan the fully divided quotient for a negative coefficient.

    The witness reports the minimum coefficient and its monomial whether or
    not the scan passes, so the CLI can print findings for open cases.
    """
    t0 = time.perf_counter()
    verdicts, quotient = verify_divisibility(dims)
    for v in verdicts:
        if not v.ok:
            return Verdict(f"nonneg:dims={_dims_id(dims)}", "Refuted", v.witness,
                           (time.perf_counter() - t0) * 1000.0), quotient
    claim = f"nonneg:dims={_dims_id(dims)}"
    if quotient.is_zero:
        return Verdict(claim, "Verified", "quotient is 0", (time.perf_counter() - t0) * 1000.0), quotient
    # ties go to the graded-lex largest term
    mono, coeff = min(quotient.canonical_terms(), key=lambda mc: mc[1])
    ok, _ = quotient.is_nonneg()
    wit = f"min coefficient {coeff} at {_term_text(mono, 1)}"
    ms = (time.perf_counter() - t0) * 1000.0
    return Verdict(claim, "Verified" if ok else "Refuted", wit, ms), quotient


def _subset_id(a: Sequence[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(a)) + "}"


def _divides(divisor: Polynomial, p: Polynomial) -> bool:
    try:
        div_exact(p, divisor)
    except NotDivisible:
        return False
    return True


def _residues(matrix: PolyMatrix, vectors: Sequence[dict[int, Polynomial]], divisor: Polynomial
              ) -> tuple[Polynomial, list[list[Polynomial]], Optional[tuple[int, int]]]:
    """L v for each of one claim's vectors v, up to the first row the divisor does not divide.

    Each vector maps column indices to entries.  L, every vector and the
    divisor go onto one layout first, so no product or division re-keys,
    and each row walks only the vector's nonzero entries.  Returns the
    divisor on that layout, the rows of L v computed for each vector, and
    the (vector, row) index of the row it does not divide, or None.
    """
    size = matrix.size
    zero, divisor, *flat = share_layout([Polynomial.zero(), divisor, *(e for row in matrix.rows for e in row),
                                         *(val for v in vectors for val in v.values())])
    entries, pos = flat[:size * size], size * size
    products: list[list[Polynomial]] = []
    for k, v in enumerate(vectors):
        walk = [(col, val) for col, val in zip(v, flat[pos:pos + len(v)]) if not val.is_zero]
        pos += len(v)
        rows: list[Polynomial] = []
        products.append(rows)
        for r in range(size):
            entry = zero
            for col, val in walk:
                e = entries[r * size + col]
                if not e.is_zero:
                    entry = entry + e * val
            rows.append(entry)
            if not _divides(divisor, entry):
                return divisor, products, (k, r)
    return divisor, products, None


def verify_cube_nullvector(n: int, a_set: Sequence[int]) -> Verdict:
    """The palindromic nullvector of the reduced hypercube Laplacian.

    v_S = x_A^2 - (-1)^(|A n S|) x_(A\\S)^2 over nonempty S; each entry of
    L-hat v must be divisible by f_A, must equal the closed residue
    -(-1)^(|A n R|) (x_R x_(A\\R))^2 / x_[n] f_A, and v itself must have an
    entry not divisible by f_A (so it is nonzero in the quotient).
    """
    t0 = time.perf_counter()
    aset = frozenset(int(i) for i in a_set)
    claim = f"cube-null:n={n}:A={_subset_id(aset)}"
    if len(aset) < 2 or not aset <= set(range(1, n + 1)):
        raise ValueError("need a direction subset of size at least 2")

    g = hypercube(n)
    lap = weighted_laplacian(g, WeightScheme.CUBE_LAURENT)
    assert g.labels[0] == frozenset()
    lhat, _ = reduce_matrix(lap, 0, 0)
    labels = [set(s) for s in g.labels[1:]]

    def squared(members: set) -> Polynomial:
        return Polynomial.monomial(Monomial.of({x(i): 2 for i in members}))

    vec = {col: squared(aset) - squared(aset - s) * (-1) ** len(aset & s) for col, s in enumerate(labels)}
    f_a, (entries,), bad = _residues(lhat, [vec], cube_subset_factor(sorted(aset)))

    def finish(status: str, witness: Optional[str]) -> Verdict:
        return Verdict(claim, status, witness, (time.perf_counter() - t0) * 1000.0)

    for r_idx, (r, entry) in enumerate(zip(labels, entries)):
        if bad == (0, r_idx):
            return finish("Refuted", f"entry R={_subset_id(r)}: {entry.render()}")
        # closed residue, its sign fixed by the parity of |A n R|
        exps = {x(t): 2 * ((t in r) + (t in aset - r)) - 1 for t in range(1, n + 1)}
        scale = Polynomial.monomial(Monomial.of(exps))
        expected = scale * f_a
        lead_sign = 1 if len(aset & r) % 2 else -1
        if entry != expected * lead_sign:
            return finish("Refuted", f"residue mismatch at R={_subset_id(r)}: {entry.render()}")

    if all(_divides(f_a, val) for val in vec.values()):
        return finish("Refuted", "every entry of v is divisible by f_A; v is trivial")
    return finish("Verified", None)


def verify_decoupled_nullvectors(dims: Sequence[int], direction: int) -> Verdict:
    """Tensor nullvectors of the product-graph Laplacian, one direction.

    u_k = x(i,k+1) e_1 - x(i,1) e_(k+1) kills the row vector of coordinate
    variables exactly, so 1 x ... x u_k x ... x 1 must send every row of the
    full Laplacian into multiples of the coordinate sum for that direction.
    Independence of the n_i - 1 vectors is checked by rational rank at a
    seeded random integer point.
    """
    t0 = time.perf_counter()
    dims = [int(d) for d in dims]
    i = int(direction)
    claim = f"decoupled-null:dims={_dims_id(dims)}:dir={i}"
    if not 1 <= i <= len(dims):
        raise ValueError("direction out of range")
    ni = dims[i - 1]
    if ni < 2:
        raise ValueError("direction needs at least two coordinate values")

    g = cartesian_product([complete_graph(d) for d in dims])
    lap = weighted_laplacian(g, WeightScheme.DECOUPLED)

    def finish(status: str, witness: Optional[str]) -> Verdict:
        return Verdict(claim, status, witness, (time.perf_counter() - t0) * 1000.0)

    vectors: list[dict[int, Polynomial]] = []
    for k in range(1, ni):
        u = {1: Polynomial.variable(xd(i, k + 1)), k + 1: -Polynomial.variable(xd(i, 1))}  # labels are 1-based
        vectors.append({s: u[label[i - 1]] for s, label in enumerate(g.labels) if label[i - 1] in u})
    _, products, bad = _residues(lap, vectors, coordinate_sum(i, ni))
    if bad is not None:
        k, r = bad
        return finish("Refuted", f"k={k + 1}, row {g.labels[r]}: {products[k][r].render()}")

    rng = random.Random(20260817)
    bindings = {xd(i, j): rng.randrange(2, 10 ** 6) for j in range(1, ni + 1)}
    numeric = [[Fraction(w[s].substitute(bindings).as_int()) if s in w else Fraction(0) for s in range(g.n)]
               for w in vectors]
    if _rational_rank(numeric) != ni - 1:
        return finish("Refuted", "nullvectors are linearly dependent at a random point")
    return finish("Verified", None)


def _rational_rank(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _threshold_blocks(lam: Partition) -> list[tuple[int, int, int]]:
    """Maximal runs (a, b, height) of equal conjugate values past the square.

    Rows s+1 .. n-1 split into runs with constant conjugate part; the run
    height is that common value.  Runs never straddle the square corner:
    conjugate parts are > s on one side and <= s on the other.
    """
    n = len(lam)
    s = durfee(lam)
    conj = conjugate(lam)
    blocks = []
    r = s + 1
    while r <= n - 1:
        h = conj[r - 1]
        b = 1
        while r + b <= n - 1 and conj[r + b - 1] == h:
            b += 1
        blocks.append((r, b, h))
        r += b
    return blocks


def _g_case_tag(k: int, h: int, a: int, b: int, n: int) -> str:
    if 2 <= k <= h:
        return "(i)"
    if h + 1 <= k <= a:
        return "(ii)"
    if a + 1 <= k <= n - 1 and k != a + b:
        return "(iii)"
    if k == a + b:
        return "(iv)"
    return "outside-cases"


def _f_case_tag(j: int, r: int, edges: set[tuple[int, int]]) -> str:
    if j < r:
        return "(i)"
    if j == r:
        return "(ii)"
    return "(iii)" if (min(j, r), max(j, r)) in edges else "(iv)"


def verify_threshold_nullvectors(lam: PartitionLike) -> list[Verdict]:
    """Nullvector witnesses for every claimed factor of the threshold sum.

    The reduced Laplacian drops the first row and column.  Rows 2..s get
    one vector per f_r factor; each maximal block of equal conjugate values
    past the square gets b-1 in-block vectors plus one reaching outside the
    block, all of which must land in multiples of the block's g factor.
    Refutations carry the row index and its case tag.
    """
    lam = _coerce_partition(lam)
    g = threshold_graph(lam)
    if not is_connected(g):
        raise Disconnected("nullvector claims concern connected threshold graphs")
    n = g.n
    s = durfee(lam)
    conj = conjugate(lam)
    lap = weighted_laplacian(g, WeightScheme.THRESHOLD_IN_OUT)
    lhat, _ = reduce_matrix(lap, 0, 0)
    edge_set = {(e.u + 1, e.v + 1) for e in g.edges}
    verdicts: list[Verdict] = []

    def check(claim: str, vec: dict[int, Polynomial], divisor: Polynomial, case_tag) -> None:
        """vec maps vertex labels (2..n) to entries; rows of lhat are labels 2..n."""
        t0 = time.perf_counter()
        _, (rows,), bad = _residues(lhat, [{label - 2: val for label, val in vec.items()}], divisor)
        witness = None
        if bad is not None:
            label = bad[1] + 2
            witness = f"case {case_tag(label)}, row {label}: {rows[bad[1]].render()}"
        ms = (time.perf_counter() - t0) * 1000.0
        verdicts.append(Verdict(claim, "Refuted" if witness else "Verified", witness, ms))

    def x_sum(upto: int) -> Polynomial:
        return poly_sum(Polynomial.variable(x(i)) for i in range(1, upto + 1))

    for r in range(2, s + 1):
        vec = {r: x_sum(r)}
        for i2 in range(r + 1, conj[r - 1] + 1):
            vec[i2] = Polynomial.variable(x(r))
        check(f"threshold-null:lam={_lam_id(lam)}:f:r={r}", vec, threshold_f_factor(lam, r),
              partial(_f_case_tag, r=r, edges=edge_set))

    for a, b, h in _threshold_blocks(lam):
        g_poly = x_sum(h)
        g_tag = partial(_g_case_tag, h=h, a=a, b=b, n=n)
        for k in range(1, b):
            vec = {
                a + 1: Polynomial.variable(y(a + k + 1)),
                a + k + 1: -Polynomial.variable(y(a + 1)),
            }
            check(f"threshold-null:lam={_lam_id(lam)}:g:a={a}:inblock:k={k}", vec, g_poly, g_tag)

        vec = {i: Polynomial.variable(y(a + b)) for i in range(1 + h, a + 1)}
        vec[a + b] = -poly_sum(Polynomial.variable(y(i)) for i in range(1 + h, a + 1))
        check(f"threshold-null:lam={_lam_id(lam)}:g:a={a}:extra", vec, g_poly, g_tag)

    return verdicts


def verify_cayley(n: int) -> Verdict:
    """Degree-weighted tree sum of K_n equals the closed product."""
    det = tree_enumerator_det(complete_graph(n), WeightScheme.CAYLEY_PRUFER)
    return verify_identity(f"cayley:n={n}", det, cayley_prufer_rhs(n))


def verify_directions(dims: Sequence[int]) -> Verdict:
    """Direction-weighted tree sum of a product equals the subset product."""
    g = cartesian_product([complete_graph(d) for d in dims])
    det = tree_enumerator_det(g, WeightScheme.DIRECTION)
    return verify_identity(f"directions:dims={_dims_id(dims)}", det, directions_rhs(dims))


def verify_cube(n: int, use_brute: bool = False) -> Verdict:
    """Substituted tree sum of the hypercube equals the subset product."""
    g = hypercube(n)
    if use_brute:
        lhs = enumerate_sum(g, TreeStatistic.CUBE_SUBSTITUTED)
    else:
        lhs = tree_enumerator_det(g, WeightScheme.CUBE_LAURENT)
    return verify_identity(f"cube:n={n}", lhs, cube_rhs(n))


def verify_threshold(lam: PartitionLike) -> Verdict:
    """In/out-degree tree sum of a threshold graph equals the row product."""
    lam = _coerce_partition(lam)
    g = threshold_graph(lam)
    det = tree_enumerator_det(g, WeightScheme.THRESHOLD_IN_OUT)
    return verify_identity(f"threshold:lam={_lam_id(lam)}", det, threshold_rhs(lam))
