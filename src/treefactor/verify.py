"""Mechanical checks of the factorization identities and nullvector claims.

Every check is exact: two polynomials are compared term by term, or a
division is performed and must leave no remainder and a quotient with no
negative exponent.  Results are Verdict records; a Refuted verdict always
carries a concrete witness (the term or matrix entry that broke the
claim), never just a boolean.

Each nullvector claim is one `_residues` call: its divisors, and L v as
one stack of its rows (see `polyring`) per vector, one `_dot` over the
Laplacian's stacked columns.  `_stacked_columns` stacks them straight from
the cells of `_laplacian_cells`, read through this module's name (the one
place a test perturbs the Laplacian), and builds no Polynomial.  The
threshold and decoupled checks divide each stack once, and
`_first_undivided` unstacks only a stack that fails, returning its first
failing row.  The cube and decoupled nullvector checks build their
operands once per size, in bounded caches: `_cube_operands` (Q_n's subset
labels and the stacked columns of its Laurent Laplacian without the empty
subset's row and column) is keyed on n, `_product_operands` (a product
graph's labels and the stacked columns of its decoupled Laplacian) on the
dims, and each also on the cell function this module names, so a patched
one builds and keeps its own; the threshold check stacks its own
Laplacian's columns, less row and column 0, once per call.
`formulas._cube_factors` is cached on n and read through this module's
name, `formulas.threshold_f_factor` on the layout size, r and lam_r, and
`_decoupled_enumerator` on the dims.  No cache is keyed by a threshold
sequence or holds a residue or a verdict.

`_divide` alone decides divisibility in the polynomial ring, and the
decoupled rank check's Gram determinant is integer Bareiss on its entries.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import count
from operator import mul
from typing import Callable, Optional, Sequence, Union

from .formulas import (
    _cube_factors,
    _cube_subsets,
    _cube_variables,
    _decoupled_factors,
    _decoupled_variables,
    _in_out_variables,
    _threshold_blocks,
    _threshold_factors,
    _validated_connected,
    cube_rhs,
    cayley_prufer_rhs,
    decoupled_enumerator_factors,
    directions_rhs,
    threshold_rhs,
)
from .graphs import (
    Graph,
    InvalidSize,
    PartitionLike,
    _coerce_partition,
    cartesian_product,
    complete_graph,
    conjugate,
    durfee,
    hypercube,
    threshold_graph,
)
from .laplacian import WeightScheme, _eliminate, _laplacian_cells, tree_enumerator_det
from .polyring import (
    ExponentOverflow,
    Monomial,
    NotDivisible,
    Polynomial,
    _Layout,
    _dot,
    _new,
    _pdiv,
    _rekey,
    poly_sum,
    share_layout,
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


def _verdict(claim_id: str, ok: bool, witness: Optional[str], t0: float) -> Verdict:
    """The verdict of a check that started at perf_counter() time t0."""
    return Verdict(claim_id, "Verified" if ok else "Refuted", witness, (time.perf_counter() - t0) * 1000.0)


def verify_identity(claim_id: str, lhs: Polynomial, rhs: Union[Polynomial, int]) -> Verdict:
    """Exact equality check; the witness is the leading term of the difference."""
    t0 = time.perf_counter()
    witness = None if lhs == rhs else _term_text(*(lhs - rhs).leading_term())
    return _verdict(claim_id, witness is None, witness, t0)


@cache
def _decoupled_enumerator(dims: tuple[int, ...]) -> Polynomial:
    g = cartesian_product([complete_graph(d) for d in dims])
    return tree_enumerator_det(g, WeightScheme.DECOUPLED)


def decoupled_enumerator(dims: Sequence[int]) -> Polynomial:
    """Tree sum of a product of complete graphs under per-coordinate weights.

    Cached: the same polynomial backs the divisibility check, the
    conjecture scan, and the acceptance suite.
    """
    return _decoupled_enumerator(tuple(int(d) for d in dims))


def verify_divisibility(dims: Sequence[int]) -> tuple[list[Verdict], Polynomial]:
    """Each claimed factor power divides the product-graph tree sum exactly.

    Returns one verdict per factor plus the final quotient after dividing
    by all of them, one division per claimed power; a failed division
    refutes that factor's claim and leaves the quotient at its last good
    value.
    """
    quotient = decoupled_enumerator(dims)
    verdicts: list[Verdict] = []
    for base, exp in decoupled_enumerator_factors(dims):
        base_text = base.render() if base.n_terms == 1 else f"({base.render()})"
        claim = f"divides:dims={_dims_id(dims)}:factor={base_text}^{exp}"
        t0 = time.perf_counter()
        witness = None
        divisor, dividend = share_layout([base ** exp, quotient])
        try:
            quotient = _divide(dividend, divisor)
        except NotDivisible as err:
            witness = _term_text(*err.witness)
        verdicts.append(_verdict(claim, witness is None, witness, t0))
    return verdicts, quotient


def conjecture_scan(dims: Sequence[int]) -> tuple[Verdict, Polynomial]:
    """Scan the fully divided quotient for a negative coefficient.

    The witness reports the minimum coefficient and its monomial whether or
    not the scan passes, so the CLI can print findings for open cases.
    """
    t0 = time.perf_counter()
    claim = f"nonneg:dims={_dims_id(dims)}"
    verdicts, quotient = verify_divisibility(dims)
    for v in verdicts:
        if not v.ok:
            return _verdict(claim, False, v.witness, t0), quotient
    if quotient.is_zero:
        return _verdict(claim, True, "quotient is 0", t0), quotient
    # ties go to the graded-lex largest term; only the witness is decoded
    key, coeff = min(quotient._terms.items(), key=lambda kc: (kc[1], -kc[0]))
    wit = f"min coefficient {coeff} at {_new(quotient._lay, {key: 1}).render()}"
    return _verdict(claim, coeff >= 0, wit, t0), quotient


def _subset_id(a: Sequence[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(a)) + "}"


def _divide(p: Polynomial, divisor: Polynomial) -> Polynomial:
    """p / divisor in the polynomial ring: exact, with no negative exponent in the quotient.

    `div_exact` divides in the Laurent ring, where a monomial is a unit and
    divides everything.  An exact quotient's content, the key of its least
    exponent per variable, is p's less the divisor's, so the quotient has no
    negative exponent exactly when p's content is at least the divisor's
    in every digit; `_pdiv` with a floor of 0 tests both at once.  p and
    divisor share a layout, and 0 is divisible by anything.  On failure,
    NotDivisible's witness is p's graded-lex largest term short of the
    divisor's content, or else the term where `div_exact`'s division stops.
    """
    lay, terms, g = p._lay, p._terms, divisor._terms
    if not terms:
        return p
    try:
        return _new(lay, _pdiv(terms, g, 0, lay))
    except NotDivisible:
        pass
    floor = lay.content(g)
    low = lay.content(terms) - floor
    if low & lay.guard:
        short = max(k for k in terms if (k - floor) & lay.guard)
        raise NotDivisible("a quotient exponent is negative", witness=(lay.monomial(short), terms[short]))
    return _new(lay, _pdiv(terms, g, low, lay))  # raises: a quotient above low >= 0 passed above


def _divides(divisor: Polynomial, p: Polynomial) -> bool:
    """`_divide`'s verdict alone: does divisor divide p in the polynomial ring?"""
    divisor, p = share_layout([divisor, p])
    try:
        _divide(p, divisor)
    except NotDivisible:
        return False
    return True


# a matrix's layout and its columns, each a stack of its entries by row
_Columns = tuple[_Layout, list[dict[int, int]]]
# a Laplacian's layout and its nonzero cells, as `_laplacian_cells` gives them
_Cells = tuple[_Layout, dict[tuple[int, int], dict[int, int]]]


def _stacked_columns(cells: _Cells, size: int, strike: Optional[int] = None) -> _Columns:
    """The size x size matrix's cells but row and column `strike`, each column a stack: L v is one `_dot` over them."""
    lay, cells = cells
    cut = size if strike is None else strike
    at = [i - (i > cut) for i in range(size)]  # a kept row's or column's index
    cols: list[dict[int, int]] = [{} for _ in range(size - (cut < size))]
    for (i, j), terms in cells.items():
        if cut != i and cut != j:
            offset, col = at[i] * lay.step, cols[at[j]]
            for k, c in terms.items():
                col[k + offset] = c
    return lay, cols


def _residues(columns: _Columns, vectors: Sequence[dict[int, Polynomial]],
              divisors: Sequence[Polynomial]) -> tuple[list[Polynomial], list[dict[int, int]]]:
    """The divisors and L v as one stack of its rows for each vector v, all on one layout.

    A vector maps column indices to entries.  Every entry and divisor go
    onto the columns' layout once, so no product or division re-keys; a
    variable outside it re-keys the columns too.  L v is one key-sum over
    the columns at the vector's nonzero entries, scanned for range: a proof
    from the operands' spans would read as many keys, each far slower (see
    `polyring`).  Nothing is divided.
    """
    src, cols = columns
    base, *shared = share_layout([_new(src, {}), *divisors, *(val for v in vectors for val in v.values())])
    lay = base._lay
    if len(lay.vars) != len(src.vars):
        cols = [lay.stack(_rekey(row, src, lay) for row in src.unstack(col, len(cols))) for col in cols]
    entries = iter(shared[len(divisors):])
    stacks = [_dot([(cols[col], val._terms) for col, val in zip(v, entries) if val._terms]) for v in vectors]
    for stacked in stacks:
        lay.check_range(stacked)
    return shared[:len(divisors)], stacks


def _first_undivided(divisor: Polynomial, stacks: list[dict[int, int]],
                     size: int) -> Optional[tuple[int, int, Polynomial]]:
    """The first row of L v that divisor does not divide, as (vector, row, that row), or None.

    Each stack of L v's `size` rows shares the divisor's layout.  The
    divisor has no row digit, so it divides the stack in the polynomial
    ring exactly when it divides every row; only a stack that fails is
    unstacked, to find its first failing row by `_divides`.
    """
    lay, g = divisor._lay, divisor._terms
    for k, stacked in enumerate(stacks):
        try:
            _pdiv(stacked, g, 0, lay)
        except (NotDivisible, ExponentOverflow):  # the stack runs top row first; the rows in order say which
            for r, terms in enumerate(lay.unstack(stacked, size)):
                if not _divides(divisor, row := _new(lay, terms)):
                    return k, r, row
            raise AssertionError("the stack of L v fails a division that each of its rows passes") from None
    return None


@lru_cache(maxsize=64)
def _cube_operands(n: int, cells_of) -> tuple[tuple[frozenset, ...], _Columns]:
    """Q_n's nonempty subset labels and the stacked columns of its Laurent
    Laplacian without the empty subset's row and column."""
    g = hypercube(n)
    if g.labels[0]:  # the row and column struck below must be the empty subset's
        raise AssertionError("hypercube vertex 0 is not the empty subset")
    return g.labels[1:], _stacked_columns(cells_of(g, WeightScheme.CUBE_LAURENT), g.n, 0)


@lru_cache(maxsize=64)
def _product_operands(dims: tuple[int, ...], cells_of) -> tuple[tuple, _Columns]:
    """The labels of the product of complete graphs K_d over dims and the
    stacked columns of its decoupled Laplacian."""
    g = cartesian_product([complete_graph(d) for d in dims])
    return g.labels, _stacked_columns(cells_of(g, WeightScheme.DECOUPLED), g.n)


def verify_cube_nullvector(n: int, a_set: Sequence[int]) -> Verdict:
    """The palindromic nullvector of the reduced hypercube Laplacian.

    v_S = x_A^2 - (-1)^(|A n S|) x_(A\\S)^2 over nonempty S; each entry of
    L-hat v must equal the closed residue
    -(-1)^(|A n R|) (x_R x_(A\\R))^2 / x_[n] f_A, which is f_A times a unit,
    so the equality alone proves that f_A divides it.  v itself must have
    an entry not divisible by f_A (so it is nonzero in the quotient).
    """
    t0 = time.perf_counter()
    aset = frozenset(int(i) for i in a_set)
    claim = f"cube-null:n={n}:A={_subset_id(aset)}"
    if n < 1:
        raise InvalidSize(f"hypercube dimension n={n} must be at least 1")
    outside = aset - set(range(1, n + 1))
    if outside:
        raise ValueError(f"direction {min(outside)} is outside 1..{n}")
    if len(aset) < 2:
        raise ValueError("need a direction subset of size at least 2")

    labels, columns = _cube_operands(n, _laplacian_cells)
    f_a, _ = _cube_factors(n)[n + _cube_subsets(n).index(tuple(sorted(aset)))]  # past q1..qn
    # f_A and the x_t on the Laplacian's layout, so v is keyed once
    base, f_a, *xs = share_layout([_new(columns[0], {}), f_a, *_cube_variables(tuple(range(1, n + 1)))[1]])
    lay = base._lay
    # x_t's key at t = 1..n (0 at 0), and x_A^2's: K is linear, so a product is a key-sum
    keys = [0, *(next(iter(x._terms)) for x in xs)]
    a_square = 2 * sum(keys[t] for t in aset)

    # v_S is 0 where S misses A, and otherwise x_A^2 -+ x_(A\S)^2
    vec = {col: _new(lay, {a_square: 1, a_square - 2 * sum(keys[t] for t in aset & s): 1 if len(aset & s) % 2 else -1})
           for col, s in enumerate(labels) if aset & s}
    _, (residues,) = _residues(columns, [vec], [f_a])
    # the closed residues, one per row R, are f_A times the stack of
    # x_(A u R)^2 / x_[n], signed by the parity of |A n R|
    a_square -= sum(keys)
    units = lay.stack({a_square + 2 * sum(keys[t] for t in r - aset): 1 if len(aset & r) % 2 else -1} for r in labels)
    closed = _dot([(units, f_a._terms)])
    lay.check_range(closed)
    if residues != closed:
        size = len(labels)
        r, entry = next((r, row) for r, row, want in zip(labels, lay.unstack(residues, size), lay.unstack(closed, size))
                        if row != want)
        return _verdict(claim, False, f"residue mismatch at R={_subset_id(r)}: {_new(lay, entry).render()}", t0)

    if all(_divides(f_a, val) for val in vec.values()):
        return _verdict(claim, False, "every entry of v is divisible by f_A; v is trivial", t0)
    return _verdict(claim, True, None, t0)


def verify_decoupled_nullvectors(dims: Sequence[int], direction: int) -> Verdict:
    """Tensor nullvectors of the product-graph Laplacian, one direction.

    u_k = x(i,k+1) e_1 - x(i,1) e_(k+1) kills the row vector of coordinate
    variables exactly, so 1 x ... x u_k x ... x 1 must send every row of the
    full Laplacian into multiples of the coordinate sum for that direction.
    Independence modulo c_i is checked at a seeded random integer point on
    c_i = 0 (x(i,1) is minus the drawn others): real vectors are
    independent exactly when their Gram matrix has a nonzero determinant,
    which integer Bareiss (`laplacian._eliminate`) takes.
    """
    t0 = time.perf_counter()
    dims = [int(d) for d in dims]
    i = int(direction)
    claim = f"decoupled-null:dims={_dims_id(dims)}:dir={i}"
    if not 1 <= i <= len(dims):
        raise ValueError(f"direction {i} is outside 1..{len(dims)}")
    ni = dims[i - 1]
    if ni < 2:
        raise ValueError("direction needs at least two coordinate values")

    labels, columns = _product_operands(tuple(dims), _laplacian_cells)
    coords = [label[i - 1] for label in labels]
    xs = (None, *_decoupled_variables(tuple(dims))[1][i - 1])  # xs[j] is x(i,j)
    # the list ends with one coordinate sum per direction of size >= 2
    c_i, mult = _decoupled_factors(dims)[-sum(d >= 2 for d in dims[i - 1:])]
    # the rank check's random point on c_i = 0, x(i,j) at point[j]
    rng = random.Random(20260817)
    point = [0, 0] + [rng.randrange(2, 10 ** 6) for _ in range(ni - 1)]
    point[1] = -sum(point)
    vectors: list[dict[int, Polynomial]] = []
    numeric: list[list[int]] = []
    # a cofactor of L has c_i to the mult, so L itself owes one vector more
    for k in range(2, mult + 3):
        u = {1: (xs[k], point[k]), k: (-xs[1], -point[1])}  # labels are 1-based
        vectors.append({s: u[c][0] for s, c in enumerate(coords) if c in u})
        numeric.append([u[c][1] if c in u else 0 for c in coords])
    (c_i,), stacks = _residues(columns, vectors, [c_i])
    bad = _first_undivided(c_i, stacks, len(labels))
    if bad is not None:
        k, r, row = bad
        return _verdict(claim, False, f"k={k + 1}, row {labels[r]}: {row.render()}", t0)
    if not _eliminate([[sum(map(mul, a, b)) for b in numeric] for a in numeric]):
        return _verdict(claim, False, "nullvectors are linearly dependent at a random point", t0)
    return _verdict(claim, True, None, t0)


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


def _f_case_tag(j: int, r: int, g: Graph) -> str:
    if j < r:
        return "(i)"
    if j == r:
        return "(ii)"
    return "(iii)" if (r - 1, j - 1) in {(e.u, e.v) for e in g.edges} else "(iv)"


def verify_threshold_nullvectors(lam: PartitionLike) -> list[Verdict]:
    """Nullvector witnesses for every claimed factor of the threshold sum.

    The reduced Laplacian drops the first row and column.  Rows 2..s get
    one vector per f_r factor; each maximal block of equal conjugate values
    past the square gets b-1 in-block vectors plus one reaching outside the
    block, all of which must land in multiples of the block's g factor.
    Refutations carry the row index and its case tag.
    """
    lam, g = _validated_connected(lam)
    n = g.n
    s = durfee(lam)
    conj = conjugate(lam)
    columns = _stacked_columns(_laplacian_cells(g, WeightScheme.THRESHOLD_IN_OUT), n, 0)
    xs, ys = _in_out_variables(n)  # xs[i] is x_i, ys[i] is y_i

    # x1, the f_r for r = 2..s, then one g factor per block: each f_r owes
    # one vector, a block's g as many as its multiplicity b.  Each claim is
    # (its name, its vector over vertex labels 2..n, its factor's index and
    # its case tag, which takes the label)
    blocks = _threshold_blocks(lam, conj)
    factors = _threshold_factors(lam, blocks)
    claims: list[tuple[str, dict[int, Polynomial], int, Callable[[int], str]]] = []
    for r in range(2, s + 1):
        vec = {r: poly_sum(xs[1:r + 1]), **{i2: xs[r] for i2 in range(r + 1, conj[r - 1] + 1)}}
        claims.append((f"f:r={r}", vec, r - 1, partial(_f_case_tag, r=r, g=g)))

    for index, (a, b, h), (_, mult) in zip(count(s), blocks, factors[s:]):
        g_tag = partial(_g_case_tag, h=h, a=a, b=b, n=n)
        for k in range(1, mult):
            vec = {a + 1: ys[a + k + 1], a + k + 1: -ys[a + 1]}
            claims.append((f"g:a={a}:inblock:k={k}", vec, index, g_tag))

        vec = {i: ys[a + b] for i in range(1 + h, a + 1)}
        vec[a + b] = -poly_sum(ys[1 + h:a + 1])
        claims.append((f"g:a={a}:extra", vec, index, g_tag))

    # row r of L-hat is label r + 2; each verdict's time is its share of
    # the residues and its own division
    t0 = time.perf_counter()
    divisors, stacks = _residues(columns, [{label - 2: val for label, val in vec.items()} for _, vec, _, _ in claims],
                                 [f for f, _ in factors])
    share = (time.perf_counter() - t0) / max(len(claims), 1)
    lam_id = _lam_id(lam)
    verdicts: list[Verdict] = []
    for (claim, _, index, case), stacked in zip(claims, stacks):
        t0 = time.perf_counter() - share
        bad = _first_undivided(divisors[index], [stacked], n - 1)
        witness = None if bad is None else f"case {case(bad[1] + 2)}, row {bad[1] + 2}: {bad[2].render()}"
        verdicts.append(_verdict(f"threshold-null:lam={lam_id}:{claim}", witness is None, witness, t0))
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
