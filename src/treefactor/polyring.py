"""Exact sparse multivariate Laurent polynomials over the integers.

A polynomial is a finite map from monomials to nonzero arbitrary-precision
integer coefficients; a monomial is a finite map from variables to nonzero
(possibly negative) integer exponents.

Variables come in five indexed families, totally ordered by family tag and
then by indices:

    q1 < q2 < ... < x1 < x2 < ... < y1 < ... < x(1,1) < x(1,2) < ...
                                              < e(1,2) < e(1,3) < ...

Monomials are compared in graded lexicographic order: total degree first,
then exponent vectors lexicographically with earlier variables more
significant.

A Polynomial is stored one way only: a dict {key: coefficient} over a
layout, a sorted tuple of variables (v_0, ..., v_{n-1}).  The exponent
vector e has the key

    K(e) = deg(e) * 2**(32*n) + sum_i e_i * 2**(32*(n-1-i)),

whose base-2**32 digits are the exponents, signed (a negative digit
borrows from the one above).  K is linear, so multiplying monomials is
adding keys, and exponent zero has key 0 in every layout.  With every
exponent in [-2**28, 2**28) K is one-to-one and integer order is
graded-lex order; an exponent outside raises ExponentOverflow.  Operands
on different layouts are re-keyed onto the layout of all their variables
first (a constant's key 0 needs none), and `share_layout` is the one way
there: `==`, `*` and `div_exact` align their two operands with it, and
callers put many polynomials on one layout up front.
`poly_sum` is the one sum loop (`+` and `-` call it); `_dot` is the
product kernel: the sum of a*b over pairs of term dicts its caller has put
on one layout, for `*`, `**` and `poly_product` (through `_times`, which
shifts the keys itself when an operand has one term),
`laplacian._minors_det` and the nullvector checks of `verify`.

`_dot` only computes: it scans no key, and it rebuilds its result to drop
zeros only when a coefficient cancelled.  Each caller proves its result in
range or scans it with `_Layout.check_range`.  A polynomial's span is its
largest |exponent|, and an exponent of a product is a sum of one exponent
per factor, so a product of factors whose spans add up to less than 2**28
cannot leave the range: `poly_product` then folds with no scan (and
scans each partial product otherwise), and `_minors_det` scans no minor
when its rows' spans do.  `*`
scans its output, and so do the nullvector residues: reading a span costs
about seven scans per key, so it pays only where the factors hold far
fewer keys than their product.
`**` checks k times the base's least and largest exponents once, before
it builds anything, which bounds every partial power, and scans nothing
after.  A one-term base's key is multiplied by k; a linear form (every key
a unit key) is raised to k >= 2 by `_linear_power`, one term per
composition of k; any other base is multiplied in k times, since where
products collide the compositions far outnumber them.  `_linear_power`
also takes a start key, a monomial its terms are built on, so a monomial
times a power is one pass with no shifted copy.  Two closed forms of
`formulas` prove their range by construction and read none:
`cayley_prufer_rhs` is one such pass from x1...xn's key, and
`threshold_rhs` folds its rows by `_times` onto x1 yn's key, each row
adding at most 1 to any exponent; in both no exponent passes n.

A stack holds many polynomials of one layout in one term dict: row r's keys
are offset by r * step, step = 2**(32*(n+2)) being a digit above the degree
digit, which gets 64 bits.  A key lies within step/2 of 0, so the rows keep
to their own bands, and `_Layout.stack` and `_Layout.unstack` are inverse.
Guard, range and content masks cover only the variable digits, so they
read a stacked key as the key in its band.  `_dot` of stacks by unstacked
term dicts is the stack of the rows' products, and `_pdiv` of a stack by an
unstacked divisor divides each row in its own band, the top row first.  A
stack is never wrapped as a Polynomial: its degree and render would be
wrong.

Variable and Monomial objects are built only at the edge: Polynomial(dict),
terms(), coefficient(), a witness, parse and JSON; `substitute` strips the
bound digits off each key.
The weight key tables of `laplacian` and the closed forms and factor lists
of `formulas` build each Variable once per index set
(`laplacian._indexed_layout`); the
nullvector operands and divisors of `verify` build none, taking the cached
variables and factor lists of `formulas`, on the Laplacian's layout.
`treebrute` sums the weight tables' keys along its tree walk, the part of
it that stays independent of the determinant.
Division is decided in the Laurent ring, testing whether a leading term
divides with one guard bit per digit of the keys (Monagan and Pearce,
"Sparse polynomial division using a heap", J. Symb. Comp. 46(7), 2011).
A one-term divisor adds no key, so `_pdiv` shifts the keys by it, as `*`
does, with the same per-key tests made for all keys at once; only a
division that fails runs the heap, to raise at the term where it fails.
`_KroneckerImage` packs a square matrix of polynomials into integers and
decodes its determinant's image, for `laplacian.determinant`; it sizes its
box from the keys alone, and only `matrix()` unpacks a term.
"""

from __future__ import annotations

import heapq
import json
import re
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import cache, lru_cache, reduce
from itertools import chain, compress, count
from math import comb, isqrt
from operator import add, mul, neg, or_
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union


class DivisionByZero(ZeroDivisionError):
    """Division of a polynomial by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """Exact division failed; carries the first stuck term as witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ExponentOverflow(ArithmeticError):
    """An exponent left the range a packed key can hold."""


class NonInvertibleSubstitution(ValueError):
    """A variable with negative exponent was bound to a non-unit."""


class Family(IntEnum):
    Q = 0
    X = 1
    Y = 2
    XD = 3
    E = 4


_FAMILY_ARITY = {Family.Q: 1, Family.X: 1, Family.Y: 1, Family.XD: 2, Family.E: 2}
_FAMILY_PREFIX = {Family.Q: "q", Family.X: "x", Family.Y: "y", Family.XD: "x", Family.E: "e"}


@dataclass(frozen=True)
class Variable:
    """An indexed variable; E-family endpoints are stored smaller-first."""

    family: Family
    indices: tuple[int, ...]

    def __post_init__(self):
        arity = _FAMILY_ARITY[self.family]
        if len(self.indices) != arity:
            raise ValueError(f"{self.family.name} variables take {arity} indices")
        if any(i < 1 for i in self.indices):
            raise ValueError("variable indices are positive integers")
        if self.family is Family.E:
            u, v = self.indices
            if u == v:
                raise ValueError("edge variables have distinct endpoints")
            if u > v:
                object.__setattr__(self, "indices", (v, u))

    @property
    def _key(self) -> tuple:
        return (int(self.family), self.indices)

    def __lt__(self, other: "Variable") -> bool:
        return self._key < other._key

    def render(self) -> str:
        if self.family in (Family.XD, Family.E):
            a, b = self.indices
            return f"{_FAMILY_PREFIX[self.family]}({a},{b})"
        return f"{_FAMILY_PREFIX[self.family]}{self.indices[0]}"

    _PATTERN = re.compile(
        r"^(?:(?P<fam>[qxy])(?P<i>\d+)|(?P<fam2>[xe])\((?P<a>\d+),(?P<b>\d+)\))$"
    )

    @classmethod
    def parse(cls, text: str) -> "Variable":
        m = cls._PATTERN.match(text)
        if not m:
            raise ValueError(f"not a variable: {text!r}")
        if m.group("fam"):
            fam = {"q": Family.Q, "x": Family.X, "y": Family.Y}[m.group("fam")]
            return cls(fam, (int(m.group("i")),))
        fam = {"x": Family.XD, "e": Family.E}[m.group("fam2")]
        return cls(fam, (int(m.group("a")), int(m.group("b"))))


def q(i: int) -> Variable:
    return Variable(Family.Q, (i,))


def x(i: int) -> Variable:
    return Variable(Family.X, (i,))


def y(i: int) -> Variable:
    return Variable(Family.Y, (i,))


def xd(direction: int, member: int) -> Variable:
    return Variable(Family.XD, (direction, member))


def evar(u: int, v: int) -> Variable:
    return Variable(Family.E, (u, v))


@dataclass(frozen=True)
class Monomial:
    """Product of variable powers; exponents nonzero, sorted by variable."""

    exps: tuple[tuple[Variable, int], ...] = ()

    @classmethod
    def of(cls, exps: Union[Mapping[Variable, int], Iterable[tuple[Variable, int]]]) -> "Monomial":
        acc: dict[Variable, int] = {}
        items = exps.items() if isinstance(exps, Mapping) else exps
        for v, e in items:
            acc[v] = acc.get(v, 0) + e
        clean = tuple(sorted(((v, e) for v, e in acc.items() if e), key=lambda p: p[0]._key))
        return cls(clean)

    @property
    def is_one(self) -> bool:
        return not self.exps

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def as_dict(self) -> dict[Variable, int]:
        return dict(self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial.of((*self.exps, *other.exps))


def _mono(exps: tuple) -> Monomial:
    """A Monomial from exponent pairs already canonical (sorted, nonzero)."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "exps", exps)
    return m


_BITS = 32
_HALF = 1 << (_BITS - 1)
_EXP_LIMIT = 1 << 28  # exponents lie in [-_EXP_LIMIT, _EXP_LIMIT)
_RANGE = "[-2**28, 2**28), the range of a packed key"


class _Layout:
    """Sorted variables of a key space, with the constants its keys need.

    `guard` holds 2**31 in every variable digit.  Adding it clears the
    borrows between digits, so masking and flipping it back leaves 32-bit
    two's complement exponents for one struct call to unpack; read on a
    difference of keys, its bits are clear exactly when no digit is negative.
    `step` is the offset between the rows of a stack.
    """

    __slots__ = ("vars", "pos", "unit", "names", "guard", "vmask", "nbytes",
                 "range_bias", "range_mask", "step", "_unpack")

    def __init__(self, variables: tuple[Variable, ...]):
        n = len(variables)
        self.vars = variables
        self.pos = {v: i for i, v in enumerate(variables)}
        top = 1 << (_BITS * n)
        ones = sum(1 << (_BITS * i) for i in range(n))  # 1 in every variable digit
        self.unit = [(1 << (_BITS * (n - 1 - i))) + top for i in range(n)]
        self.names = [v.render() for v in variables]
        self.guard = ones * _HALF
        self.vmask = top - 1
        self.nbytes = 4 * n
        # e + 2**28 lies in [0, 2**29) exactly when e is in range
        self.range_bias = ones * _EXP_LIMIT
        self.range_mask = ones * ((1 << _BITS) - 2 * _EXP_LIMIT)
        self.step = 1 << (_BITS * (n + 2))
        self._unpack = struct.Struct(f">{n}i").unpack

    def __reduce__(self):  # pickle by variables; the struct unpacker is not picklable
        return _layout, (self.vars,)

    def exponents(self, key: int) -> tuple[int, ...]:
        """One exponent per variable of the layout."""
        g = self.guard
        return self._unpack((((key + g) & self.vmask) ^ g).to_bytes(self.nbytes, "big"))

    def monomial(self, key: int) -> Monomial:
        exps = self.exponents(key)
        return _mono(tuple(compress(zip(self.vars, exps), exps)))

    def text(self, key: int) -> str:
        exps = self.exponents(key)
        return "*".join([name if e == 1 else f"{name}^{e}" for name, e in compress(zip(self.names, exps), exps)])

    def key(self, exps: Iterable[tuple[Variable, int]]) -> int:
        """Key of an exponent list; KeyError for a variable outside the layout."""
        k = 0
        for v, e in exps:
            if not -_EXP_LIMIT <= e < _EXP_LIMIT:
                raise ExponentOverflow(f"exponent {e} of {v.render()} is outside {_RANGE}")
            k += e * self.unit[self.pos[v]]
        return k

    def content(self, keys: Iterable[int]) -> int:
        """Key of the per-variable minimum exponent over `keys` (absent = 0; 0 for no keys).

        Keeps a running minimum of the digits offset by 2**31 (as in
        `exponents`), all digits at once: two in-range digits differ by less
        than 2**29, so u - m + 2**30 has bit 30 set in a digit exactly when
        u >= m there, and no digit borrows.  Nothing is decoded per key.  The
        same holds for negated keys, so -content(-keys) is the maximum's key.
        """
        g, vmask, ones = self.guard, self.vmask, self.guard >> (_BITS - 1)
        keys = iter(keys)
        m = (next(keys, 0) + g) & vmask
        for k in keys:
            u = (k + g) & vmask
            keep = (((u - m + (ones << 30)) >> 30) & ones) * 0xFFFFFFFF
            m = u ^ ((u ^ m) & keep)
        return sum(map(mul, self._unpack((m ^ g).to_bytes(self.nbytes, "big")), self.unit))

    def stack(self, rows: Iterable[dict[int, int]]) -> dict[int, int]:
        """The term dicts as one stack, row r's keys offset by r * step."""
        return {k + offset: c for offset, terms in zip(count(0, self.step), rows) for k, c in terms.items()}

    def unstack(self, stacked: dict[int, int], rows: int) -> list[dict[int, int]]:
        """The `rows` term dicts of a stack, each keyed back to its own band."""
        out: list[dict[int, int]] = [{} for _ in range(rows)]
        half, shift = self.step >> 1, self.step.bit_length() - 1
        for k, c in stacked.items():
            r = (k + half) >> shift
            out[r][k - (r << shift)] = c
        return out

    def check_range(self, keys: Iterable[int]) -> None:
        if reduce(or_, map(self.range_bias.__add__, keys), 0) & self.range_mask:
            raise ExponentOverflow(f"a computed exponent is outside {_RANGE}")

    def span(self, keys: Iterable[int]) -> int:
        """The largest |exponent| over the keys, 0 for none; a stacked key reads as the key in its band.

        Each key is unpacked.  Reading the least and the largest exponents
        off `content` of the keys and of their negations unpacks only two,
        but re-encodes and decodes both for every call: on the factors of
        the closed forms, half of them one key, that took twice as long.
        """
        return max(map(abs, chain.from_iterable(map(self.exponents, keys))), default=0)


# The caches are bounded; an evicted layout stays valid for the polynomials
# that hold it, and a fresh one with equal variables is recognized below.
@lru_cache(maxsize=1024)
def _layout(variables: tuple[Variable, ...]) -> _Layout:
    return _Layout(variables)


_EMPTY = _layout(())


def _layout_of(variables: Iterable[Variable]) -> _Layout:
    """The layout of the variables, each taken once."""
    return _layout(tuple(sorted(set(variables), key=lambda v: v._key)))


def _rekey(terms: dict[int, int], src: _Layout, dst: _Layout) -> dict[int, int]:
    """The same terms keyed over `dst`, whose variables include `src`'s."""
    if src is dst or not src.vars or not terms or len(src.vars) == len(dst.vars):
        return terms
    units = [dst.unit[dst.pos[v]] for v in src.vars]
    exponents = src.exponents
    return {sum(map(mul, exponents(k), units)): c for k, c in terms.items()}


def _new(lay: _Layout, terms: dict[int, int]) -> "Polynomial":
    p = object.__new__(Polynomial)
    p._lay = lay
    p._terms = terms
    return p


def share_layout(polys: Iterable["Polynomial"]) -> list["Polynomial"]:
    """The polynomials, unchanged in value, all keyed over one layout.

    Arithmetic among them then does no layout work at all.  Polynomials that
    already share one layout come back as they are, with no call per item.
    A constant's one key, 0, is 0 on every layout, so it joins no union.
    """
    polys = [p if isinstance(p, Polynomial) else _coerce_poly(p) for p in polys]
    layouts = {p._lay for p in polys}
    if len(layouts) <= 1:
        return polys
    varied = [lay for lay in layouts if lay.vars]
    lay = varied[0] if len(varied) == 1 else _layout_of(v for lay in varied for v in lay.vars)
    return [p if p._lay is lay else _new(lay, _rekey(p._terms, p._lay, lay)) for p in polys]


class _KroneckerImage:
    """A square polynomial matrix M sent to integers by one Kronecker substitution.

    Each row is first divided by its content, a monomial, by subtracting
    its key; `_shift`, the summed key, multiplies the determinant back at
    the end when it is decoded.  Every exponent is then >= 0, and two bounds fix a box that
    holds det M:
      - each term of det M takes one entry from every row, so the exponent
        of v is at most D_v, the sum over rows of the row's largest one
        (read off the keys: minus the content of the row's negated keys);
      - |coefficient| <= H = isqrt(prod_i sum_j ||a_ij||_1**2), Hadamard's
        bound for polynomial matrices (Goldstein and Graham, SIAM Review 16,
        1974): a coefficient is at most max |det M(z)| over the unit torus,
        and there |a_ij(z)| <= ||a_ij||_1, so Hadamard's inequality bounds
        |det M(z)| by the product of the rows' 2-norms.  A coefficient is an
        integer, so the square root may be rounded down.
    When every row has one total degree (a key's top digit), so does det M
    (the sum of the rows'), and the last variable is set to 1: its
    exponent is that degree minus the others'.

    phi sends each packed variable v_i to X**s_i with X = 2**b, b - 1 = the
    bits of H and s_i = prod_{j>i}(D_j + 1).  phi is a ring homomorphism,
    so det phi(M) = phi(det M).  Inside the box distinct exponent vectors
    land on distinct slots of b bits, and every coefficient is one balanced
    base-X digit in [-X/2, X/2), so phi(det M) decodes to det M.  `narrow`
    shrinks the box to a tree sum's.
    """

    __slots__ = ("bits", "_lay", "_rows", "_shift", "_units", "_radix", "_width", "_count")

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        n = len(rows)
        flat = share_layout(p for row in rows for p in row)
        lay = self._lay = flat[0]._lay
        exponents, top = lay.exponents, _BITS * len(lay.vars)
        high = [0] * len(lay.vars)
        shift = degree = 0
        homogeneous, bound = True, 1
        self._rows = []
        for i in range(n):
            row = [p._terms for p in flat[i * n:(i + 1) * n]]
            keys = [k for terms in row for k in terms]
            content = lay.content(keys)
            # the row's largest exponents are minus the content of its negated keys
            high = list(map(add, high, exponents(-lay.content(map(neg, keys)) - content)))
            # keys sort in graded-lex order, so the extreme keys hold the extreme degrees
            low, top_degree = ((extreme(keys, default=content) - content) >> top for extreme in (min, max))
            homogeneous = homogeneous and low == top_degree
            degree += top_degree
            shift += content
            bound *= sum(sum(map(abs, terms.values())) ** 2 for terms in row)
            self._rows.append((content, row))
        units = list(lay.unit)
        if homogeneous and units:  # the last variable is set to 1
            high.pop()
            last = units.pop()
            # K is linear, so e_last = degree - sum(e) adds degree * last to
            # the key and takes last off the unit of every other variable
            shift += degree * last
            units = [u - last for u in units]
        self._shift, self._units = shift, units
        self._radix = [d + 1 for d in high]
        self._width = isqrt(bound).bit_length() + 1  # bits per slot, with a sign bit
        self.bits = reduce(mul, self._radix, self._width)
        self._count = None  # the tree count, once narrowed

    def narrow(self, tops: Sequence[int], count: int) -> None:
        """Shrink the box, never widening it, for det M = +-a tree sum whose coefficients add up to count > 0.

        Less the summed row contents, tops[i], the i-th variable's largest
        exponent over the trees, bounds its exponent in det M, and count
        bounds a coefficient.  A slot too narrow fails the decode, and so
        does a leading top too small; a top too small on another variable
        would move a term unseen, so the tops must be exact.
        """
        lows = self._lay.exponents(sum(content for content, _ in self._rows))
        self._radix = [min(r, top - low + 1) for r, top, low in zip(self._radix, tops, lows)]
        self._width = min(self._width, count.bit_length() + 1)
        self.bits = reduce(mul, self._radix, self._width)
        self._count = count

    def matrix(self) -> list[list[int]]:
        """phi(M): entry sum_e c_e * X**(sum_i e_i * s_i) over the packed variables."""
        shifts = [0] * (len(self._radix) + 1)  # in bits; the variable set to 1 shifts by 0
        step = self._width
        for i in reversed(range(len(self._radix))):
            shifts[i] = step
            step *= self._radix[i]
        exponents = self._lay.exponents
        return [[sum(c << sum(map(mul, exponents(k - content), shifts)) for k, c in terms.items()) for terms in row]
                for content, row in self._rows]

    def polynomial(self, value: int) -> Polynomial:
        """det M from value = phi(det M); AssertionError if it leaves the box.

        A narrowed image's coefficients must have one sign and add up to
        +-count: one past its slot carries, which breaks either.
        """
        w = self._width
        mask, half = (1 << w) - 1, 1 << (w - 1)
        bias = half * (((1 << self.bits) - 1) // mask)  # X/2 in every slot
        raw = value + bias
        if raw >> self.bits:  # -1 below the box, > 0 above it
            raise AssertionError("the determinant's Kronecker image does not fit its box")
        radix, units = self._radix[::-1], self._units[::-1]
        terms: dict[int, int] = {}
        live = raw ^ bias  # nonzero in exactly the slots of nonzero coefficients
        while live:  # lowest slot first, skipping the empty ones
            at = (live & -live).bit_length() - 1
            at -= at % w
            live &= ~(mask << at)
            key, rest = self._shift, at // w
            for r, unit in zip(radix, units):
                rest, e = divmod(rest, r)
                key += e * unit
            terms[key] = ((raw >> at) & mask) - half
        coefficients = terms.values()
        if self._count is not None and not sum(map(abs, coefficients)) == abs(sum(coefficients)) == self._count:
            raise AssertionError("the tree sum's coefficients do not have one sign and add up to its tree count")
        self._lay.check_range(terms)
        return _new(self._lay, terms)


class Polynomial:
    """Canonical integer-coefficient Laurent polynomial."""

    __slots__ = ("_lay", "_terms")

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None):
        terms = terms or {}
        lay = _layout_of(v for m in terms for v, _ in m.exps)
        acc: dict[int, int] = {}
        for m, c in terms.items():
            if c:
                k = lay.key(m.exps)
                acc[k] = acc.get(k, 0) + c
        self._lay = lay
        self._terms = {k: c for k, c in acc.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _new(_EMPTY, {})

    @classmethod
    def one(cls) -> "Polynomial":
        return _new(_EMPTY, {0: 1})

    @classmethod
    def integer(cls, c: int) -> "Polynomial":
        return _new(_EMPTY, {0: c} if c else {})

    @classmethod
    def variable(cls, v: Variable, exp: int = 1) -> "Polynomial":
        return cls({Monomial.of(((v, exp),)): 1})

    @classmethod
    def monomial(cls, m: Monomial, coeff: int = 1) -> "Polynomial":
        return cls({m: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        mono = self._lay.monomial
        return ((mono(k), c) for k, c in self._terms.items())

    def coefficient(self, m: Monomial) -> int:
        try:
            return self._terms.get(self._lay.key(m.exps), 0)
        except KeyError:  # a variable this polynomial's layout does not hold
            return 0

    def variables(self) -> set[Variable]:
        return set(self.min_exponents())

    def min_exponents(self) -> dict[Variable, int]:
        """Per-variable minimum exponent over all terms (variables present only)."""
        lay = self._lay
        mins: dict[Variable, int] = {}
        for v, col in zip(lay.vars, zip(*map(lay.exponents, self._terms))):
            present = [e for e in col if e]
            if present:
                mins[v] = min(present)
        return mins

    def canonical_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending graded-lex order."""
        terms, mono = self._terms, self._lay.monomial
        return [(mono(k), terms[k]) for k in sorted(terms, reverse=True)]

    def leading_term(self) -> tuple[Monomial, int]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        k = max(self._terms)
        return self._lay.monomial(k), self._terms[k]

    def as_int(self) -> int:
        if not self._terms:
            return 0
        if len(self._terms) == 1 and 0 in self._terms:
            return self._terms[0]
        raise ValueError("polynomial is not constant")

    def is_nonneg(self) -> tuple[bool, Optional[tuple[Monomial, int]]]:
        """All coefficients >= 0?  Witness is the largest offending term."""
        k = max((k for k, c in self._terms.items() if c < 0), default=None)
        return (True, None) if k is None else (False, (self._lay.monomial(k), self._terms[k]))

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = share_layout((self, other))
        return a._terms == b._terms

    __hash__ = None  # mutable-dict backed; equality is structural

    def __add__(self, other) -> "Polynomial":
        return poly_sum((self, other)) if isinstance(other, (int, Polynomial)) else NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _new(self._lay, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + -other if isinstance(other, (int, Polynomial)) else NotImplemented

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Polynomial)):
            return NotImplemented
        a, b = share_layout((self, other))
        out = _times(a._terms, b._terms)
        a._lay.check_range(out)
        return _new(a._lay, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        terms, lay = self._terms, self._lay
        if k == 1:  # p itself, already in range
            return self
        if k < 0 and (len(terms) != 1 or abs(next(iter(terms.values()))) != 1):
            raise ValueError("negative power of a non-unit polynomial")
        if not terms:
            return Polynomial.integer(0 ** k)
        # p**k reaches k times the least and the largest exponent in p, and
        # an exponent of p**j, 0 <= j <= k, lies between j times those: this
        # one check bounds every partial power, and nothing is scanned after
        exps = list(chain.from_iterable(map(lay.exponents, terms))) or [0]
        low, high = sorted((k * min(exps), k * max(exps)))
        if low < -_EXP_LIMIT or high >= _EXP_LIMIT:
            raise ExponentOverflow(f"an exponent of a power to the {k} is outside {_RANGE}")
        if len(terms) == 1:  # K is linear: the key times k, and c**k = c**|k| for a unit c
            (key, c), = terms.items()
            return _new(lay, {key * k: c ** abs(k)})
        if not k:
            return Polynomial.one()
        if set(lay.unit).issuperset(terms):  # a linear form: one term per composition of k
            return _new(lay, _linear_power(terms, k))
        # any other base: where its products collide, the compositions far
        # outnumber the products of multiplying by it k times, and those are
        # fewer than squaring's
        out = terms
        for _ in range(k - 1):
            out = _times(out, terms)
        return _new(lay, out)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[Variable, Union["Polynomial", int, Variable, Monomial]]) -> "Polynomial":
        """Replace bound variables by polynomials; unbound variables pass through.

        A variable occurring with a negative exponent may only be bound to
        an invertible monomial (single term, coefficient +-1).
        """
        values = {v: _coerce_poly(val) for v, val in bindings.items()}
        base, *shared = share_layout([self, *values.values()])
        lay, shared = base._lay, dict(zip(values, shared))
        held = [v in shared for v in lay.vars]
        bound, units = list(compress(lay.vars, held)), list(compress(lay.unit, held))
        # the terms grouped by their bound exponents, keyed with those digits removed
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for k, c in base._terms.items():
            pattern = tuple(compress(lay.exponents(k), held))
            groups.setdefault(pattern, {})[k - sum(map(mul, pattern, units))] = c

        @cache
        def power(v: Variable, e: int) -> Polynomial:
            try:
                return shared[v] ** e
            except ValueError:  # a negative power of a non-unit
                raise NonInvertibleSubstitution(
                    f"{v.render()} has negative exponent; binding must be a unit monomial") from None

        return poly_sum(_new(lay, rest) * poly_product(power(v, e) for v, e in zip(bound, pattern) if e)
                        for pattern, rest in groups.items())

    # -- serialization -----------------------------------------------------

    def render(self) -> str:
        terms, text = self._terms, self._lay.text
        if not terms:
            return "0"
        chunks: list[str] = []
        for k in sorted(terms, reverse=True):
            c = terms[k]
            mag = abs(c)
            if not k:
                body = str(mag)
            elif mag == 1:
                body = text(k)
            else:
                body = f"{mag}*{text(k)}"
            if chunks:
                chunks.append(f" + {body}" if c > 0 else f" - {body}")
            else:
                chunks.append(body if c > 0 else f"-{body}")
        return "".join(chunks)

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero()
        pieces = re.split(r"\s([+-])\s", s)
        terms: dict[Monomial, int] = {}
        sign = 1
        idx = 0
        while idx < len(pieces):
            chunk = pieces[idx]
            mono, coeff = _parse_term(chunk)
            coeff *= sign
            terms[mono] = terms.get(mono, 0) + coeff
            if idx + 1 < len(pieces):
                sign = 1 if pieces[idx + 1] == "+" else -1
            idx += 2
        return cls(terms)

    def to_json_obj(self) -> list:
        lay, terms = self._lay, self._terms
        names, exponents = lay.names, lay.exponents
        out = []
        for k in sorted(terms, reverse=True):
            exps = exponents(k)
            out.append({"coeff": str(terms[k]), "exps": [[n, e] for n, e in compress(zip(names, exps), exps)]})
        return out

    @classmethod
    def from_json_obj(cls, obj) -> "Polynomial":
        terms: dict[Monomial, int] = {}
        for entry in obj:
            mono = Monomial.of([(Variable.parse(vs), int(e)) for vs, e in entry["exps"]])
            terms[mono] = terms.get(mono, 0) + int(entry["coeff"])
        return cls(terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, s: str) -> "Polynomial":
        return cls.from_json_obj(json.loads(s))

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def _coerce_poly(val) -> Polynomial:
    if isinstance(val, Polynomial):
        return val
    if isinstance(val, int):
        return Polynomial.integer(val)
    if isinstance(val, Variable):
        return Polynomial.variable(val)
    if isinstance(val, Monomial):
        return Polynomial.monomial(val)
    raise TypeError(f"cannot coerce {val!r} to Polynomial")


_TERM_FACTOR = re.compile(
    r"^(?P<int>\d+)$|^(?P<var>[qxye]\d+|[xe]\(\d+,\d+\))(?:\^(?P<exp>-?\d+))?$"
)


def _parse_term(chunk: str) -> tuple[Monomial, int]:
    s = chunk.strip()
    coeff = 1
    if s.startswith("-"):
        coeff = -1
        s = s[1:].strip()
    if not s:
        raise ValueError(f"bad term: {chunk!r}")
    exps: list[tuple[Variable, int]] = []
    for factor in s.split("*"):
        m = _TERM_FACTOR.match(factor.strip())
        if not m:
            raise ValueError(f"bad factor {factor!r} in term {chunk!r}")
        if m.group("int") is not None:
            coeff *= int(m.group("int"))
        else:
            v = Variable.parse(m.group("var"))
            e = int(m.group("exp")) if m.group("exp") is not None else 1
            exps.append((v, e))
    return Monomial.of(exps), coeff


# ---------------------------------------------------------------------------
# Kernels on {key: coeff} dicts sharing one layout.
# ---------------------------------------------------------------------------


def _dot(pairs: Iterable[tuple[dict[int, int], dict[int, int]]]) -> dict[int, int]:
    """The sum of a*b over pairs of term dicts keyed over one layout, as one key-sum.

    Nothing is range-checked: the caller proves the range or scans the
    result.  Zeros are dropped only when a coefficient cancelled.
    """
    out: dict[int, int] = {}
    get = out.get
    for a, b in pairs:
        if len(a) > len(b):  # the shorter operand outside, as in `_times`
            a, b = b, a
        bt = b.items()
        for ka, ca in a.items():
            for kb, cb in bt:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c} if 0 in out.values() else out


def _times(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a*b over one layout, unchecked: a one-term operand shifts the other's keys, any other pair runs `_dot`."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) != 1:
        return _dot(((a, b),))
    (ka, ca), = a.items()
    return {ka + kb: ca * cb for kb, cb in b.items()}


def _linear_power(terms: dict[int, int], k: int, start: int = 0) -> dict[int, int]:
    """start times (c_1*v_1 + ... + c_m*v_m)**k, m >= 2, from its terms, keyed
    by each v_i's unit key; `start` is a monomial's key, 1's by default.

    By the multinomial theorem the composition (e_1..e_m) of k gives one
    term, key sum e_i*key_i and coefficient k!/prod e_i! * prod c_i**e_i.
    The variables are placed in turn into groups of partial terms, group r
    holding those with r of k left to place; placing e of r multiplies by
    C(r, e).  A partial term that places none of a variable stays in its
    group, so the groups are updated in place, smallest first: each is read
    before the larger ones add to it, and each partial term is built once.
    The last two variables split what is left between them.  The partial
    terms start at `start`'s key, so every term comes out shifted by it,
    with no second pass; nothing is range-checked, as in `_dot`.
    """
    *head, (key2, c2), (key1, c1) = terms.items()
    left = [{} for _ in range(k)] + [{start: 1}]
    for key, c in head:
        for r, part in enumerate(left):
            if part:
                for e in range(1, r + 1):
                    shift, scale = e * key, comb(r, e) * c ** e
                    left[r - e].update({kp + shift: cp * scale for kp, cp in part.items()})
    splits = [(part, e * key2 + (r - e) * key1, comb(r, e) * c2 ** e * c1 ** (r - e))
              for r, part in enumerate(left) if part for e in range(r + 1)]
    return {kp + shift: cp * scale for part, shift, scale in splits for kp, cp in part.items()}


def _pdiv(f: dict[int, int], g: dict[int, int], floor: int, lay: _Layout) -> dict[int, int]:
    """Quotient f/g with no quotient exponent below floor's; NotDivisible otherwise.

    Keys are popped in strictly decreasing graded-lex order; every key a
    reduction introduces is strictly smaller than the key being reduced,
    so a stuck leading term can never cancel later and is a definitive
    non-divisibility witness, raised as a (monomial, coefficient) pair.
    Quotient terms are bounded below by the floor and above in degree, so
    the loop ends.  On a stack f, g unstacked, a reduction stays in its
    row's band, so f divides exactly when every row does, and the quotient
    is the stack of the rows' quotients.

    A one-term g introduces no key, so the quotient is f's keys shifted by
    g's, as in `*`: the floor, divisibility and range tests are made for
    every key at once (a bit in an or of keys is a bit in one of them), and
    only a division that fails runs the heap, which raises at the largest
    failing key.
    """
    guard, bias, rmask = lay.guard, lay.range_bias, lay.range_mask
    kg = max(g)
    cg = g[kg]
    if len(g) == 1:
        shifted = [k - kg for k in f]
        if not (reduce(or_, map((-floor).__add__, shifted), 0) & guard or any(map(cg.__rmod__, f.values()))
                or reduce(or_, map(bias.__add__, shifted), 0) & rmask):
            return dict(zip(shifted, map(cg.__rfloordiv__, f.values())))
    rest = [(k - kg, c) for k, c in g.items() if k != kg]
    work = dict(f)
    heap = [-k for k in work]
    heapq.heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        w = -heapq.heappop(heap)
        c = work.pop(w, 0)
        if not c:
            continue
        t = w - kg
        if (t - floor) & guard or c % cg:
            raise NotDivisible(f"remainder term {_new(lay, {w: c}).render()} is not reducible",
                               witness=(lay.monomial(w), c))
        if (t + bias) & rmask:
            lay.check_range((t,))
        cq = c // cg
        quotient[t] = cq
        for d, cd in rest:
            kk = w + d
            nc = work.get(kk)
            if nc is None:
                work[kk] = -cq * cd
                heapq.heappush(heap, -kk)
            elif nc != cq * cd:
                work[kk] = nc - cq * cd
            else:
                del work[kk]
    return quotient


def div_exact(n: Union[Polynomial, int], d: Union[Polynomial, int]) -> Polynomial:
    """Exact quotient n/d in the Laurent ring; NotDivisible if inexact.

    Every monomial is a unit there: the content of an exact quotient (its
    per-variable minimum exponent, whatever the sign) is the difference of
    the operand contents, so no quotient term may fall below it.
    """
    n, d = share_layout((n, d))
    if d.is_zero:
        raise DivisionByZero("division by zero polynomial")
    lay, f, g = n._lay, n._terms, d._terms
    if not f:
        return _new(lay, {})
    return _new(lay, _pdiv(f, g, lay.content(f) - lay.content(g), lay))


def poly_sum(items: Iterable[Union[Polynomial, int]]) -> Polynomial:
    """The items added in order on one layout; a sum's keys are its items', already in range."""
    first, *rest = share_layout(items) or [Polynomial.zero()]
    out = dict(first._terms)
    get = out.get
    for p in rest:
        for k, c in p._terms.items():
            out[k] = get(k, 0) + c
    return _new(first._lay, {k: c for k, c in out.items() if c} if 0 in out.values() else out)


def poly_product(items: Iterable[Union[Polynomial, int]]) -> Polynomial:
    """The items multiplied in order on one layout.

    An exponent of a partial product is a sum of one exponent per factor,
    so when the factors' spans (largest |exponent|) add up to less than
    2**28 no partial product leaves the range and the fold scans nothing.
    Otherwise each partial product is scanned, as `*` scans.
    """
    items = share_layout(items)
    if not items:
        return Polynomial.one()
    lay = items[0]._lay
    scan = sum(lay.span(p._terms) for p in items) >= _EXP_LIMIT
    out = {0: 1}
    for p in items:
        out = _times(out, p._terms)
        if scan:
            lay.check_range(out)
    return _new(lay, out)
