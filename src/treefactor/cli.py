"""Command-line front end.

Verbs: count, enumerate, spectrum, verify, conjecture-scan.  Output is
canonical polynomial text or JSON and is byte-identical across repeated
invocations; verification timings are therefore zeroed in CLI JSON output
(the library report keeps real timings).

Exit codes: 0 success or all claims Verified, 1 any claim Refuted, 2 usage
or graph-spec error, an exponent too large to pack, a verify run with no
claim to check or an --out file that cannot be written, 3 a predicted size past its cap.
Each warning the library raises is one `warning: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from typing import Optional, Sequence

from .formulas import (
    FormMismatch,
    NotDivisibleCount,
    Spectrum,
    product_spectrum,
)
from .graphs import (
    Graph,
    cartesian_product,
    hypercube,
    multigraph_kn,
    threshold_graph,
)
from .laplacian import (
    IndexOutOfRange,
    SchemeMismatch,
    WeightScheme,
    tree_enumerator_det,
)
from .polyring import ExponentOverflow, Polynomial, q
from .treebrute import (
    DEFAULT_CAP,
    CapExceeded,
    DisconnectedGraph,
    SCHEME_FOR_STATISTIC,
    TreeStatistic,
    enumerate_sum,
    spanning_tree_count,
)
from .verify import (
    Verdict,
    conjecture_scan,
    verify_cayley,
    verify_cube,
    verify_cube_nullvector,
    verify_decoupled_nullvectors,
    verify_directions,
    verify_divisibility,
    verify_threshold,
    verify_threshold_nullvectors,
)


class ParseError(ValueError):
    """Graph spec rejected; carries the character position."""

    def __init__(self, text: str, pos: int, why: str):
        super().__init__(f"bad graph spec {text!r} at position {pos}: {why}")
        self.pos = pos


_K_FACTOR = re.compile(r"K(\d+)(?:\((\d+)\))?$")


def parse_spec(text: str) -> Graph:
    """K4 | K3xK4xK2 | K3(2) | Q3 | T:3,1,1,1 -> Graph."""
    if not text:
        raise ParseError(text, 0, "empty spec")
    if text.startswith("T:"):
        parts = []
        pos = 2
        for chunk in text[2:].split(","):
            if not chunk.isdigit():
                raise ParseError(text, pos, "expected a degree")
            parts.append(int(chunk))
            pos += len(chunk) + 1
        return threshold_graph(parts)
    if text.startswith("Q"):
        if not text[1:].isdigit():
            raise ParseError(text, 1, "expected a dimension")
        return hypercube(int(text[1:]))
    if text.startswith("K"):
        factors = []
        pos = 0
        for chunk in text.split("x"):
            m = _K_FACTOR.match(chunk)
            if m is None:
                raise ParseError(text, pos, "expected K<n> or K<n>(<q>)")
            n = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) else 1
            if n < 1:
                raise ParseError(text, pos, "complete graph needs at least one vertex")
            factors.append(multigraph_kn(n, mult))
            pos += len(chunk) + 1
        if len(factors) == 1:
            return factors[0]
        return cartesian_product(factors)
    raise ParseError(text, 0, "expected K, Q, or T:")


_DEFAULT_STAT = {
    "plain": TreeStatistic.DEGREE,
    "product": TreeStatistic.DIR_DECOUPLED,
    "cube": TreeStatistic.CUBE_SUBSTITUTED,
    "threshold": TreeStatistic.IN_OUT_DEGREE,
}


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        sys.stdout.write(payload + "\n")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers for {what}")


def _tree_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"a tree cap cannot be negative: {cap}")
    return cap


def _cmd_count(args) -> int:
    g = parse_spec(args.spec)
    n = spanning_tree_count(g)
    payload = json.dumps({"count": str(n)}) if args.json else str(n)
    _emit(payload, args.out)
    return 0


def _cmd_enumerate(args) -> int:
    g = parse_spec(args.spec)
    if args.brute and args.weights:
        raise ValueError("--brute enumerates a statistic; --weights picks the determinant scheme")
    if args.brute and args.reduce is not None:
        raise ValueError("--reduce applies to the determinant route")
    stat = TreeStatistic(args.stat) if args.stat else _DEFAULT_STAT[g.kind]
    if args.brute:
        try:
            poly = enumerate_sum(g, stat, cap=args.cap)
        except DisconnectedGraph:
            poly = Polynomial.zero()
    else:
        scheme = WeightScheme(args.weights) if args.weights else SCHEME_FOR_STATISTIC[stat]
        remove = None
        if args.reduce is not None:
            indices = _parse_ints(args.reduce, "--reduce")
            if len(indices) != 2:
                raise argparse.ArgumentTypeError("--reduce takes two 1-based indices R,S")
            r, s = indices
            if not (1 <= r <= g.n and 1 <= s <= g.n):
                raise IndexOutOfRange(f"--reduce indices must be in 1..{g.n}")
            remove = (r - 1, s - 1)
        poly = tree_enumerator_det(g, scheme, remove=remove)
    payload = poly.to_json() if args.json else poly.render()
    _emit(payload, args.out)
    return 0


def _spectrum_dims(g: Graph) -> tuple[tuple[int, ...], list]:
    if g.kind == "plain":
        mult = g.edges[0].multiplicity if g.edges else 1
        return (g.n,), [mult]
    if g.kind in ("product", "cube"):
        scales = [1] * len(g.dims)
        for e in g.edges:
            scales[e.direction - 1] = e.multiplicity
        return tuple(g.dims), scales
    raise SchemeMismatch("spectrum applies to complete-graph products and cubes")


def _cmd_spectrum(args) -> int:
    g = parse_spec(args.spec)
    dims, scales = _spectrum_dims(g)
    # a size-1 factor only doubles the subsets with multiplicity-0 rows, so
    # the others keep their own direction variables, as in directions_rhs
    kept = [(i, d, s) for i, (d, s) in enumerate(zip(dims, scales), start=1) if d > 1]
    spec = Spectrum([(Polynomial.zero(), 1)])  # a single vertex
    if kept:
        spec = product_spectrum([d for _, d, _ in kept], qs=[Polynomial.variable(q(i)) * s for i, _, s in kept])
    if args.json:
        rows = [{"eigenvalue": eig.to_json_obj(), "multiplicity": m} for eig, m in spec]
        payload = json.dumps(rows)
    else:
        payload = "\n".join(f"{eig.render()}\t{m}" for eig, m in spec)
    _emit(payload, args.out)
    return 0


def _verdict_line(v: Verdict) -> str:
    line = f"{v.claim_id}: {v.status}"
    return f"{line} -- {v.witness}" if v.witness else line


def _verdict_row(v: Verdict) -> dict:
    row = v.to_json_obj()
    row["elapsed_ms"] = 0.0  # byte-identical output across runs
    return row


def _cmd_verify(args) -> int:
    verdicts = sorted(args.check(args), key=lambda v: v.claim_id)
    if not verdicts:
        raise ValueError("nothing to check: the input gives no claim")
    if args.json:
        payload = json.dumps([_verdict_row(v) for v in verdicts], indent=2)
    else:
        payload = "\n".join(_verdict_line(v) for v in verdicts)
    _emit(payload, args.out)
    return 0 if all(v.ok for v in verdicts) else 1


def _cmd_scan(args) -> int:
    verdict, quotient = conjecture_scan(_parse_ints(args.dims, "--dims"))
    if args.json:
        payload = json.dumps(dict(_verdict_row(verdict), quotient_terms=quotient.n_terms), indent=2)
    else:
        payload = f"note: quotient has {quotient.n_terms} terms\n{_verdict_line(verdict)}"
    _emit(payload, args.out)
    return 0 if verdict.ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")

    p = argparse.ArgumentParser(
        prog="treefactor",
        description="Exact weighted spanning tree enumerators and their factorizations.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("count", parents=[common], help="integer spanning tree count")
    c.add_argument("spec", help="graph spec: K4, K3xK4xK2, K3(2), Q3, T:3,1,1,1")
    c.set_defaults(fn=_cmd_count)

    e = sub.add_parser("enumerate", parents=[common], help="weighted spanning tree sum")
    e.add_argument("spec")
    e.add_argument("--stat", choices=[s.value for s in TreeStatistic],
                   help="tree statistic (default depends on the graph family)")
    e.add_argument("--weights", choices=[w.value for w in WeightScheme],
                   help="override the determinant weight scheme")
    e.add_argument("--brute", action="store_true", help="sum over explicit trees")
    e.add_argument("--reduce", metavar="R,S", help="1-based row,col to strike")
    e.add_argument("--cap", type=_tree_cap, default=DEFAULT_CAP, help="max trees to enumerate")
    e.set_defaults(fn=_cmd_enumerate)

    s = sub.add_parser("spectrum", parents=[common],
                       help="Laplacian eigenvalue/multiplicity pairs")
    s.add_argument("spec")
    s.set_defaults(fn=_cmd_spectrum)

    v = sub.add_parser("verify", help="check a factorization or nullvector claim")
    vsub = v.add_subparsers(dest="target", required=True)
    # each target's check looks its verify_* up at call time
    vc = vsub.add_parser("cayley", parents=[common])
    vc.add_argument("--n", type=int, required=True)
    vc.set_defaults(check=lambda a: [verify_cayley(a.n)])
    vd = vsub.add_parser("directions", parents=[common])
    vd.add_argument("--dims", required=True)
    vd.set_defaults(check=lambda a: [verify_directions(_parse_ints(a.dims, "--dims"))])
    vv = vsub.add_parser("divisibility", parents=[common])
    vv.add_argument("--dims", required=True)
    vv.set_defaults(check=lambda a: verify_divisibility(_parse_ints(a.dims, "--dims"))[0])
    vq = vsub.add_parser("cube", parents=[common])
    vq.add_argument("--n", type=int, required=True)
    vq.add_argument("--brute", action="store_true")
    vq.set_defaults(check=lambda a: [verify_cube(a.n, use_brute=a.brute)])
    vt = vsub.add_parser("threshold", parents=[common])
    vt.add_argument("--lam", required=True)
    vt.set_defaults(check=lambda a: [verify_threshold(_parse_ints(a.lam, "--lam"))])
    vcn = vsub.add_parser("cube-null", parents=[common])
    vcn.add_argument("--n", type=int, required=True)
    vcn.add_argument("--set", required=True, help="direction subset, e.g. 1,3")
    vcn.set_defaults(check=lambda a: [verify_cube_nullvector(a.n, _parse_ints(a.set, "--set"))])
    vdn = vsub.add_parser("decoupled-null", parents=[common])
    vdn.add_argument("--dims", required=True)
    vdn.add_argument("--dir", type=int, required=True)
    vdn.set_defaults(check=lambda a: [verify_decoupled_nullvectors(_parse_ints(a.dims, "--dims"), a.dir)])
    vtn = vsub.add_parser("threshold-null", parents=[common])
    vtn.add_argument("--lam", required=True)
    vtn.set_defaults(check=lambda a: verify_threshold_nullvectors(_parse_ints(a.lam, "--lam")))
    v.set_defaults(fn=_cmd_verify)

    cs = sub.add_parser("conjecture-scan", parents=[common],
                        help="divide out the claimed factors and scan coefficients")
    cs.add_argument("--dims", required=True)
    cs.set_defaults(fn=_cmd_scan)
    return p


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        try:
            return args.fn(args)
        except CapExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (ValueError, IndexOutOfRange, argparse.ArgumentTypeError, ExponentOverflow, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (FormMismatch, NotDivisibleCount) as exc:
            print(f"refuted: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
