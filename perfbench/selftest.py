"""Self-test of the benchmark on tiny claim lists.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json declares is printed, by name and
with its unit, in both modes, and that a deliberately wrong right-hand
side or a claim that raises is counted as a failure instead of crashing
the run, and that the all-ones check holds on the 27,672-term `cube_rhs(4)`,
which is too slow for the workloads.  Exits non-zero on the first broken
expectation.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import Workload, brute_claim, formula_claim, ones, route_claim

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(lib, wrong_rhs: bool) -> list:
    F, G, V = lib.formulas, lib.graphs, lib.verify
    claims = [
        route_claim(lib, "cayley:n=4", lambda: V.verify_cayley(4), lambda: G.complete_graph(4),
                    lib.laplacian.WeightScheme.CAYLEY_PRUFER, lambda: F.cayley_prufer_rhs(4)),
        formula_claim(lib, "rhs:cube:n=2", lambda: G.hypercube(2), lambda: F.cube_rhs(2)),
    ]
    if wrong_rhs:
        # K3's degree tree sum against K4's closed form: Refuted, and the
        # right-hand side counts 16 trees where K3 has 3
        claims.append(brute_claim(lib, "brute:cayley:n=3", lambda: G.complete_graph(3),
                                  lib.treebrute.TreeStatistic.DEGREE, lambda: F.cayley_prufer_rhs(4)))
        # a disconnected threshold sequence: the closed form raises
        claims.append(formula_claim(lib, "rhs:threshold:lam=1,1,0", lambda: G.threshold_graph((1, 1, 0)),
                                    lambda: F.threshold_rhs((1, 1, 0))))
    return claims


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_printed(result: dict, declared: list) -> None:
    lines = run.report_lines(result)
    last = json.loads(run.result_line(result))
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, "result line keys")
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        expect(last["metrics"].get(name, {}).get("unit") == unit, f"{name} missing or not in {unit}")
        expect(any(ln.startswith(f"# {name} ") and ln.endswith(f" {unit}") for ln in lines),
               f"{name} not reported with its unit")
    expect(len(last["metrics"]) == len(declared), "undeclared metrics printed")


def main() -> int:
    good = Workload("tiny", lambda lib: tiny(lib, wrong_rhs=False))
    bad = Workload("tiny-wrong", lambda lib: tiny(lib, wrong_rhs=True))

    result = run.run_workload(good, seed=3, seconds=0.0, trace=False)
    check_printed(result, SPEC["end_to_end"])
    expect(result["correct"] and result["failed"] == 0, "tiny correct workload reported failures")
    expect(result["metrics"]["claims_ok_frac"]["value"] == 1.0, "claims_ok_frac below 1 with no failures")

    result = run.run_workload(good, seed=3, seconds=0.0, trace=True)
    check_printed(result, SPEC["per_layer"])
    expect(result["metrics"]["formulas.rhs_calls"]["value"] == 2, "formulas.rhs_calls per traced pass")

    result = run.run_workload(bad, seed=4, seconds=0.0, trace=False)
    check_printed(result, SPEC["end_to_end"])
    failures = result["failures"]
    expect(not result["correct"], "a wrong right-hand side left the run correct")
    expect(set(failures) == {"brute:cayley:n=3", "rhs:threshold:lam=1,1,0"}, f"failures {sorted(failures)}")
    expect("output check failed" in failures["brute:cayley:n=3"], "wrong rhs not caught by the output check")
    expect(failures["rhs:threshold:lam=1,1,0"].startswith("raised Disconnected"), "raising claim not recorded")
    expect(result["failed"] * 2 == result["attempted"], "failed count is not two claims per pass")
    expect(result["metrics"]["claims_ok_frac"]["value"] == 0.5, "claims_ok_frac with half the claims failing")
    lib = run.import_library()
    count = lib.treebrute.spanning_tree_count(lib.graphs.hypercube(4))
    expect(count == 42_467_328 and ones(lib.formulas.cube_rhs(4)) == count, "cube_rhs(4) at all-ones")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
