"""Alternating parent/change benchmark pairs, summarised per end-to-end metric.

    python3 tools/pairs.py PARENT CHANGE --workload identity-det --pairs 10 --seconds 5

PARENT and CHANGE are two checkouts of the repository (for example a
`git worktree` or `git archive` of the parent commit, and the working
tree).  Each pair runs `perfbench/run.py --trace 0` once in each, with a
fresh seed per pair (`--seed`, `--seed` + 1, ...) and the side that runs
first alternating, parent first in the first pair.  Every run's metrics
are printed as it ends.  Then, for each end-to-end metric that CHANGE's
`BENCHMARK.json` declares: both medians, the interquartile range of the
parent's runs, and in how many pairs the change was strictly better, in
the direction the metric's `better` names; then the failed-claim counts
of every run.  The last line of standard output is one JSON object with
the same figures.  Nothing in either checkout is written.

Standard library only.  Exits 1 if a run fails or prints no result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the run in {checkout} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartile_gap(values: list[float]) -> float:
    """Upper less lower quartile; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Medians, the parent's quartile gap and the change's wins per metric, and each run's failed count."""
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent_median": statistics.median(values["parent"]),
            "change_median": statistics.median(values["change"]),
            "parent_iqr": quartile_gap(values["parent"]),
            "wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
        }
    return {
        "pairs": len(runs["parent"]),
        "metrics": out,
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
    }


def report_lines(workload: str, summary: dict) -> list[str]:
    pairs = summary["pairs"]
    lines = [f"# {workload}: {pairs} pairs; medians parent -> change, parent IQR, pairs the change won"]
    for name, m in summary["metrics"].items():
        lines.append(f"# {name} ({m['unit']}, {m['better']} is better): {m['parent_median']:.6g} -> "
                     f"{m['change_median']:.6g}, IQR {m['parent_iqr']:.3g}, won {m['wins']}/{pairs}")
    for side in SIDES:
        lines.append(f"# failed claims, {side}: {summary['failed'][side]}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            figures = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics)
            print(f"# pair {i + 1} seed {seed} {side}: {figures} failed={result['failed']}", flush=True)
    summary = summarise(runs, metrics)
    print("\n".join(report_lines(args.workload, summary)))
    print(json.dumps({"workload": args.workload, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
