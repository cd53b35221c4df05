"""treefactor benchmark: closed-loop claim workloads over the public API.

    python3 perfbench/run.py --workload identity-det --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One Python process, no threads, one caller: the next claim starts only when
the previous one has returned its verdict.  A run sets the library up
several times (fresh import, claim generation, cache fill) and reports the
median as `setup_s`, then runs whole passes over the workload's claim list,
each in a seed-chosen order, until `--seconds` have passed.  Right after
each claim, outside its timed interval, its outputs get an independent
check (see workloads.py).  Timed intervals are scaled by a machine-speed
probe taken around them (see `probe`).

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics of the traced ones (see
tracing.py), writing the spans under `.perfbench/`.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
MIN_PASSES = 2
MIN_CLAIMS = 100  # so that at least ten timed claims lie beyond the 90th percentile

END_TO_END_UNITS = {
    "pass_s": "s",
    "claim_ms_p50": "ms",
    "claim_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "claims_ok_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


class LibraryMissing(RuntimeError):
    """treefactor cannot be imported from this checkout's src/."""


def import_library() -> SimpleNamespace:
    """Import treefactor afresh from this checkout's src/ and nowhere else."""
    for name in [m for m in sys.modules if m == "treefactor" or m.startswith("treefactor.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("treefactor")
    except ImportError as exc:
        raise LibraryMissing(f"cannot import treefactor from {SRC}: {exc}") from exc
    if Path(pkg.__file__).resolve().parent != (SRC / "treefactor").resolve():
        raise LibraryMissing(f"treefactor imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{
        layer: importlib.import_module(f"treefactor.{layer}") for layer in tracing.LAYERS
    })


def stamp() -> dict:
    """Where and on what code the run happened."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=10)
        commit = head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "treefactor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_head": commit,
        "src_sha256": digest.hexdigest(),
    }


def digest(output):
    """A hash standing in for claim outputs, so that checked outputs are not
    kept alive (a large retained heap would slow the library's garbage
    collections and charge the benchmark's memory to the claims)."""
    if output is None:
        return None
    if isinstance(output, tuple):
        return tuple(digest(part) for part in output)
    return hash(frozenset(output.terms()))


def fingerprint(verdicts: list, output) -> tuple:
    """What must repeat for a claim's earlier check to stand (timings excluded)."""
    return tuple((v.claim_id, v.status, v.witness) for v in verdicts), digest(output)


# The machine-speed probe: a fixed slice of pure-Python sparse products,
# the same kind of work as polyring's inner loops but in the benchmark's own
# code, so no change to the library moves it.  On a shared host the speed
# of a core drifts by tens of percent over seconds; each timed interval is
# scaled by REF_S over the mean of the probes taken just before and after
# it, which reports it in seconds of a machine running the probe in REF_S.
_PROBE_A = [(i * 7919 % 1009, i * 31337 % 1000003) for i in range(60)]
_PROBE_B = [(i * 104729 % 1013, i * 65537 % 999983) for i in range(40)]
PROBE_ROUNDS = 2
REF_S = 0.0011  # nominal probe time, about what a 2-core Xeon VM takes with Python 3.11


def probe() -> float:
    """Seconds one probe slice takes now."""
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        acc: dict[int, int] = {}
        for ka, ca in _PROBE_A:
            for kb, cb in _PROBE_B:
                k = ka + kb
                acc[k] = acc.get(k, 0) + ca * cb
    return time.perf_counter() - t0


def run_workload(workload, seed: int, seconds: float, trace: bool, min_claims: int = MIN_CLAIMS) -> dict:
    setups = []
    before = probe()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib = import_library()
        claims = workload.build(lib)
        workload.prepare(lib)
        wall = time.perf_counter() - t0
        after = probe()
        setups.append(wall * 2 * REF_S / (before + after))
        before = after

    tracer = tracing.Tracer(lib) if trace else None
    rng = random.Random(seed)
    checked: dict[str, tuple] = {}  # claim id -> (fingerprint, problem)
    failures: dict[str, str] = {}   # claim id -> first reason it failed
    passes = {False: [], True: []}  # (scaled, wall) seconds per pass, by traced
    latencies: list[float] = []     # scaled seconds per untraced claim
    speeds: list[float] = []        # REF_S over each probe
    attempted = failed = broken = 0
    origin = time.perf_counter()

    def judge(claim, verdicts, output, error):
        """(why the claim failed or None, whether an output was wrong or missing)."""
        if error is not None:
            return f"raised {type(error).__name__}: {error}", True
        fp = fingerprint(verdicts, output)
        prev = checked.get(claim.cid)
        if prev is None or prev[0] != fp:
            prev = checked[claim.cid] = (fp, claim.check(verdicts, output))
        if prev[1] is not None:
            return f"output check failed: {prev[1]}", True
        bad = next((v for v in verdicts if not v.ok), None)
        return (None if bad is None else f"{bad.claim_id} {bad.status}, witness {bad.witness}"), False

    while True:
        traced = tracer is not None and len(passes[False]) > len(passes[True])
        gc.collect()  # every pass starts from the same collector state
        pass_scaled = pass_wall = 0.0
        for claim in rng.sample(claims, len(claims)):
            before = probe()
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                verdicts, output = tracer.call(claim.run) if traced else claim.run()
                error = None
            except Exception as exc:  # a claim that raises is a failed claim, not a failed run
                verdicts, output, error = [], None, exc
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            after = probe()
            scaled = wall * 2 * REF_S / (before + after)
            speeds.append(REF_S / after)
            pass_scaled += scaled
            pass_wall += wall
            attempted += 1
            if traced:
                tracer.counts["verify.claims"] += len(verdicts)
                tracer.counts["verify.refuted"] += sum(not v.ok for v in verdicts)
            else:
                latencies.append(scaled)
            reason, wrong = judge(claim, verdicts, output, error)
            del verdicts, output  # not alive while the next claim runs
            broken += wrong
            if reason is not None:
                failed += 1
                failures.setdefault(claim.cid, reason)
        passes[traced].append((pass_scaled, pass_wall))

        n_passes = len(passes[False]) + len(passes[True])
        if (time.perf_counter() - origin >= seconds and n_passes >= MIN_PASSES
                and (trace or len(latencies) >= min_claims)):
            break

    info = stamp()
    untraced = statistics.median(p[0] for p in passes[False])
    if trace:
        metrics = tracer.metrics(len(passes[True]))
        metrics["trace.overhead_frac"] = statistics.median(p[0] for p in passes[True]) / untraced - 1.0
        # unscaled, like the span times, so a layer's share of a pass is
        # its figure over this one
        metrics["bench.pass_wall_s"] = statistics.fmean(p[1] for p in passes[True])
        metrics["bench.speed_ratio"] = statistics.median(speeds)
        tracer.write(ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.jsonl", info, origin)
        units = {name: layer_unit(name) for name in metrics}
    else:
        ms = sorted(1000.0 * t for t in latencies)
        metrics = {
            "pass_s": untraced,
            "claim_ms_p50": statistics.median(ms),
            "claim_ms_p90": statistics.quantiles(ms, n=10)[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "claims_ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "workload": workload.name,
        "stamp": info,
        "claims_per_pass": len(claims),
        "passes": {k: [(round(a, 3), round(b, 3)) for a, b in v] for k, v in
                   (("untraced", passes[False]), ("traced", passes[True]))},
        "speed": statistics.median(speeds),
        "timed_claims": len(latencies),
        "failures": failures,
        "correct": broken == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def report_lines(result: dict) -> list[str]:
    """Human-readable lines printed above the result line."""
    lines = [f"# workload {result['workload']}: {result['claims_per_pass']} claims per pass, "
             f"{result['timed_claims']} timed claims, median speed {result['speed']:.3f}",
             f"# passes (scaled s, wall s) {result['passes']}",
             f"# stamp {json.dumps(result['stamp'], sort_keys=True)}"]
    for cid, reason in sorted(result["failures"].items()):
        lines.append(f"# failed claim {cid}: {reason}")
    for name, m in result["metrics"].items():
        lines.append(f"# {name} {m['value']:.6g} {m['unit']}")
    return lines


def result_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report_lines(result)))
    print(result_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
