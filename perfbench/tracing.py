"""Spans around the calls into each treefactor layer.

The tracer replaces public functions by timing wrappers at every name a
treefactor module binds them under (`treefactor.laplacian.determinant`,
`treefactor.verify.div_exact`, ...), plus a few `Polynomial` methods.  The
wrappers are installed only for traced passes and removed afterwards, so
untraced passes run the library untouched.

Spans stay in memory as (id, parent, name, start, end) and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.  Metrics derived from them, per traced pass:

- `<layer>.<fn>_s`: time inside that function, a call nested in a call of
  the same span name counted once.  Spans of different names nest, so these
  can overlap: `verify.scan_s` contains a full divisibility pass,
  `treebrute.enum_s` contains `treebrute.count_s`, `polyring.render_s`
  contains the `polyring.order_s` it sorts with.
- `<layer>.busy_s`: time at least one span of the layer is open.
- `<layer>.self_s`: the layer's span time not covered by child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("graphs", "laplacian", "treebrute", "formulas", "verify", "polyring")

# span name -> (public function names, size of the result added to a counter)
FUNCTIONS = {
    "graphs.build": (("complete_graph", "cartesian_product", "hypercube", "threshold_graph"), None),
    "laplacian.det": (("determinant",), lambda out: out.n_terms),
    "laplacian.build": (("weighted_laplacian", "reduce_matrix"), None),
    "treebrute.enum": (("all_spanning_trees",), len),
    "treebrute.stat": (("statistic_monomial",), None),
    "treebrute.count": (("spanning_tree_count",), None),
    "formulas.rhs": (("cayley_prufer_rhs", "directions_rhs", "cube_rhs", "threshold_rhs"),
                     lambda out: out.n_terms),
    "verify.route": (("verify_cayley", "verify_directions", "verify_cube", "verify_threshold"), None),
    "verify.identity": (("verify_identity",), None),
    "verify.divide": (("verify_divisibility",), None),
    "verify.scan": (("conjecture_scan",), None),
    "verify.null": (("verify_cube_nullvector", "verify_decoupled_nullvectors",
                     "verify_threshold_nullvectors"), None),
    "verify.enumerator": (("decoupled_enumerator",), None),
    "polyring.div": (("div_exact",), lambda out: out.n_terms),
}
# span name -> Polynomial methods
METHODS = {
    "polyring.mul": ("__mul__", "__rmul__"),
    "polyring.order": ("canonical_terms",),
    "polyring.render": ("render",),
}

ROOT = "bench.claim"


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = [m for name, m in sys.modules.items()
                   if name == "treefactor" or name.startswith("treefactor.")]
        patches = []
        for span, (names, size) in FUNCTIONS.items():
            for fname in names:
                original = getattr(getattr(self.lib, span.split(".")[0]), fname)
                wrapper = self._wrap(original, span, size)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        patches.append((module, fname, original, wrapper))
        poly = self.lib.polyring.Polynomial
        for span, names in METHODS.items():
            for mname in names:
                original = poly.__dict__[mname]
                patches.append((poly, mname, original, self._wrap(original, span, None)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, size):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if size is not None:
                counts[name] += size(out)
            return out

        return traced

    def call(self, fn):
        """Run one claim as a root span."""
        return self._wrap(fn, ROOT, None)()

    def metrics(self, traced_passes: int) -> dict[str, float]:
        """Per-pass layer figures; see the module docstring."""
        info = {sid: (parent, name) for sid, parent, name, _, _ in self.spans}
        covered: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            covered[parent] += t1 - t0
        total: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        busy: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            layer = name.split(".")[0]
            dur = t1 - t0
            calls[name] += 1
            self_s[layer] += dur - covered[sid]
            same_name = same_layer = False
            while parent:
                parent, pname = info[parent]
                same_name = same_name or pname == name
                same_layer = same_layer or pname.split(".")[0] == layer
            if not same_name:
                total[name] += dur
            if not same_layer:
                busy[layer] += dur
        p = max(traced_passes, 1)
        c = self.counts
        out = {
            "graphs.build_s": total["graphs.build"],
            "laplacian.det_s": total["laplacian.det"],
            "laplacian.det_calls": calls["laplacian.det"],
            "laplacian.det_terms": c["laplacian.det"],
            "laplacian.build_s": total["laplacian.build"],
            "treebrute.enum_s": total["treebrute.enum"],
            "treebrute.stat_s": total["treebrute.stat"],
            "treebrute.count_s": total["treebrute.count"],
            "treebrute.trees": c["treebrute.enum"],
            "formulas.rhs_s": total["formulas.rhs"],
            "formulas.rhs_calls": calls["formulas.rhs"],
            "formulas.rhs_terms": c["formulas.rhs"],
            "verify.identity_s": total["verify.identity"],
            "verify.divide_s": total["verify.divide"],
            "verify.scan_s": total["verify.scan"],
            "verify.null_s": total["verify.null"],
            "verify.enumerator_s": total["verify.enumerator"],
            "verify.claims": c["verify.claims"],
            "verify.refuted": c["verify.refuted"],
            "polyring.mul_calls": calls["polyring.mul"],
            "polyring.mul_s": total["polyring.mul"],
            "polyring.div_calls": calls["polyring.div"],
            "polyring.div_s": total["polyring.div"],
            "polyring.div_terms": c["polyring.div"],
            "polyring.order_s": total["polyring.order"],
            "polyring.render_s": total["polyring.render"],
        }
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out = {k: v / p for k, v in out.items()}
        enum_s = out["treebrute.enum_s"]
        out["treebrute.trees_per_s"] = out["treebrute.trees"] / enum_s if enum_s else 0.0
        out["trace.spans"] = len(self.spans) / p
        return out

    def write(self, path, stamp: dict, origin: float) -> None:
        """Spans as JSON lines, times in seconds from `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"stamp": stamp, "fields": ["id", "parent", "name", "start", "end"]}) + "\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, round(t0 - origin, 9), round(t1 - origin, 9)]) + "\n")
