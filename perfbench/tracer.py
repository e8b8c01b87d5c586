"""Per-layer tracing of one `cfg` run, installed from outside the program.

Each wrapped module-level function is rebound in every ``chipfiring`` module
namespace that holds it.  Callers look names up at call time, so calls between
modules and calls inside one module (``kappa`` -> ``_recurrent_vectors``) are
both seen.  Functions at layer boundaries record a span: name, parent span,
start and end.  Per-element methods, called 10^5-10^6 times per run, only
count their outermost calls.

Work counts are derived from outside and depend on today's call structure:
``recurrent.cells`` is prod(outdeg) over the non-sink vertices of each
enumeration that missed the cache, ``recurrent.burning_tests`` and
``bijection.swap_steps`` count ``stabilize`` calls made from those modules, and
``dynamics.firings`` sums the returned firing records.  They explain a change
in time; they cannot carry a claim.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter

# layer -> (module, functions); each call records a span
SPANS = {
    "graph.parse": ("graph", ("parse_edge_list",)),
    "graph.rewrite": (
        "graph",
        ("delete_out_arcs", "delete_arcs", "contract_arc", "contract_vertices", "remove_loops"),
    ),
    "checks.run": ("checks", ("run_check",)),
    "dynamics.stabilize": ("dynamics", ("stabilize",)),
    "recurrent.enum": ("recurrent", ("_recurrent_vectors",)),
    "recurrent.det": ("recurrent", ("bareiss_determinant",)),
    "recurrent.kappa": ("recurrent", ("kappa",)),
    "bijection.theta": ("bijection", ("theta", "swap_number")),
    "tutte.gen": ("tutte", ("tutte_gen",)),
    "tutte.recursion": ("tutte", ("check_recursion", "pw_closed_form_check")),
    "lattice.hnf": ("lattice", ("column_hnf",)),
    "lattice.classes": ("lattice", ("equivalence_classes",)),
    "lattice.class_rep": ("lattice", ("class_representative",)),
}
# layer -> (module, class, methods); each call records a span
METHOD_SPANS = {"lattice.contains": ("lattice", "IntegerLattice", ("contains",))}
# counter -> (module, class, methods); outermost calls are counted, no spans
COUNTERS = {
    "graph.query": (
        "graph",
        "MultiDigraph",
        (
            "vertex_index", "has_vertex", "outdeg", "indeg", "multiplicity", "loops_at",
            "out_neighbors", "arc", "reachable_from", "is_weakly_connected",
            "is_strongly_connected",
        ),
    ),
    "graph.new": ("graph", "MultiDigraph", ("__post_init__",)),
    "dynamics.config.new": ("dynamics", "Configuration", ("__post_init__",)),
    "polynomial.ops": (
        "polynomial",
        "LaurentPolynomial",
        (
            "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__pow__", "shift", "eval", "divexact_one_minus_y",
        ),
    ),
    "polynomial.new": ("polynomial", "LaurentPolynomial", ("__init__",)),
}
# layers behind an lru_cache, whose hits and misses are read from cache_info()
CACHED = ("recurrent.enum", "recurrent.kappa", "tutte.gen")
# stabilize calls counted by the module that makes them
CALLER_COUNTS = {"recurrent": "recurrent.burning_tests", "bijection": "bijection.swap_steps"}
ROOT = "cli"


class Tracer:
    """Spans and counters of one operation, kept in memory until it ends."""

    def __init__(self, spans_file):
        self.spans_file = spans_file
        self.spans: list[list] = []  # [name, parent index, start ns, end ns]
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.cached = {}

    def install(self) -> "Tracer":
        package = {
            name.rpartition(".")[2]: module
            for name, module in sys.modules.items()
            if name == "chipfiring" or name.startswith("chipfiring.")
        }
        for layer, (home, names) in SPANS.items():
            for attr in names:
                original = getattr(package.get(home), attr, None)
                if original is None:
                    continue
                if layer in CACHED and hasattr(original, "cache_info"):
                    self.cached[layer] = original
                hook = self._enumerated(original) if layer == "recurrent.enum" else None
                for caller, module in package.items():
                    if layer == "dynamics.stabilize":
                        hook = self._stabilized(caller)
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, self.span(layer, original, hook))
        for layer, (home, cls, names) in METHOD_SPANS.items():
            owner = getattr(package.get(home), cls, None)
            for attr in names:
                if hasattr(owner, attr):
                    setattr(owner, attr, self.span(layer, getattr(owner, attr)))
        for key, (home, cls, names) in COUNTERS.items():
            owner = getattr(package.get(home), cls, None)
            guard = [False]
            for attr in names:
                if owner is not None and attr in vars(owner):
                    setattr(owner, attr, self.counter(key, vars(owner)[attr], guard))
        return self

    def span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [name, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def root(self, main):
        return self.span(ROOT, main)

    def counter(self, key, fn, guard):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if guard[0]:
                return fn(*args, **kwargs)
            counts[key] += 1
            guard[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                guard[0] = False

        return wrapper

    def _stabilized(self, caller):
        counts, key = self.counts, CALLER_COUNTS.get(caller)

        def after(args, result):
            counts["dynamics.firings"] += sum(result[1].counts)
            if key:
                counts[key] += 1

        return after

    def _enumerated(self, cached):
        counts, seen = self.counts, [0]

        def after(args, result):
            misses = cached.cache_info().misses if hasattr(cached, "cache_info") else seen[0] + 1
            if misses > seen[0]:
                seen[0] = misses
                g, sink = args[:2]
                tails = Counter(tail for tail, _ in g.arcs)
                counts["recurrent.cells"] += math.prod(tails[v] for v in g.vertices if v != sink)
                counts["recurrent.found"] += len(result)

        return after

    def finish(self, op_name: str) -> dict:
        """Self time per layer, call and work counts, and whether the spans nest.

        A span's self time is its duration minus the time its child spans
        cover.  The spans nest when every child lies inside its parent and
        after its previous sibling; then the self times of an operation sum
        exactly to the duration of its root span.
        """
        spans = self.spans
        covered = [0] * len(spans)
        last_end: dict[int, int] = {}
        nested = sum(1 for s in spans if s[1] < 0) == 1 and spans[0][0] == ROOT
        for name, parent, start, end in spans:
            if parent >= 0:
                p_start, p_end = spans[parent][2:]
                nested &= p_start <= last_end.get(parent, p_start) <= start <= end <= p_end
                covered[parent] += end - start
                last_end[parent] = end
        self_ns, calls = Counter(), Counter()
        for (name, _, start, end), inner in zip(spans, covered):
            self_ns[name] += end - start - inner
            calls[name] += 1
        traced_ns = spans[0][3] - spans[0][2]
        with open(self.spans_file, "a") as out:
            out.write(json.dumps({"op": op_name, "spans": spans}) + "\n")
        return {
            "calls": dict(calls),
            "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
            "counts": dict(self.counts),
            "cache": {
                layer: [fn.cache_info().hits, fn.cache_info().misses]
                for layer, fn in self.cached.items()
            },
            "traced_s": traced_ns / 1e9,
            "integrity": nested and sum(self_ns.values()) == traced_ns,
        }
