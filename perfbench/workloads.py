"""Seeded inputs, `cfg` operations and output checks for the benchmark.

Standard library only, and independent of ``chipfiring``: graphs come from the
benchmark's own builders and its own union-of-directed-cycles generator, and
outputs are checked with its own matrix-tree determinant and burning test.  A
change to the program can therefore change neither a workload nor a verdict.
The one exception is the undirected Tutte oracle, which
``runner.oracle_texts`` runs in a separate process, outside every timed region.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("enum", "sinks", "corpus")
DEFAULT_SEED = 1
INPUT_DIR = Path("perfbench") / "_work" / "inputs"
PROPERTIES = ("sink-independence", "recursions", "theta", "max-sum", "burning-uniqueness")

# The corpus is chosen by the cost proxy n * (n - 1) * |Rec|, the number of
# sink-swap searches the theta check makes; theta dominates the corpus's time
# and its upper percentiles, and its time follows this count to within about
# 12%.  From a pool of random graphs with the proxy in CORPUS_PROXY, graph i is
# the one nearest to the i-th of CORPUS_GRAPHS geometrically spaced targets.
# Fixed targets keep a run's total work nearly the same from seed to seed,
# while the graphs themselves change; targets spread evenly over the range keep
# the op times free of sparse stretches, where a percentile would jump from
# seed to seed.
CORPUS_GRAPHS = 120
CORPUS_POOL = 1000
CORPUS_PROXY = (20, 500)

# The directed `sinks` instance: six vertices, at least one loop, not
# symmetric, and stable cubes totalling this many cells over the six sinks.
DIRECTED_CELLS = (6000, 8000)


@dataclass(frozen=True)
class Graph:
    """Vertices in first-mention order (the program's canonical order) and arcs."""

    vertices: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, arcs) -> "Graph":
        arcs = tuple(arcs)
        order = dict.fromkeys(v for arc in arcs for v in arc)
        return cls(tuple(order), arcs)

    def outdeg(self, v: str) -> int:
        return sum(1 for t, _ in self.arcs if t == v)

    def mult(self, t: str, h: str) -> int:
        return sum(1 for arc in self.arcs if arc == (t, h))

    @property
    def has_loops(self) -> bool:
        return any(t == h for t, h in self.arcs)

    @property
    def symmetric(self) -> bool:
        count = Counter(self.arcs)
        return all(count[(h, t)] == k for (t, h), k in count.items())

    def cells(self, sink: str) -> int:
        """Size of the stable cube: product of out-degrees of the non-sink vertices."""
        return math.prod(self.outdeg(v) for v in self.vertices if v != sink)

    def edge_list(self) -> str:
        """The program's edge-list format, runs of equal arcs as one line."""
        lines = []
        for arc, run in itertools.groupby(self.arcs):
            k = len(list(run))
            lines.append(f"{arc[0]} {arc[1]}" + (f" {k}" if k > 1 else ""))
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ builders
def bidirected(edges) -> Graph:
    """Symmetric digraph of an undirected multigraph given as (u, v, multiplicity)."""
    arcs = []
    for u, v, k in edges:
        arcs += [(u, v)] * k + [(v, u)] * k
    return Graph.of(arcs)


def complete(n: int) -> Graph:
    return bidirected((f"k{i}", f"k{j}", 1) for i, j in itertools.combinations(range(n), 2))


def grid(rows: int, cols: int) -> Graph:
    edges = []
    for r, c in itertools.product(range(rows), range(cols)):
        if c + 1 < cols:
            edges.append((f"r{r}c{c}", f"r{r}c{c + 1}", 1))
        if r + 1 < rows:
            edges.append((f"r{r}c{c}", f"r{r + 1}c{c}", 1))
    return bidirected(edges)


def banana_path(n: int, fold: int) -> Graph:
    """Path on n vertices with every edge replaced by ``fold`` parallel edges."""
    return bidirected((f"p{i}", f"p{i + 1}", fold) for i in range(n - 1))


def cycle_union(rng: random.Random, n: int, max_arcs: int) -> Graph:
    """Connected union of random directed cycles on n vertices (a 1-cycle is a loop).

    Every Eulerian digraph is such a union, so the generator covers the class.
    """
    names = [f"v{i}" for i in range(n)]
    while True:
        arcs: list[tuple[str, str]] = []
        budget = rng.randint(n, max_arcs)
        while len(arcs) < budget:
            length = rng.randint(1, n)
            if len(arcs) + length > max_arcs:
                break
            cycle = rng.sample(names, length)
            arcs += [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
        g = Graph.of(arcs)
        if len(g.vertices) == n and _connected(g):
            return g


def _connected(g: Graph) -> bool:
    adjacent = {v: set() for v in g.vertices}
    for t, h in g.arcs:
        adjacent[t].add(h)
        adjacent[h].add(t)
    seen, stack = {g.vertices[0]}, [g.vertices[0]]
    while stack:
        for u in adjacent[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == len(g.vertices)


def directed_instance(rng: random.Random) -> Graph:
    while True:
        g = cycle_union(rng, 6, 30)
        total = sum(g.cells(s) for s in g.vertices)
        if g.has_loops and not g.symmetric and DIRECTED_CELLS[0] <= total < DIRECTED_CELLS[1]:
            return g


def corpus_graphs(rng: random.Random) -> list[Graph]:
    low, high = CORPUS_PROXY
    pool = []
    while len(pool) < CORPUS_POOL:
        g = cycle_union(rng, rng.randint(4, 6), 14)
        n = len(g.vertices)
        proxy = n * (n - 1) * arborescences(g, g.vertices[0])
        if low <= proxy < high:
            pool.append((proxy, g))
    graphs = []
    for i in range(CORPUS_GRAPHS):
        target = low * (high / low) ** ((i + 0.5) / CORPUS_GRAPHS)
        nearest = min(range(len(pool)), key=lambda j: abs(math.log(pool[j][0] / target)))
        graphs.append(pool.pop(nearest)[1])
    return graphs


# ------------------------------------------------------- independent checks
def arborescences(g: Graph, sink: str) -> int:
    """Spanning arborescences toward ``sink``: the matrix-tree determinant.

    Gaussian elimination over the rationals on the reduced Laplacian of the
    loopless graph; this count is also the number of recurrent configurations.
    """
    others = [v for v in g.vertices if v != sink]
    m = [
        [Fraction(g.outdeg(v) - g.mult(v, v) if u == v else -g.mult(v, u)) for u in others]
        for v in others
    ]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return int(det)


class Burner:
    """Dhar's burning test on plain integers for one sink game."""

    def __init__(self, g: Graph, sink: str):
        self.others = [v for v in g.vertices if v != sink]
        slot = {v: i for i, v in enumerate(self.others)}
        self.out = [g.outdeg(v) for v in self.others]
        self.drop = [g.outdeg(v) - g.mult(v, v) for v in self.others]
        arcs = Counter(g.arcs)
        self.sends = [
            [(slot[h], k) for (t, h), k in arcs.items() if t == v and h not in (v, sink)]
            for v in self.others
        ]
        self.beta = [g.mult(sink, v) for v in self.others]

    def recurrent(self, chips) -> bool:
        state = [a + b for a, b in zip(chips, self.beta)]
        fired = True
        while fired:
            fired = False
            for i, x in enumerate(state):
                if x >= self.out[i] and self.drop[i]:
                    k = (x - self.out[i]) // self.drop[i] + 1
                    state[i] -= k * self.drop[i]
                    for j, m in self.sends[i]:
                        state[j] += k * m
                    fired = True
        return state == list(chips)


def _terms(text: str) -> dict[int, int]:
    """Parse the program's polynomial text ``c*y^e + c*y^e``."""
    if text == "0":
        return {}
    terms = {}
    for part in text.split(" + "):
        coeff, exp = part.split("*y^")
        terms[int(exp)] = int(coeff)
    return terms


@dataclass(frozen=True)
class Op:
    """One `cfg` invocation and what its output must satisfy."""

    name: str
    kind: str  # recurrents | tutte | conjecture1 | check
    graph: Graph
    path: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        """Identifies the invocation and its input, for the pinned outputs."""
        text = " ".join(self.argv) + "\n" + self.graph.edge_list()
        return hashlib.sha256(text.encode()).hexdigest()[:20]


def verify(op: Op, code, out: str, oracle: str | None) -> str | None:
    """Return why the output is wrong, or None.  ``oracle`` is T(1, y) as text."""
    if code != 0:
        return f"exit code {code}"
    g = op.graph
    if op.kind == "check":
        return None if out == f"{op.path}: ok\n" else f"unexpected report {out[:200]!r}"
    if op.kind == "recurrents":
        return _verify_recurrents(g, json.loads(out))
    lines = out.splitlines()
    if op.kind == "tutte":
        terms = _terms(lines[0])
        value = sum(c * 2**e for e, c in terms.items())
        if lines[1:] != ["sinks consistent: true", f"value at 2: {value}"]:
            return f"unexpected tail {lines[1:]!r}"
        if sum(terms.values()) != arborescences(g, g.vertices[0]):
            return "T(1) differs from the matrix-tree count"
        if oracle is not None and lines[0] != oracle:
            return "T(y) differs from the undirected Tutte oracle"
        return None
    # conjecture1
    prefixes = [f"sink {s}: class maxima (" for s in g.vertices]
    if len(lines) != len(prefixes) + 1 or lines[-1] != "consistent: true":
        return f"unexpected report shape {lines[-1:]!r}"
    maxima = []
    for prefix, line in zip(prefixes, lines):
        if not line.startswith(prefix):
            return f"unexpected line {line!r}"
        maxima.append([int(x) for x in line[len(prefix) : -1].split(",") if x.strip()])
    first = maxima[0]
    if any(m != first for m in maxima) or first != sorted(first):
        return "class maxima differ between sinks"
    if len(first) != arborescences(g, g.vertices[0]):
        return "class count differs from the matrix-tree count"
    if oracle is not None and Counter(x - first[0] for x in first) != Counter(_terms(oracle)):
        return "class maxima differ from the undirected Tutte oracle's levels"
    return None


def _verify_recurrents(g: Graph, data: dict) -> str | None:
    sink = g.vertices[0]
    others = [v for v in g.vertices if v != sink]
    burner = Burner(g, sink)
    vectors = []
    for entry in data["configs"]:
        chips = entry["chips"]
        if sorted(chips) != sorted(others):
            return "configuration on the wrong vertex set"
        vec = [chips[v] for v in others]
        if any(not 0 <= x < g.outdeg(v) for v, x in zip(others, vec)):
            return f"unstable configuration {vec}"
        total = g.outdeg(sink) + sum(vec)
        if entry["sum"] != total or entry["level"] != total - data["kappa"]:
            return f"wrong sum or level for {vec}"
        if not burner.recurrent(vec):
            return f"configuration {vec} fails the burning test"
        vectors.append(vec)
    if data["sink"] != sink:
        return f"wrong sink {data['sink']!r}"
    if vectors != sorted(vectors) or len(set(map(tuple, vectors))) != len(vectors):
        return "configurations not distinct and sorted"
    if len(vectors) != arborescences(g, sink):
        return "recurrent count differs from the matrix-tree count"
    if not g.has_loops and min(e["level"] for e in data["configs"]) != 0:
        return "loopless host does not attain level 0"
    return None


# ---------------------------------------------------------------- workloads
def make_op(workload: str, name: str, kind: str, g: Graph, *extra: str, file: str = "") -> Op:
    path = str(INPUT_DIR / workload / f"{file or name}.txt")
    return Op(name, kind, g, path, (kind, path, *extra))


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations for a seed, in the order a pass runs them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "enum":
        ops = [
            make_op("enum", name, "recurrents", g, "--sink", g.vertices[0], "--format", "json")
            for name, g in (
                ("k7", complete(7)),
                ("grid3x4", grid(3, 4)),
                ("banana7x3", banana_path(7, 3)),
            )
        ]
    elif workload == "sinks":
        ops = [
            make_op("sinks", f"tutte-{name}", "tutte", g, "--eval", "2")
            for name, g in (
                ("k6", complete(6)),
                ("grid3x3", grid(3, 3)),
                ("banana6x4", banana_path(6, 4)),
                ("directed", directed_instance(rng)),
            )
        ]
        ops += [
            make_op("sinks", f"conjecture1-{name}", "conjecture1", g)
            for name, g in (("grid3x3", grid(3, 3)), ("banana5x4", banana_path(5, 4)))
        ]
    elif workload == "corpus":
        ops = [
            make_op("corpus", f"g{i:02d}-{p}", "check", g, "--property", p, file=f"g{i:02d}")
            for i, g in enumerate(corpus_graphs(rng))
            for p in PROPERTIES
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def write_inputs(ops: list[Op]) -> None:
    for op in ops:
        path = Path(op.path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(op.graph.edge_list())

