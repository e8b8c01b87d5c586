"""Shared corpora and helpers for the test suite.

Everything here is deterministic: named example graphs, fixed seeds,
exhaustive bounded families, and the two reconstructed demo graphs under
tests/data/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import random
from bisect import bisect_left
from functools import partial
from operator import lt, mul
from pathlib import Path
from typing import NamedTuple

from chipfiring import (
    Configuration,
    ConfigurationError,
    GraphError,
    InternalCheckError,
    MultiDigraph,
    RecurrentSet,
    add,
    augment_sink,
    beta,
    bijection,
    checks,
    delete_arcs,
    delete_out_arcs,
    enumerate_recurrents,
    is_bridge,
    is_eulerian,
    is_recurrent,
    parse_edge_list,
    recurrent,
    remove_loops,
    reverse_partner,
    stabilize,
)
from chipfiring.checks import CheckReport
from chipfiring.cli import (
    _cmd_check,
    _cmd_conjecture1,
    _cmd_info,
    _cmd_oracle,
    _cmd_recurrents,
    _cmd_stabilize,
    _cmd_swap,
    _cmd_tutte,
)
from chipfiring.recurrent import (
    CELL_CAP,
    _recurrent_vectors,
    bareiss_determinant,
    reduced_laplacian,
)
from chipfiring.families import random_eulerian, random_strongly_connected
from chipfiring.lattice import _representative

DATA = Path(__file__).parent / "data"

CORPUS_SEED = 20240611
CORPUS_SIZE = 200

NON_EULERIAN_SEED = 987123
NON_EULERIAN_SIZE = 100


def data_graph(name: str) -> MultiDigraph:
    return parse_edge_list((DATA / name).read_text())


def directed_cycle(names) -> MultiDigraph:
    names = list(names)
    return MultiDigraph.of(
        [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))], names
    )


def bidirected_complete(names) -> MultiDigraph:
    names = list(names)
    arcs = []
    for i, v in enumerate(names):
        for u in names[i + 1 :]:
            arcs.extend([(v, u), (u, v)])
    return MultiDigraph.of(arcs, names)


def parallel_pair(u: str, v: str, multiplicity: int) -> MultiDigraph:
    """Two vertices joined by ``multiplicity`` arcs each way (an undirected banana)."""
    return MultiDigraph.of([(u, v)] * multiplicity + [(v, u)] * multiplicity, [u, v])


def doubled_cycle(names) -> MultiDigraph:
    """Directed cycle with every arc doubled: no loops, no bridges, no reverse arcs."""
    names = list(names)
    arcs = []
    for i in range(len(names)):
        arcs.extend([(names[i], names[(i + 1) % len(names)])] * 2)
    return MultiDigraph.of(arcs, names)


def undirected_graph(n_vertices: int, edges, loops=()) -> MultiDigraph:
    """Bidirected digraph for an undirected multigraph on vertices u0..u{n-1}.

    ``edges`` lists (i, j) index pairs, one entry per parallel edge; ``loops``
    lists vertex indices, one entry per undirected loop (one directed loop each).
    """
    names = [f"u{i}" for i in range(n_vertices)]
    arcs = []
    for i, j in edges:
        arcs.extend([(names[i], names[j]), (names[j], names[i])])
    for i in loops:
        arcs.append((names[i], names[i]))
    return MultiDigraph.of(arcs, names)


@contextlib.contextmanager
def cell_cap(cells: int):
    """``recurrent.CELL_CAP`` set to ``cells`` inside the block."""
    token = CELL_CAP.set(cells)
    try:
        yield
    finally:
        CELL_CAP.reset(token)


def stable_cube(g: MultiDigraph, s: str):
    """Every stable configuration of the sink game (g, s), in lexicographic order."""
    bounds = [g.outdeg(v) for v in g.vertices if v != s]
    for combo in itertools.product(*(range(k) for k in bounds)):
        yield Configuration(g, s, combo)


def unpack(g: MultiDigraph, s: str, members) -> tuple[tuple[int, ...], ...]:
    """Packed stable-cube indices of the sink game (g, s) as chip vectors, by
    mixed radix with the first domain vertex most significant."""
    bounds = [g.outdeg(v) for v in g.vertices if v != s][::-1]
    vectors = []
    for i in members:
        digits = []
        for out in bounds:
            i, x = divmod(i, out)
            digits.append(x)
        vectors.append(tuple(digits[::-1]))
    return tuple(vectors)


def recurrent_vectors(g: MultiDigraph, s: str) -> tuple[tuple[int, ...], ...]:
    """The enumerated members of the sink game (g, s), unpacked."""
    return unpack(g, s, _recurrent_vectors(g, s))


@functools.lru_cache(maxsize=None)
def corpus() -> tuple[MultiDigraph, ...]:
    """The seeded random Eulerian corpus: <= 5 vertices, <= 12 arcs, loops allowed."""
    rng = random.Random(CORPUS_SEED)
    return tuple(random_eulerian(rng, 5, 12) for _ in range(CORPUS_SIZE))


@functools.lru_cache(maxsize=None)
def small_corpus() -> tuple[MultiDigraph, ...]:
    """Corpus members with at most 4 vertices, for the exhaustive small-scale checks."""
    picked = tuple(g for g in corpus() if g.n_vertices <= 4)
    rng = random.Random(CORPUS_SEED + 1)
    extra = tuple(random_eulerian(rng, 4, 9) for _ in range(40))
    return picked + extra


@functools.lru_cache(maxsize=None)
def non_eulerian_corpus() -> tuple[MultiDigraph, ...]:
    """Seeded strongly connected, non-Eulerian digraphs within the tiny caps."""
    rng = random.Random(NON_EULERIAN_SEED)
    return tuple(
        random_strongly_connected(rng, 4, 10, eulerian=False)
        for _ in range(NON_EULERIAN_SIZE)
    )


def _connected_multigraphs(n: int, max_mult: int, max_loops: int, max_edges: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mults in itertools.product(range(max_mult + 1), repeat=len(pairs)):
        for loops in itertools.product(range(max_loops + 1), repeat=n):
            if sum(mults) + sum(loops) > max_edges or sum(mults) == 0 and n > 1:
                continue
            edges = [p for p, m in zip(pairs, mults) for _ in range(m)]
            loop_list = [v for v, k in enumerate(loops) for _ in range(k)]
            g = undirected_graph(n, edges, loop_list)
            if g.is_weakly_connected():
                yield g


@functools.lru_cache(maxsize=None)
def undirected_family() -> tuple[MultiDigraph, ...]:
    """Connected undirected multigraphs as bidirected digraphs, up to 5 vertices.

    Exhaustive with parallel edges and loops through 4 vertices (bounded edge
    budget), exhaustive over simple graphs on 5 vertices, plus a seeded batch
    of 5-vertex multigraphs with loops.
    """
    out: list[MultiDigraph] = []
    out.extend(_connected_multigraphs(1, 0, 2, 2))
    out.extend(_connected_multigraphs(2, 3, 1, 5))
    out.extend(_connected_multigraphs(3, 2, 1, 6))
    out.extend(_connected_multigraphs(4, 2, 1, 5))
    pairs5 = list(itertools.combinations(range(5), 2))
    for mask in range(1 << len(pairs5)):
        edges = [p for i, p in enumerate(pairs5) if mask >> i & 1]
        g = undirected_graph(5, edges)
        if g.is_weakly_connected():
            out.append(g)
    rng = random.Random(424242)
    added = 0
    while added < 60:
        edges = [rng.choice(pairs5) for _ in range(rng.randint(4, 8))]
        loops = [rng.randrange(5) for _ in range(rng.randint(0, 2))]
        g = undirected_graph(5, edges, loops)
        if g.is_weakly_connected():
            out.append(g)
            added += 1
    return tuple(out)


@functools.lru_cache(maxsize=None)
def simple_undirected_connected() -> tuple[MultiDigraph, ...]:
    """All connected simple undirected graphs on 2..5 vertices, bidirected."""
    out = []
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            g = undirected_graph(n, edges)
            if g.is_weakly_connected():
                out.append(g)
    return tuple(out)


def random_digraph(rng: random.Random) -> MultiDigraph:
    """Seeded digraph that need not be connected: isolated vertices, loops, parallel arcs."""
    names = [f"v{i}" for i in range(rng.randint(1, 6))]
    arcs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 10))]
    return MultiDigraph(tuple(names), tuple(arcs))


def eulerian_members(graphs):
    return [g for g in graphs if is_eulerian(g)]


# The argparse parser that ``cfg`` used before ``cli.parse_args``, kept as the
# reference its differential test compares against.
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfg",
        description="Chip-firing games on Eulerian multidigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, graph_required=True, formats=("text", "json"), cap=False):
        p = sub.add_parser(name, help=help_text)
        if graph_required:
            p.add_argument("graph", help="edge-list file: 'tail head [multiplicity]' per line")
        p.add_argument("--format", choices=formats, default=formats[0])
        if cap:
            p.add_argument(
                "--cap",
                type=int,
                default=None,
                help="enumeration cap in stable-cube cells (default from CFG_CAP_CELLS)",
            )
        p.set_defaults(func=func)
        return p

    add("info", _cmd_info, "describe a graph")

    p = add("stabilize", _cmd_stabilize, "stabilize a configuration for a sink")
    p.add_argument("--sink", required=True)
    p.add_argument("--config", default="", help="chip literal, e.g. 'a=2,b=1'")

    p = add("recurrents", _cmd_recurrents, "enumerate recurrent configurations", cap=True)
    p.add_argument("--sink", default=None)

    p = add("tutte", _cmd_tutte, "generating polynomial and per-sink agreement", cap=True)
    p.add_argument("--eval", default=None, help="also evaluate at a rational point, e.g. 2 or 3/2")

    p = add(
        "swap", _cmd_swap, "transport a recurrent configuration to another sink", formats=("json",)
    )
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config", default="", help="chip literal for the source sink game")

    p = sub.add_parser("check", help="run a property suite; nonzero exit on violation")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--property", required=True, choices=checks.PROPERTIES)
    p.add_argument("--seed", type=int, default=None, help="also run on seeded random graphs")
    p.add_argument("--count", type=int, default=25, help="number of random graphs")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    add("conjecture1", _cmd_conjecture1, "per-sink class-maxima report", cap=True)

    p = add("oracle", _cmd_oracle, "brute-force reference values", formats=("text",))
    p.add_argument("--sink", default=None)
    p.add_argument(
        "--which",
        required=True,
        choices=("arborescences", "acyclic", "recurrents"),
    )

    return parser


# ``check_burning_uniqueness`` as it ran before the integer kernel, one
# ``stabilize`` on Configuration objects per recurrent; the reference its
# differential test compares against.
def reference_burning_uniqueness(g: MultiDigraph) -> checks.CheckReport:
    report = checks.CheckReport("burning-uniqueness")
    for s in g.vertices:
        rs = enumerate_recurrents(g, s)
        for c in rs.configs:
            _, record = stabilize(g, add(c, beta(g, s)))
            bad = {v: record.count(v) for v in c.domain if record.count(v) != 1}
            if bad:
                report.fail(f"burning run of {c} fired {bad}")
        report.note(f"sink {s}: all {len(rs)} burning runs fired each vertex once")
    return report


# Reachability by a plain search over the arc list, with arcs deleted through
# ``delete_arcs``: the reference for the integer search in ``graph``.
def reference_reached(g: MultiDigraph, start: str) -> frozenset[str]:
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for tail, head in g.arcs:
            if tail == v and head not in seen:
                seen.add(head)
                stack.append(head)
    return frozenset(seen)


def _with_arcs(g: MultiDigraph, arcs) -> MultiDigraph:
    return MultiDigraph(g.vertices, tuple(arcs))


def reference_strongly_connected(g: MultiDigraph) -> bool:
    if not g.vertices:
        return False
    reverse = _with_arcs(g, ((h, t) for t, h in g.arcs))
    root, everything = g.vertices[0], frozenset(g.vertices)
    return reference_reached(g, root) == reference_reached(reverse, root) == everything


def reference_weakly_connected(g: MultiDigraph) -> bool:
    both = _with_arcs(g, g.arcs + tuple((h, t) for t, h in g.arcs))
    return bool(g.vertices) and reference_reached(both, g.vertices[0]) == frozenset(g.vertices)


def reference_is_bridge(g: MultiDigraph, index: int) -> bool:
    tail, head = g.arcs[index]
    return tail != head and not reference_strongly_connected(delete_arcs(g, [index]))


def reference_bridge_cut_set(g: MultiDigraph, index: int) -> frozenset[str]:
    return reference_reached(delete_arcs(g, [index]), g.arcs[index][0])


# The paper's lemmas, stated as functions for the tests that check them: the
# bridge cut, the loop lift, the support after a sink firing, and minimal and
# minimum recurrents.  No command computes them.
class BridgeCut(NamedTuple):
    """Vertex cut witnessing a bridge: exactly one arc leaves ``cut_set`` and one enters."""

    cut_set: frozenset[str]
    bridge: int
    co_bridge: int


def bridge_cut(g: MultiDigraph, index: int) -> BridgeCut:
    """Cut witness for a bridge b of an Eulerian graph: X, the vertices reachable
    from tail(b) once b is removed, and the unique arc b' crossing back into X.
    Both uniqueness properties are verified by scanning the arc list."""
    if not is_bridge(g, index):
        raise GraphError(f"arc {index} is not a bridge")
    cut = reference_bridge_cut_set(g, index)
    outward = [i for i, (t, h) in enumerate(g.arcs) if t in cut and h not in cut]
    inward = [i for i, (t, h) in enumerate(g.arcs) if t not in cut and h in cut]
    if outward != [index] or len(inward) != 1:
        raise GraphError(
            f"arc {index} admits no single-crossing cut "
            f"(outward={outward}, inward={inward}); is the graph Eulerian?"
        )
    return BridgeCut(cut, index, inward[0])


def loop_lift(g: MultiDigraph, s: str, c: Configuration) -> Configuration:
    """Transport a recurrent configuration of the loopless host onto g.

    Bijectively adds d(v, v) chips at every non-sink vertex; the image is
    recurrent on g and the chip total shifts by the non-sink loop count.
    """
    bare, _ = remove_loops(g)
    base = Configuration(bare, s, c.chips)
    if not is_recurrent(bare, s, base):
        raise ConfigurationError("input must be recurrent on the loopless host")
    return Configuration(g, s, tuple(x + g.loops_at(v) for v, x in zip(base.domain, base.chips)))


def support_after_sink_fire(g: MultiDigraph, s: str, c: Configuration) -> frozenset[str]:
    """Out-neighbors of s that become firable when s fires from c."""
    return frozenset(
        v for v in g.out_neighbors(s) if c.chip(v) >= g.outdeg(v) - g.multiplicity(s, v)
    )


def member_index(rs: RecurrentSet, c: Configuration) -> int | None:
    """c's position in ``rs.members``, found by bisection; None for a non-member."""
    if c.sink != rs.sink or c.host != rs.host or not all(map(lt, c.chips, rs.bounds)):
        return None
    members, cell = rs.members, sum(map(mul, c.chips, rs.weights))
    i = bisect_left(members, cell)
    return i if i < len(members) and members[i] == cell else None


def _require_member(rs: RecurrentSet, c: Configuration) -> int:
    i = member_index(rs, c)
    if i is None:
        raise ConfigurationError("configuration is not in the recurrent set")
    return i


def is_minimal(rs: RecurrentSet, c: Configuration) -> bool:
    """No other member of the set is pointwise <= c."""
    return reference_minimal_flags(rs.vectors)[_require_member(rs, c)]


def is_minimum(rs: RecurrentSet, c: Configuration) -> bool:
    """c attains the minimum chip total over the set."""
    i = _require_member(rs, c)
    return rs.sums[i] == min(rs.sums)


def determinant_count(g: MultiDigraph, s: str) -> int:
    """Order of the sandpile group with sink s: det of the reduced Laplacian,
    computed afresh, apart from the cached game record."""
    return bareiss_determinant(reduced_laplacian(g, s))


# ``tutte.recursion_kind`` as ``checks.check_recursions`` classified each arc
# inline; the reference its differential test compares against.
def reference_recursion_kind(g: MultiDigraph, i: int) -> str | None:
    tail, head = g.arcs[i]
    if tail == head:
        return "loop"
    elif is_bridge(g, i):
        return "bridge_reverse" if reverse_partner(g, i) is not None else "bridge_no_reverse"
    elif reverse_partner(g, i) is not None:
        return "del_contract"
    return None


# per member, whether no other member is pointwise <= it, as a scan over every
# pair of members; the reference the minimal flags of ``checks._covers`` and
# ``is_minimal`` are read from.
def reference_minimal_flags(vectors) -> tuple[bool, ...]:
    return tuple(
        not any(
            j != i and all(a <= b for a, b in zip(other, chips))
            for j, other in enumerate(vectors)
        )
        for i, chips in enumerate(vectors)
    )


# the covering steps of ``checks._covers`` as a scan over every pair of members:
# (i, j) where member j is pointwise >= member i with one chip more, that is,
# member i + e_t, ordered by j, then i; the reference its differential test
# compares against.
def reference_covers(vectors) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i, j)
        for j, upper in enumerate(vectors)
        for i, lower in enumerate(vectors)
        if sum(upper) == sum(lower) + 1 and all(a <= b for a, b in zip(lower, upper))
    )


# ``lattice._representative`` on a ``Configuration``: the unique recurrent
# configuration equivalent to c, for the tests that state the class
# representative's properties on configurations.
def class_representative(g: MultiDigraph, s: str, c: Configuration) -> Configuration:
    if c.sink != s or c.host.vertices != g.vertices:
        raise ConfigurationError("configuration does not belong to this sink game")
    return Configuration(c.host, s, _representative(g, s)(c.chips))


# ``lattice._representative`` as it ran before the m chips were settled once:
# each cell is stabilized from cell + m on every vertex; the reference its
# differential test compares against.
def reference_representative(g: MultiDigraph, s: str, cell) -> tuple[int, ...]:
    most = max((g.outdeg(v) for v in g.vertices if v != s), default=1)
    m = abs(determinant_count(g, s)) * most
    stable, _ = stabilize(g, Configuration(g, s, tuple(x + m for x in cell)))
    return stable.chips


# The column Hermite normal form and its canonical residue, a second normal
# form of the lattice: the reference the lattice tests compare membership, the
# Smith form's rank and the class partition against.
def column_hnf(generators: tuple[tuple[int, ...], ...], dimension: int):
    """Column-style Hermite normal form of the lattice spanned by the generators.

    Generators are treated as columns; only integer column operations are used
    and the pivot order is deterministic (top row first, leftmost column
    preferred).  Returns the nonzero columns and their (row, column) pivots.
    """
    cols = [list(gen) for gen in generators]
    if any(len(col) != dimension for col in cols):
        raise ConfigurationError("generator with wrong dimension")
    pivots: list[tuple[int, int]] = []
    front = 0
    for row in range(dimension):
        while True:
            nonzero = [j for j in range(front, len(cols)) if cols[j][row] != 0]
            if len(nonzero) <= 1:
                break
            base = min(nonzero, key=lambda j: (abs(cols[j][row]), j))
            for j in nonzero:
                if j == base:
                    continue
                q = cols[j][row] // cols[base][row]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[base])]
        nonzero = [j for j in range(front, len(cols)) if cols[j][row] != 0]
        if not nonzero:
            continue
        j = nonzero[0]
        cols[front], cols[j] = cols[j], cols[front]
        if cols[front][row] < 0:
            cols[front] = [-a for a in cols[front]]
        for j in range(front):
            q = cols[j][row] // cols[front][row]
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[front])]
        pivots.append((row, front))
        front += 1
    basis = tuple(tuple(col) for col in cols[:front])
    return basis, tuple(pivots)


class HermiteLattice(NamedTuple):
    """A lattice by its column HNF ``basis``, each column zero above its
    positive pivot, and the (row, column) ``pivots``."""

    dimension: int
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, generators, dimension: int) -> "HermiteLattice":
        generators = tuple(tuple(int(x) for x in gen) for gen in generators)
        return cls(dimension, *column_hnf(generators, dimension))

    def residue(self, vector) -> tuple[int, ...]:
        """Canonical representative of vector + L (Cohen, 1993, 2.4): reduced at
        each pivot row, in row order, into [0, pivot) by the pivot column, so
        residue(x) == residue(y) exactly when x - y lies in L."""
        x = [int(v) for v in vector]
        if len(x) != self.dimension:
            raise ConfigurationError(
                f"vector has dimension {len(x)}, lattice has {self.dimension}"
            )
        for row, j in self.pivots:
            col = self.basis[j]
            quotient = x[row] // col[row]
            if quotient:
                x = [a - quotient * b for a, b in zip(x, col)]
        return tuple(x)

    def contains(self, vector) -> bool:
        """Exact membership: the residue of a lattice vector is zero."""
        return not any(self.residue(vector))


# ``check_theta`` as it ran with a second swap search per member, the swap
# back, a separate round trip on the public full-domain path (``augment_sink``,
# then ``stabilize`` toward s1) and a scan over every pair of members; the
# reference its differential test compares against.
def reference_theta(g: MultiDigraph) -> CheckReport:
    """Sink-swap suite on chip vectors of the enumerated recurrent sets.

    The sets are burning-tested and certified by the determinant count, so the
    swap search runs on the integer core directly, and the image is recurrent
    exactly when it is a member of the target sink's set.
    """
    report = CheckReport("theta")
    recurrents = {s: recurrent.enumerate_recurrents(g, s) for s in g.vertices}
    max_swap = 0
    max_swap_minimal = 0
    images: dict[tuple[str, str, tuple[int, ...]], tuple[int, ...]] = {}
    for s1, s2 in itertools.permutations(g.vertices, 2):
        rs = recurrents[s1]
        config = partial(Configuration, g, s1)  # for report lines only
        i1, i2 = g.vertex_index(s1), g.vertex_index(s2)
        out2 = g.outdeg(s2)
        swap, swap_back = bijection._swapper(g, i1, i2), bijection._swapper(g, i2, i1)
        targets = set(recurrents[s2].vectors)
        back_host = delete_out_arcs(g, s1)
        min_sum = min(rs.sums)
        swaps = []
        for vec, total, minimal in zip(rs.vectors, rs.sums, reference_minimal_flags(rs.vectors)):
            k, state = swap(vec)
            image = tuple(state)
            if image not in targets:
                raise InternalCheckError("swap image is not recurrent; this cannot happen")
            if total != out2 + sum(image):
                raise InternalCheckError("swap image does not preserve the sum statistic")
            swaps.append(k)
            images[(s1, s2, vec)] = image
            max_swap = max(max_swap, k)
            if minimal:
                max_swap_minimal = max(max_swap_minimal, k)
            back, _ = swap_back(image)
            if back != k:
                report.fail(
                    f"swap symmetry broke for {config(vec)} between {s1} and {s2}: {k} vs {back}"
                )
            # the image augmented by k, stabilized toward s1, is c augmented by k,
            # both on the full domain, settled by the public path
            round_trip, _ = stabilize(back_host, augment_sink(Configuration(g, s2, image), k))
            if round_trip != augment_sink(config(vec), k):
                report.fail(f"round trip did not return {config(vec)} augmented by {k}")
            if total == min_sum and k != 0:
                report.fail(f"minimum configuration {config(vec)} has swap number {k}")
        for (i, c), (j, d) in itertools.permutations(enumerate(rs.vectors), 2):
            if swaps[i] > swaps[j] and all(a <= b for a, b in zip(c, d)):
                report.fail(
                    f"swap numbers not monotone: {config(c)} <= {config(d)} "
                    f"but {swaps[i]} > {swaps[j]}"
                )
        if len(set(images[(s1, s2, vec)] for vec in rs.vectors)) != len(rs.vectors):
            report.fail(f"swap map is not injective from sink {s1} to {s2}")
    report.note(f"max swap number observed: {max_swap}")
    report.note(f"max swap number over minimal configurations: {max_swap_minimal}")
    # composition across three sinks: experiment only, nothing is asserted
    if g.n_vertices >= 3:
        composed_equal = 0
        composed_total = 0
        for s1, s2, s3 in itertools.permutations(g.vertices[:3], 3):
            for vec in recurrents[s1].vectors:
                direct = images[(s1, s3, vec)]
                via = images[(s2, s3, images[(s1, s2, vec)])]
                composed_total += 1
                composed_equal += direct == via
        report.note(
            f"three-sink composition agreed on {composed_equal}/{composed_total} cases"
        )
    return report


# The least number of arcs pointing backwards in any vertex order of the loopless
# host, by a DP over the sets of vertices placed first: the minimum feedback arc
# set, which equals kappa on Eulerian hosts (Perrot and Van Pham); the reference
# for ``kappa``'s burnt-set recursion.
def reference_min_feedback_arc_set(g: MultiDigraph) -> int:
    n = g.n_vertices
    arcs = [[0] * n for _ in range(n)]
    for tail, head in g.arcs:
        if tail != head:
            arcs[g.vertex_index(tail)][g.vertex_index(head)] += 1
    best = [0] + [None] * ((1 << n) - 1)
    for placed in range(1, 1 << n):
        # v placed last among ``placed``: its arcs into the earlier ones point back
        best[placed] = min(
            best[placed & ~(1 << v)] + sum(arcs[v][u] for u in range(n) if placed >> u & 1)
            for v in range(n)
            if placed >> v & 1
        )
    return best[-1]
