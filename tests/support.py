"""Shared corpora and helpers for the test suite.

Everything here is deterministic: named example graphs, fixed seeds,
exhaustive bounded families, and the two reconstructed demo graphs under
tests/data/.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
from functools import partial
from pathlib import Path

from chipfiring import (
    Configuration,
    InternalCheckError,
    MultiDigraph,
    add,
    beta,
    bijection,
    checks,
    delete_arcs,
    enumerate_recurrents,
    is_bridge,
    is_eulerian,
    parse_edge_list,
    recurrent,
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
from chipfiring.dynamics import _movers, _settle
from chipfiring.recurrent import _recurrent_vectors
from chipfiring.families import random_eulerian, random_strongly_connected

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

    def add(name, func, help_text, graph_required=True, formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        if graph_required:
            p.add_argument("graph", help="edge-list file: 'tail head [multiplicity]' per line")
        p.add_argument("--format", choices=formats, default=formats[0])
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

    p = add("recurrents", _cmd_recurrents, "enumerate recurrent configurations")
    p.add_argument("--sink", default=None)

    p = add("tutte", _cmd_tutte, "generating polynomial and per-sink agreement")
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

    add("conjecture1", _cmd_conjecture1, "per-sink class-maxima report")

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


# ``RecurrentSet.minimal_flags`` as a scan over every pair of members; the
# reference its differential test compares against.
def reference_minimal_flags(vectors) -> tuple[bool, ...]:
    return tuple(
        not any(
            j != i and all(a <= b for a, b in zip(other, chips))
            for j, other in enumerate(vectors)
        )
        for i, chips in enumerate(vectors)
    )


# ``RecurrentSet.covers`` as it was defined on tuples: a dict of member
# positions and one lookup per member and positive coordinate; the reference
# its differential test compares against.
def reference_covers(vectors) -> tuple[tuple[int, int], ...]:
    members = {vec: i for i, vec in enumerate(vectors)}
    return tuple(
        (members[below], j)
        for j, vec in enumerate(vectors)
        for t, x in enumerate(vec)
        if x and (below := vec[:t] + (x - 1,) + vec[t + 1 :]) in members
    )


# ``lattice._representative`` as it ran before the m chips were settled once:
# each cell is stabilized from cell + m on every vertex; the reference its
# differential test compares against.
def reference_representative(g: MultiDigraph, s: str, cell) -> tuple[int, ...]:
    most = max((g.outdeg(v) for v in g.vertices if v != s), default=1)
    m = abs(recurrent.recurrent_count(g, s)) * most
    stable, _ = stabilize(g, Configuration(g, s, tuple(x + m for x in cell)))
    return stable.chips


# ``check_theta`` as it ran with a second swap search per member, the swap
# back, a separate round-trip settle and a scan over every pair of members;
# the reference its differential test compares against.
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
        out1, out2 = g.outdeg(s1), g.outdeg(s2)
        swap, swap_back = bijection._swapper(g, i1, i2), bijection._swapper(g, i2, i1)
        targets = set(recurrents[s2].vectors)
        back_movers = _movers(g, i1)
        min_sum = min(rs.sums)
        swaps = []
        for vec, total, minimal in zip(rs.vectors, rs.sums, rs.minimal_flags):
            k, state = swap(vec)
            del state[i2]
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
            # the image augmented by k, stabilized toward s1, is c augmented by k
            round_trip = list(image)
            round_trip.insert(i2, out2 + k)
            _settle(round_trip, back_movers)
            expected = list(vec)
            expected.insert(i1, out1 + k)
            if round_trip != expected:
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
