"""Shared corpora and helpers for the test suite.

Everything here is deterministic: fixed seeds, exhaustive bounded families,
and the two reconstructed demo graphs under tests/data/.
"""

from __future__ import annotations

import functools
import itertools
import random
from pathlib import Path

from chipfiring import Configuration, MultiDigraph, is_eulerian, parse_edge_list
from chipfiring.families import random_eulerian, random_strongly_connected, undirected_graph

DATA = Path(__file__).parent / "data"

CORPUS_SEED = 20240611
CORPUS_SIZE = 200

NON_EULERIAN_SEED = 987123
NON_EULERIAN_SIZE = 100


def data_graph(name: str) -> MultiDigraph:
    return parse_edge_list((DATA / name).read_text())


def stable_cube(g: MultiDigraph, s: str):
    """Every stable configuration of the sink game (g, s), in lexicographic order."""
    bounds = [g.outdeg(v) for v in g.vertices if v != s]
    for combo in itertools.product(*(range(k) for k in bounds)):
        yield Configuration(g, s, combo)


@functools.lru_cache(maxsize=None)
def corpus() -> tuple[MultiDigraph, ...]:
    """The seeded random Eulerian corpus: <= 5 vertices, <= 12 arcs, loops allowed."""
    rng = random.Random(CORPUS_SEED)
    return tuple(random_eulerian(rng, 5, 12, True) for _ in range(CORPUS_SIZE))


@functools.lru_cache(maxsize=None)
def small_corpus() -> tuple[MultiDigraph, ...]:
    """Corpus members with at most 4 vertices, for the exhaustive small-scale checks."""
    picked = tuple(g for g in corpus() if g.n_vertices <= 4)
    rng = random.Random(CORPUS_SEED + 1)
    extra = tuple(random_eulerian(rng, 4, 9, True) for _ in range(40))
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


def eulerian_members(graphs):
    return [g for g in graphs if is_eulerian(g)]
