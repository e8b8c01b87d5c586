"""Seeded random families.

Random Eulerian multidigraphs are built as unions of directed cycles (every
Eulerian digraph decomposes into arc-disjoint cycles, so the generator covers
the whole class); a length-1 cycle is a loop.  All randomness comes from an
explicit seed, never from wall-clock entropy.
"""

from __future__ import annotations

import random

from .errors import GraphError
from .graph import MultiDigraph, is_eulerian


def _vertex_count(rng: random.Random, max_vertices: int, max_arcs: int) -> int:
    """n in [2, min(max_vertices, max_arcs)]: a strong host on n vertices has n arcs."""
    if min(max_vertices, max_arcs) < 2:
        raise GraphError(f"size budget of {max_vertices} vertices, {max_arcs} arcs is below 2")
    return rng.randint(2, min(max_vertices, max_arcs))


def random_eulerian(
    rng: random.Random,
    max_vertices: int = 5,
    max_arcs: int = 12,
) -> MultiDigraph:
    """Random connected Eulerian multidigraph within the given size budget."""
    while True:
        n = _vertex_count(rng, max_vertices, max_arcs)
        names = [f"v{i}" for i in range(n)]
        arcs: list[tuple[str, str]] = []
        budget = rng.randint(n, max_arcs)
        while len(arcs) < budget:
            length = rng.randint(1, n)
            if len(arcs) + length > max_arcs:
                break
            cycle = rng.sample(names, length)
            arcs.extend(
                (cycle[i], cycle[(i + 1) % length]) for i in range(length)
            )
        g = MultiDigraph.of(arcs, names)
        if is_eulerian(g):
            return g


def random_strongly_connected(
    rng: random.Random,
    max_vertices: int = 4,
    max_arcs: int = 10,
    eulerian: bool | None = False,
) -> MultiDigraph:
    """Random strongly connected multidigraph; ``eulerian=False`` filters the class out."""
    while True:
        n = _vertex_count(rng, max_vertices, max_arcs)
        names = [f"v{i}" for i in range(n)]
        n_arcs = rng.randint(n, max_arcs)
        arcs = []
        for _ in range(n_arcs):
            tail = rng.choice(names)
            head = rng.choice([v for v in names if v != tail])
            arcs.append((tail, head))
        g = MultiDigraph.of(arcs, names)
        if not g.is_strongly_connected():
            continue
        if eulerian is not None and is_eulerian(g) != eulerian:
            continue
        return g
