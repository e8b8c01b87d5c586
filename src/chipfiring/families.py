"""Named graph builders and seeded random families.

Random Eulerian multidigraphs are built as unions of directed cycles (every
Eulerian digraph decomposes into arc-disjoint cycles, so the generator covers
the whole class); a length-1 cycle is a loop.  All randomness comes from an
explicit seed, never from wall-clock entropy.
"""

from __future__ import annotations

import random

from .graph import MultiDigraph, is_eulerian


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


def random_eulerian(
    rng: random.Random,
    max_vertices: int = 5,
    max_arcs: int = 12,
    allow_loops: bool = True,
) -> MultiDigraph:
    """Random connected Eulerian multidigraph within the given size budget."""
    while True:
        n = rng.randint(2, max_vertices)
        names = [f"v{i}" for i in range(n)]
        arcs: list[tuple[str, str]] = []
        budget = rng.randint(n, max_arcs)
        while len(arcs) < budget:
            min_len = 1 if allow_loops else 2
            length = rng.randint(min_len, n)
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
        n = rng.randint(2, max_vertices)
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
