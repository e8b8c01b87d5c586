"""Brute-force reference implementations used to cross-check the main paths.

Everything here is deliberately independent of the main algorithms: own
determinant (cofactor expansion), own stabilizer (different schedule), own
acyclicity test and Tutte deletion-contraction.  Only value types are shared.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .dynamics import Configuration
from .errors import ConfigurationError, GraphError, SizeCapError
from .graph import MultiDigraph, is_undirected
from .polynomial import LaurentPolynomial

MAX_ARB_VERTICES = 6
MAX_ACYCLIC_ARCS = 18
MAX_RECURRENT_VERTICES = 4


def brute_arborescences(g: MultiDigraph, s: str) -> int:
    """Count spanning arborescences toward s by exhausting out-arc choices.

    Every non-root vertex picks one of its non-loop out-arcs; the choice is an
    arborescence iff following the picks from every vertex reaches s.
    """
    g.vertex_index(s)
    if g.n_vertices > MAX_ARB_VERTICES:
        raise SizeCapError(f"arborescence oracle capped at {MAX_ARB_VERTICES} vertices")
    others = [v for v in g.vertices if v != s]
    choices = []
    for v in others:
        outs = [head for tail, head in g.arcs if tail == v and head != v]
        if not outs:
            return 0
        choices.append(outs)
    count = 0
    for pick in itertools.product(*choices):
        successor = dict(zip(others, pick))
        ok = True
        for v in others:
            current = v
            for _ in range(g.n_vertices):
                if current == s:
                    break
                current = successor[current]
            else:
                ok = False
                break
        if ok:
            count += 1
    return count


def _kahn_acyclic(n: int, arcs) -> bool:
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for t, h in arcs:
        indeg[h] += 1
        succ[t].append(h)
    ready = [v for v in range(n) if indeg[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return removed == n


def brute_acyclic_sets(g: MultiDigraph, s: str) -> int:
    """Count the largest acyclic arc subsets whose only out-degree-0 vertex is s."""
    g.vertex_index(s)
    arcs = [(g.vertex_index(t), g.vertex_index(h)) for t, h in g.arcs if t != h]
    if len(arcs) > MAX_ACYCLIC_ARCS:
        raise SizeCapError(f"acyclic-set oracle capped at {MAX_ACYCLIC_ARCS} arcs")
    n = g.n_vertices
    sink_index = g.vertex_index(s)
    best = -1
    count = 0
    for subset_size in range(len(arcs), -1, -1):
        if best >= 0 and subset_size < best:
            break
        for subset in itertools.combinations(range(len(arcs)), subset_size):
            chosen = [arcs[i] for i in subset]
            outdeg = [0] * n
            for t, _ in chosen:
                outdeg[t] += 1
            if [v for v in range(n) if outdeg[v] == 0] != [sink_index]:
                continue
            if not _kahn_acyclic(n, chosen):
                continue
            if subset_size > best:
                best, count = subset_size, 1
            else:
                count += 1
    return max(count, 0)


def _cofactor_determinant(matrix) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _cofactor_determinant(minor)
    return total


def _last_firable_stabilize(g: MultiDigraph, sink: str, chips: dict[str, int]) -> dict[str, int]:
    """Plain stabilizer firing the last firable vertex each pass.

    The schedule intentionally differs from the main engine's; by the abelian
    property the result must still agree.
    """
    chips = dict(chips)
    guard = (sum(chips.values()) + g.n_arcs + 1) * (g.n_vertices + 1) * 2 ** (
        g.n_vertices + 2
    ) * (max((g.outdeg(v) for v in g.vertices), default=0) + 1)
    fired = 0
    while True:
        firable = [
            v
            for v in g.vertices
            if v != sink
            and g.outdeg(v) - g.loops_at(v) >= 1
            and chips[v] >= g.outdeg(v)
        ]
        if not firable:
            return chips
        v = firable[-1]
        chips[v] -= g.outdeg(v) - g.loops_at(v)
        for tail, head in g.arcs:
            if tail == v and head != v and head != sink:
                chips[head] += 1
        fired += 1
        if fired > guard:
            raise SizeCapError("oracle stabilizer exceeded its firing guard")


def _flood(g: MultiDigraph, s: str) -> int:
    """A saturating multiple of the group order; refuses hosts above the cap or
    not strongly connected (their reduced Laplacian may be singular)."""
    if not g.is_strongly_connected():
        raise GraphError("definitional test requires a strongly connected graph")
    if g.n_vertices > MAX_RECURRENT_VERTICES:
        raise SizeCapError(f"recurrence oracle capped at {MAX_RECURRENT_VERTICES} vertices")
    others = [v for v in g.vertices if v != s]
    laplacian = [
        [
            g.outdeg(v) - g.loops_at(v) if v == u else -g.multiplicity(v, u)
            for u in others
        ]
        for v in others
    ]
    order = abs(_cofactor_determinant(laplacian))
    return order * (1 + max((g.outdeg(v) for v in others), default=0))


def _flood_fixed(g: MultiDigraph, s: str, flood: int, chips) -> bool:
    start = dict(zip((v for v in g.vertices if v != s), chips))
    return _last_firable_stabilize(g, s, {v: x + flood for v, x in start.items()}) == start


def recurrent_definitional_test(g: MultiDigraph, s: str, c: Configuration) -> bool:
    """Recurrence by the definition, valid on any strongly connected digraph.

    A stable c is recurrent iff it is the stable outcome of flooding its own
    equivalence class: add m chips everywhere with m a multiple of the group
    order and large enough to saturate, then stabilize.
    """
    if c.sink != s or c.host.vertices != g.vertices:
        raise ConfigurationError("configuration does not belong to this sink game")
    return _flood_fixed(g, s, _flood(g, s), c.chips)


def brute_recurrents(g: MultiDigraph, s: str) -> list[Configuration]:
    """The stable configurations that pass the definitional test, in cube order."""
    g.vertex_index(s)
    flood = _flood(g, s)
    cube = itertools.product(*(range(g.outdeg(v)) for v in g.vertices if v != s))
    return [Configuration(g, s, combo) for combo in cube if _flood_fixed(g, s, flood, combo)]


# ---------------------------------------------------------- undirected oracle
def _canonical_multigraph(vertices, edges):
    order = sorted(vertices)
    relabel = {v: i for i, v in enumerate(order)}
    return len(order), tuple(sorted((relabel[a], relabel[b]) for a, b in edges))


def _multigraph_connected(n: int, edges) -> bool:
    if n == 0:
        return False
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def _merge_endpoint(edges, keep: int, drop: int):
    renamed = [(keep if x == drop else x, keep if y == drop else y) for x, y in edges]
    return [(min(x, y), max(x, y)) for x, y in renamed]


# bounded; its memo peaks at 396 entries on the 3x4 grid and 178 on K7
@lru_cache(maxsize=4096)
def _tutte_at_x1(n: int, edges) -> LaurentPolynomial:
    """T(1, y) of a connected undirected multigraph by deletion-contraction.

    Loops contribute a factor y, bridges a factor 1 (the x of a bridge,
    evaluated at x = 1), everything else splits into delete + contract.
    """
    core = [e for e in edges if e[0] != e[1]]
    n_loops = len(edges) - len(core)
    if n_loops:
        return LaurentPolynomial.y(n_loops) * _tutte_at_x1(n, tuple(core))
    if not core:
        return LaurentPolynomial.one()
    a, b = core[0]
    rest = core[1:]
    contracted = _tutte_at_x1(
        *_canonical_multigraph(set(range(n)) - {b}, _merge_endpoint(rest, a, b))
    )
    if (a, b) not in rest and not _multigraph_connected(n, tuple(rest)):
        return contracted  # bridge: the x factor is 1
    deleted = _tutte_at_x1(*_canonical_multigraph(range(n), rest))
    return deleted + contracted


def undirected_tutte_oracle(g: MultiDigraph) -> LaurentPolynomial:
    """T_G(1, y) of an undirected graph given as a symmetric digraph.

    Each reverse arc pair stands for one undirected edge, each directed loop
    for one undirected loop.  Computed by classical deletion-contraction,
    independently of any chip-firing machinery.
    """
    if not is_undirected(g):
        raise GraphError("the classical oracle needs symmetric arc multiplicities")
    if not g.is_weakly_connected():
        raise GraphError("the classical oracle needs a connected graph")
    idx = {v: i for i, v in enumerate(g.vertices)}
    edges = []
    for v, u in itertools.combinations(g.vertices, 2):
        edges.extend([(min(idx[v], idx[u]), max(idx[v], idx[u]))] * g.multiplicity(v, u))
    for v in g.vertices:
        edges.extend([(idx[v], idx[v])] * g.loops_at(v))
    return _tutte_at_x1(*_canonical_multigraph(range(g.n_vertices), edges))
