"""Immutable multidigraph value type plus the rewriting operations built on it.

Vertices are strings and keep their construction order; that order is the
canonical order used everywhere else (configuration domains, enumeration order,
matrix indexing).  Arcs are (tail, head) pairs identified by their position in
the arc list, so parallel arcs stay distinguishable; every rewriting operation
keeps the surviving arcs in their original relative order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import GraphError, SizeCapError

Arc = tuple[str, str]

# parse_edge_list refuses inputs above this many arcs before materializing them
MAX_ARCS = 1_000_000


@dataclass(frozen=True)
class MultiDigraph:
    """Labeled multidigraph; loops and parallel arcs allowed."""

    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        """Validate, then build the one integer form every query reads.

        ``_index`` maps names to canonical positions.  Row i of ``_firing_table``
        is ``(i, outdeg, loopless outdeg, ((neighbor index, multiplicity), ...))``
        for the i-th vertex, neighbors in canonical order and loops left out; the
        firing kernel in ``dynamics`` reads it.  ``_successors`` and
        ``_predecessors`` hold the distinct non-loop neighbors by index, and
        ``_indeg`` the in-degrees, loops included.  ``_eulerian`` and ``_strong``
        are the connectivity flags; with balanced degrees one weak search decides both.
        """
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        rows: list[dict[int, int]] = [{} for _ in self.vertices]
        indeg = [0] * len(self.vertices)
        # distinct arcs in first-appearance order, so the first bad one is the first bad arc
        for (tail, head), m in Counter(self.arcs).items():
            if tail not in index or head not in index:
                i = self.arcs.index((tail, head))
                raise GraphError(f"arc {i} ({tail} -> {head}) uses an undeclared vertex")
            rows[index[tail]][index[head]] = m
            indeg[index[head]] += m
        table = tuple(
            (i, sum(row.values()), sum(row.values()) - row.get(i, 0),
             tuple(sorted((j, m) for j, m in row.items() if j != i)))
            for i, row in enumerate(rows)
        )
        successors = tuple(tuple(u for u, _ in row[3]) for row in table)
        tails: list[list[int]] = [[] for _ in self.vertices]
        for v, heads in enumerate(successors):
            for u in heads:
                tails[u].append(v)
        predecessors = tuple(map(tuple, tails))
        balanced = all(d == row[1] for d, row in zip(indeg, table))
        strong = bool(self.vertices) and (
            all(_reach((0,), successors, predecessors)) if balanced
            else all(_reach((0,), successors)) and all(_reach((0,), predecessors))
        )
        for name, value in (
            ("_index", index),
            ("_firing_table", table),
            ("_successors", successors),
            ("_predecessors", predecessors),
            ("_indeg", tuple(indeg)),
            ("_eulerian", balanced and strong),
            ("_strong", strong),
            # the dataclass hash, computed once: every cache keyed on a graph asks for it
            ("_hash", hash((self.vertices, self.arcs))),
        ):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, arcs, vertices=()) -> "MultiDigraph":
        """Build a graph from arc pairs, inferring vertex order by first appearance."""
        arcs = tuple((str(t), str(h)) for t, h in arcs)
        order: dict[str, None] = {str(v): None for v in vertices}
        for tail, head in arcs:
            order.setdefault(tail, None)
            order.setdefault(head, None)
        return cls(tuple(order), arcs)

    # ------------------------------------------------------------------ sizes
    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    # ---------------------------------------------------------------- lookups
    def vertex_index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def outdeg(self, v: str) -> int:
        """Out-degree including loops."""
        return self._firing_table[self.vertex_index(v)][1]

    def indeg(self, v: str) -> int:
        """In-degree including loops."""
        return self._indeg[self.vertex_index(v)]

    def multiplicity(self, tail: str, head: str) -> int:
        """Number of parallel arcs tail -> head."""
        t, h = self.vertex_index(tail), self.vertex_index(head)
        _, out, drop, neighbors = self._firing_table[t]
        return out - drop if t == h else dict(neighbors).get(h, 0)

    def loops_at(self, v: str) -> int:
        _, out, drop, _ = self._firing_table[self.vertex_index(v)]
        return out - drop

    @property
    def loop_count(self) -> int:
        return sum(out - drop for _, out, drop, _ in self._firing_table)

    def out_neighbors(self, v: str) -> tuple[str, ...]:
        """Distinct heads of arcs leaving v, in canonical order; v itself excluded."""
        return tuple(self.vertices[u] for u in self._successors[self.vertex_index(v)])

    def arc(self, index: int) -> Arc:
        if not 0 <= index < len(self.arcs):
            raise GraphError(f"no arc with index {index}")
        return self.arcs[index]

    # ----------------------------------------------------------- connectivity
    def is_weakly_connected(self) -> bool:
        return bool(self.vertices) and all(_reach((0,), self._successors, self._predecessors))

    def is_strongly_connected(self) -> bool:
        return self._strong

    def reachable_from(self, start: str) -> frozenset[str]:
        reached = _reach((self.vertex_index(start),), self._successors)
        return frozenset(v for v, r in zip(self.vertices, reached) if r)

    def __repr__(self):
        return f"MultiDigraph({list(self.vertices)!r}, {list(self.arcs)!r})"


def _reach(starts, *tables, skip: tuple[int, int] | None = None) -> list[bool]:
    """Which vertex indices a search from ``starts`` reaches along the rows of
    ``tables`` (vertex index -> indices it leads to), never taking the step ``skip``."""
    reached = [False] * len(tables[0])
    for v in starts:
        reached[v] = True
    stack = list(starts)
    while stack:
        v = stack.pop()
        for table in tables:
            for u in table[v]:
                if not reached[u] and (v, u) != skip:
                    reached[u] = True
                    stack.append(u)
    return reached


@dataclass(frozen=True)
class BridgeCut:
    """Vertex cut witnessing a bridge: exactly one arc leaves ``cut_set`` and one enters."""

    cut_set: frozenset[str]
    bridge: int
    co_bridge: int


def is_eulerian(g: MultiDigraph) -> bool:
    """True iff g is connected and every vertex has equal in- and out-degree.

    The empty graph is not Eulerian; a single loopless vertex is (degrees 0 = 0),
    which keeps fully contracted graphs valid.
    """
    return g._eulerian


def is_undirected(g: MultiDigraph) -> bool:
    """True iff arc multiplicities are symmetric between every pair of distinct vertices."""
    rows = [dict(row[3]) for row in g._firing_table]
    return all(rows[u].get(v, 0) == m for v, row in enumerate(rows) for u, m in row.items())


def delete_out_arcs(g: MultiDigraph, s: str) -> MultiDigraph:
    """Remove every arc whose tail is s (loops at s included)."""
    g.vertex_index(s)
    return MultiDigraph(g.vertices, tuple(a for a in g.arcs if a[0] != s))


def delete_arcs(g: MultiDigraph, indices) -> MultiDigraph:
    """Remove the arcs with the given indices; the rest keep their relative order."""
    drop = set(indices)
    for i in drop:
        g.arc(i)
    return MultiDigraph(g.vertices, tuple(a for i, a in enumerate(g.arcs) if i not in drop))


def _merged_name(g: MultiDigraph, merged: set[str]) -> str:
    name, others = "+".join(sorted(merged)), set(g.vertices) - merged
    while name in others:
        name += "+"
    return name


def _contract(g: MultiDigraph, merged: set[str], dropped_arcs: set[int]) -> MultiDigraph:
    name = _merged_name(g, merged)
    vertices = []
    placed = False
    for v in g.vertices:
        if v in merged:
            if not placed:
                vertices.append(name)
                placed = True
        else:
            vertices.append(v)
    rename = lambda v: name if v in merged else v
    arcs = tuple(
        (rename(tail), rename(head))
        for i, (tail, head) in enumerate(g.arcs)
        if i not in dropped_arcs
    )
    return MultiDigraph(tuple(vertices), arcs)


def contract_arc(g: MultiDigraph, index: int) -> MultiDigraph:
    """Contract a non-loop arc: merge its endpoints, drop the arc itself.

    Arcs parallel to the contracted one, and reverse partners, become loops at
    the merged vertex.  The merged vertex is named by joining the endpoint names
    with '+' in sorted order, with a '+' appended while another vertex has that
    name, and takes the position of the earlier endpoint.
    """
    tail, head = g.arc(index)
    if tail == head:
        raise GraphError("cannot contract a loop")
    return _contract(g, {tail, head}, {index})


def contract_vertices(g: MultiDigraph, w) -> MultiDigraph:
    """Merge a nonempty vertex set into one vertex; internal arcs become loops."""
    merged = {str(v) for v in w}
    if not merged:
        raise GraphError("cannot contract an empty vertex set")
    for v in merged:
        g.vertex_index(v)
    return _contract(g, merged, set())


def remove_loops(g: MultiDigraph) -> tuple[MultiDigraph, int]:
    """Drop all loops; return the loopless graph and the number of loops removed."""
    kept = tuple(a for a in g.arcs if a[0] != a[1])
    return MultiDigraph(g.vertices, kept), len(g.arcs) - len(kept)


def reverse_partner(g: MultiDigraph, index: int) -> int | None:
    """Index of the first arc running opposite to the given one, or None."""
    tail, head = g.arc(index)
    if tail == head:
        return None
    for j, arc in enumerate(g.arcs):
        if j != index and arc == (head, tail):
            return j
    return None


def is_bridge(g: MultiDigraph, index: int) -> bool:
    """True iff deleting the arc destroys strong connectivity.

    Requires g strongly connected.  Loops and parallel arcs are never bridges;
    an arc t -> h of multiplicity 1 is one iff h is unreachable from t without
    it.
    """
    if not g.is_strongly_connected():
        raise GraphError("bridge test requires a strongly connected graph")
    tail, head = g.arc(index)
    t, h = g._index[tail], g._index[head]
    if t == h or dict(g._firing_table[t][3])[h] > 1:
        return False
    return not _reach((t,), g._successors, skip=(t, h))[h]


def bridge_cut(g: MultiDigraph, index: int) -> BridgeCut:
    """Cut witness for a bridge b of an Eulerian graph.

    Returns X = vertices reachable from tail(b) once b is removed, together with
    the unique arc b' crossing back into X.  Both uniqueness properties are
    verified by scanning the arc list.
    """
    if not is_bridge(g, index):
        raise GraphError(f"arc {index} is not a bridge")
    tail, head = g.arc(index)
    start = g._index[tail]
    reached = _reach((start,), g._successors, skip=(start, g._index[head]))
    cut = frozenset(v for v, r in zip(g.vertices, reached) if r)
    outward = [i for i, (t, h) in enumerate(g.arcs) if t in cut and h not in cut]
    inward = [i for i, (t, h) in enumerate(g.arcs) if t not in cut and h in cut]
    if outward != [index] or len(inward) != 1:
        raise GraphError(
            f"arc {index} admits no single-crossing cut "
            f"(outward={outward}, inward={inward}); is the graph Eulerian?"
        )
    return BridgeCut(cut, index, inward[0])


def parse_edge_list(text: str) -> MultiDigraph:
    """Parse the shared edge-list format.

    Comment lines start with '#'.  Every other nonempty line is
    ``tail head [multiplicity]`` separated by whitespace; multiplicity defaults
    to 1.  The vertex set is the union of mentioned tokens in first-appearance
    order.  More than ``MAX_ARCS`` arcs in total is refused with SizeCapError.
    """
    arcs: list[Arc] = []
    order: dict[str, None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 'tail head [multiplicity]', got {raw!r}")
        tail, head = parts[0], parts[1]
        mult = 1
        if len(parts) == 3:
            try:
                mult = int(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: multiplicity {parts[2]!r} is not an integer") from None
            if mult < 1:
                raise GraphError(f"line {lineno}: multiplicity must be positive, got {mult}")
        if len(arcs) + mult > MAX_ARCS:
            raise SizeCapError(f"line {lineno}: the graph has more than {MAX_ARCS} arcs")
        order.setdefault(tail, None)
        order.setdefault(head, None)
        arcs.extend([(tail, head)] * mult)
    if not order:
        raise GraphError("empty graph description")
    return MultiDigraph(tuple(order), tuple(arcs))
