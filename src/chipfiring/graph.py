"""Immutable multidigraph value type and the integer firing table built with it.

Vertices are strings and keep their construction order; that order is the
canonical order used everywhere else (configuration domains, enumeration order,
matrix indexing).  Arcs are (tail, head) pairs identified by their position in
the arc list, so parallel arcs stay distinguishable.  Graphs are rewritten only
as firing tables, by vertex index and without names, in ``_rewrite``.
"""

from __future__ import annotations

# Counter's own C counting loop, a private CPython name: tests/test_graph.py's
# test_tally_counts_as_counter_does_in_first_appearance_order pins tally against
# Counter and fails first if CPython changes it
from collections import _count_elements
from dataclasses import dataclass

from .errors import GraphError, SizeCapError

Arc = tuple[str, str]

# parse_edge_list refuses inputs above this many arcs before materializing them
MAX_ARCS = 1_000_000
# a sink game's record refuses more non-sink vertices than this before it builds
# the dense reduced Laplacian that its O(n^3) determinant eliminates
MAX_GAME_VERTICES = 72


def tally(items) -> dict:
    """How many times each item occurs, keyed in first-appearance order: what
    ``collections.Counter(items)`` counts, with the same C loop, but without its
    ``isinstance(items, Mapping)`` test, whose first run for a type walks every
    registered ``Mapping`` subclass."""
    counts: dict = {}
    _count_elements(counts, items)
    return counts


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
        are the connectivity flags.  All but the index are read off the table,
        by ``_table`` and ``_connectivity``, which rewritten tables share.
        """
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        rows: list[dict[int, int]] = [{} for _ in self.vertices]
        # distinct arcs in first-appearance order, so the first bad one is the first bad arc
        for (tail, head), m in tally(self.arcs).items():
            if tail not in index or head not in index:
                i = self.arcs.index((tail, head))
                raise GraphError(f"arc {i} ({tail} -> {head}) uses an undeclared vertex")
            rows[index[tail]][index[head]] = m
        table = _table(rows)
        successors, predecessors, indeg, eulerian, strong = _connectivity(table)
        for name, value in (
            ("_index", index),
            ("_firing_table", table),
            ("_successors", successors),
            ("_predecessors", predecessors),
            ("_indeg", indeg),
            ("_eulerian", eulerian),
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
        """The arc at ``index``: an ``int``, not a ``bool``, below ``n_arcs``."""
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < len(self.arcs):
            raise GraphError(f"no arc with index {index!r}")
        return self.arcs[index]

    # ----------------------------------------------------------- connectivity
    def is_weakly_connected(self) -> bool:
        return bool(self.vertices) and all(_reach((0,), self._successors, self._predecessors))

    def is_strongly_connected(self) -> bool:
        return self._strong

    def __repr__(self):
        return f"MultiDigraph({list(self.vertices)!r}, {list(self.arcs)!r})"


def _table(rows: list[dict[int, int]]) -> tuple:
    """The firing table of the arc counts ``rows``: row i maps each head index to
    the number of arcs from vertex i to it, loops at i included; zero counts are
    left out."""
    return tuple(
        (i, sum(row.values()), sum(row.values()) - row.get(i, 0),
         tuple(sorted((j, m) for j, m in row.items() if j != i and m)))
        for i, row in enumerate(rows)
    )


def _connectivity(table: tuple) -> tuple:
    """A firing table's successor and predecessor lists (distinct non-loop
    neighbours by index), its in-degrees, loops included, and its Eulerian and
    strong-connectivity flags; with balanced degrees one weak search decides both."""
    successors = tuple(tuple(u for u, _ in row[3]) for row in table)
    tails: list[list[int]] = [[] for _ in table]
    indeg = [out - drop for _, out, drop, _ in table]
    for v, _, _, neighbors in table:
        for u, m in neighbors:
            tails[u].append(v)
            indeg[u] += m
    predecessors = tuple(map(tuple, tails))
    balanced = all(d == row[1] for d, row in zip(indeg, table))
    strong = bool(table) and (
        all(_reach((0,), successors, predecessors)) if balanced
        else all(_reach((0,), successors)) and all(_reach((0,), predecessors))
    )
    return successors, predecessors, tuple(indeg), balanced and strong, strong


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


def _rewrite(table: tuple, removed=(), merged=()) -> tuple:
    """A rewrite of a firing table, in its row format, without a graph: one copy of
    each (tail, head) index pair in ``removed`` deleted, and the vertex indices
    ``merged`` made one vertex at their earliest member's position, the arcs among
    them its loops; the others keep their order.  Equal to the ``_firing_table``
    of the graph with those arcs deleted and those vertices merged."""
    merged = set(merged)
    first = min(merged, default=None)
    kept = [v for v in range(len(table)) if v == first or v not in merged]
    position = {v: i for i, v in enumerate(kept)}
    position.update(dict.fromkeys(merged, position.get(first)))
    rows: list[dict[int, int]] = [{} for _ in kept]
    for v, out, drop, neighbors in table:
        row = rows[position[v]]
        for u, m in ((v, out - drop), *neighbors):
            row[position[u]] = row.get(position[u], 0) + m
    for tail, head in removed:
        rows[position[tail]][position[head]] -= 1
    return _table(rows)


def _from_table(table: tuple) -> MultiDigraph:
    """A graph whose ``_firing_table`` is ``table``, its vertices named by index."""
    names = tuple(map(str, range(len(table))))
    return MultiDigraph(names, tuple(
        (names[v], names[u])
        for v, out, drop, neighbors in table
        for u, m in ((v, out - drop), *neighbors)
        for _ in range(m)
    ))


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
