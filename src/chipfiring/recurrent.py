"""Recurrence testing, enumeration of recurrent configurations, and their statistics.

Burning test (Speer, 1993): stable c is recurrent iff stabilizing c + b returns
c, where b = Δᵀσ, Δ is the reduced Laplacian and σ >= 1 the least script with
b >= 0; that run fires exactly σ.  On Eulerian hosts σ = 1 and b is one sink
firing (Dhar).  Enumeration walks down the recurrent up-set of the stable cube
prod_v [0, outdeg(v)-1] by reverse search on the integer firing kernel of
``dynamics``, on any strongly connected host, and cross-checks the count
against det Δ.  Levels and ``kappa`` need an Eulerian host.
"""

from __future__ import annotations

import math
import os
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .dynamics import Configuration, _movers, _settle
from .errors import ConfigurationError, GraphError, InternalCheckError, SettingError, SizeCapError
from .graph import MultiDigraph, is_eulerian, remove_loops

DEFAULT_CELL_CAP = 20_000_000

# a cap set for the current context (``cfg --cap``); it beats CFG_CAP_CELLS
CELL_CAP: ContextVar[int | None] = ContextVar("CELL_CAP", default=None)


def cell_cap() -> int:
    """Enumeration cap in stable-cube cells: CELL_CAP if set, else CFG_CAP_CELLS."""
    cap = CELL_CAP.get()
    return environment_cap() if cap is None else cap


def environment_cap() -> int:
    """CFG_CAP_CELLS, or the default when it is unset; SettingError if invalid."""
    raw = os.environ.get("CFG_CAP_CELLS")
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise SettingError(f"CFG_CAP_CELLS must be a positive integer, got {raw!r}")
    return cap


def _check_cap(g: MultiDigraph, sink: int, degree: int = 1) -> None:
    """Refuse a stable cube prod_{v != sink} outdeg(v) above the cell cap, before
    any cache is read; ``degree=2`` sizes the cube of ``remove_loops(g)``.  The
    size is computed once per (graph, sink, degree), the cap read every call."""
    cells = g._cube_cells.get((sink, degree))
    if cells is None:
        cells = g._cube_cells[sink, degree] = math.prod(
            row[degree] for row in g._firing_table if row[0] != sink
        )
    cap = cell_cap()
    if cells > cap:
        raise SizeCapError(
            f"stable cube has {cells} cells, above the cap of {cap}; "
            "use a smaller instance or raise CFG_CAP_CELLS"
        )


# --------------------------------------------------------------------- algebra
def reduced_laplacian(g: MultiDigraph, s: str) -> list[list[int]]:
    """Laplacian of the loopless host with the row and column of s removed.

    Rows and columns follow the canonical order of V \\ {s}; the diagonal holds
    the loopless out-degrees, off-diagonal entries are -d(v_i, v_j).
    """
    sink = g.vertex_index(s)
    rows = []
    for v, _, drop, neighbors in g._firing_table:
        if v != sink:
            row = [0] * g.n_vertices
            row[v] = drop
            for u, m in neighbors:
                row[u] = -m
            del row[sink]
            rows.append(row)
    return rows


def bareiss_determinant(rows) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@lru_cache(maxsize=None)
def recurrent_count(g: MultiDigraph, s: str) -> int:
    """Order of the sandpile group with sink s: det of the reduced Laplacian."""
    return bareiss_determinant(reduced_laplacian(g, s))


# -------------------------------------------------------------- burning test
def _require_eulerian(g: MultiDigraph) -> None:
    if not is_eulerian(g):
        raise GraphError("operation requires an Eulerian graph")


def is_recurrent(g: MultiDigraph, s: str, c: Configuration) -> bool:
    """Burning test: stable c is recurrent iff stabilize(c + beta) == c.

    Valid on Eulerian hosts, loops allowed, where ``_burner``'s script is one
    firing of the sink.  When the test succeeds, the run is additionally
    required to fire each non-sink vertex exactly once; anything else is an
    internal bug.
    """
    _require_eulerian(g)
    if c.sink != s or c.host.vertices != g.vertices:
        raise ConfigurationError("configuration does not belong to this sink game")
    sink = g.vertex_index(s)
    if any(c.chips[v - (v > sink)] >= out for v, out, _, _ in _movers(g, sink)):
        raise ConfigurationError("burning test requires a stable configuration")
    burn, script = _burner(g, sink)
    counts, returned = burn(c.chips)
    if not returned:
        return False
    if counts != script:
        raise InternalCheckError(
            f"burning run of a recurrent configuration fired {dict(zip(g.vertices, counts))}, "
            "expected exactly one firing per non-sink vertex"
        )
    return True


def _recurrent_vectors(g: MultiDigraph, s: str) -> tuple[tuple[int, ...], ...]:
    """Recurrent chip vectors in lexicographic order; checks the cap before the cache."""
    if not (is_eulerian(g) or g.is_strongly_connected()):
        raise GraphError("operation requires a strongly connected graph")
    sink = g.vertex_index(s)
    _check_cap(g, sink)
    return _search(g, sink)


def _burning_script(g: MultiDigraph, s: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The burning configuration b = Δᵀσ and its script σ >= 1, the least with
    b >= 0, on V \\ {s}.  Raising σ_u by the least amount that clears b_u < 0
    cannot overshoot, as raising other entries only lowers b_u."""
    lap = reduced_laplacian(g, s)
    script = [1] * len(lap)
    while True:
        burn = [sum(x * row[u] for x, row in zip(script, lap)) for u in range(len(lap))]
        if min(burn, default=0) >= 0:
            return tuple(burn), tuple(script)
        for u, b in enumerate(burn):
            if b < 0:
                script[u] -= b // lap[u][u]


# bounded like _movers; one entry per (graph, sink) burned
@lru_cache(maxsize=256)
def _burner(g: MultiDigraph, sink: int):
    """Speer's burning test for sink index ``sink``, set up once.

    Returns ``burn`` and the script σ by vertex index, 0 on the sink.
    ``burn(cell)`` settles a chip vector of V \\ {sink} plus b, the sink's slot
    collecting the chips lost, and returns the firing counts by vertex index
    and whether the run returned ``cell``.
    """
    movers = _movers(g, sink)
    b, script = _burning_script(g, g.vertices[sink])
    b = [(u + (u >= sink), x) for u, x in enumerate(b) if x]  # by vertex index

    def burn(cell: tuple[int, ...]) -> tuple[list[int], bool]:
        chips = list(cell)
        chips.insert(sink, 0)
        for u, x in b:
            chips[u] += x
        counts = _settle(chips, movers)
        del chips[sink]
        return counts, tuple(chips) == cell

    return burn, [*script[:sink], 0, *script[sink:]]


@lru_cache(maxsize=None)
def _search(g: MultiDigraph, sink: int) -> tuple[tuple[int, ...], ...]:
    """Reverse search (Avis and Fukuda, 1996) down from the maximal stable cell.

    A stable cell above a recurrent one is recurrent (Holroyd et al., 2008), so
    recurrent c has the recurrent parent c + e_k, k the first vertex of c below
    its maximum; only children c - e_i, i <= k, of recurrent cells are burned.
    """
    burn, script = _burner(g, sink)
    top = tuple(out - 1 for v, out, _, _ in g._firing_table if v != sink)
    found = []
    stack = [top]
    while stack:
        cell = stack.pop()
        counts, returned = burn(cell)
        if not returned:
            continue
        if counts != script:
            raise InternalCheckError("burning run did not fire its burning script")
        found.append(cell)
        for i, x in enumerate(cell):
            if x:
                stack.append(cell[:i] + (x - 1,) + cell[i + 1 :])
            if x < top[i]:
                break
    found.sort()
    expected = recurrent_count(g, g.vertices[sink])
    if len(found) != expected:
        raise InternalCheckError(
            f"enumerated {len(found)} recurrent configurations, "
            f"determinant predicts {expected}"
        )
    return tuple(found)


# the cache lives on _search; expose it where callers and tools look for it
_recurrent_vectors.cache_info, _recurrent_vectors.cache_clear = _search.cache_info, _search.cache_clear


def kappa(g: MultiDigraph) -> int:
    """Minimum of outdeg(s) + total chips over recurrents of the loopless host.

    Computed once per host with the canonical first vertex as sink; by sink
    independence of the sum multiset any other sink gives the same value.
    """
    _require_eulerian(g)
    _check_cap(g, 0, degree=2)
    return _kappa(g)


@lru_cache(maxsize=None)
def _kappa(g: MultiDigraph) -> int:
    bare, _ = remove_loops(g)
    s = bare.vertices[0]
    return bare.outdeg(s) + min(sum(vec) for vec in _recurrent_vectors(bare, s))


kappa.cache_info, kappa.cache_clear = _kappa.cache_info, _kappa.cache_clear


# ---------------------------------------------------------------- result type
@dataclass(frozen=True)
class RecurrentSet:
    """All recurrent configurations for one sink, with sums, kappa, and levels.

    ``vectors[i]`` holds member i's chips on ``domain`` (V minus the sink, in
    canonical order), sorted lexicographically; ``sums[i]`` is outdeg(sink) +
    its total chips, ``levels[i]`` is ``sums[i] - kappa``.  ``configs`` is built
    on first use.
    """

    host: MultiDigraph
    sink: str
    vectors: tuple[tuple[int, ...], ...]
    sums: tuple[int, ...]
    kappa: int
    levels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.configs)

    def __contains__(self, c: Configuration) -> bool:
        return self.index(c) is not None

    @cached_property
    def domain(self) -> tuple[str, ...]:
        return tuple(v for v in self.host.vertices if v != self.sink)

    @cached_property
    def configs(self) -> tuple[Configuration, ...]:
        return tuple(Configuration(self.host, self.sink, vec) for vec in self.vectors)

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        return {vec: i for i, vec in enumerate(self.vectors)}

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Index pairs (i, j) with vectors[j] = vectors[i] + e_t; the members form
        an up-set of the stable cube, so these steps join any two comparable ones."""
        members = self._positions
        return tuple(
            (members[below], j)
            for j, vec in enumerate(self.vectors)
            for t, x in enumerate(vec)
            if x and (below := vec[:t] + (x - 1,) + vec[t + 1 :]) in members
        )

    @cached_property
    def minimal_flags(self) -> tuple[bool, ...]:
        """Per member, in order: whether no other member is <= it (no cover ends at it)."""
        covered = {j for _, j in self.covers}
        return tuple(j not in covered for j in range(len(self.vectors)))

    def index(self, c: Configuration) -> int | None:
        if c.sink != self.sink:
            return None
        return self._positions.get(c.chips)

    def to_json_dict(self) -> dict:
        return {
            "sink": self.sink,
            "kappa": self.kappa,
            "configs": [
                {"chips": dict(zip(self.domain, vec)), "sum": s, "level": l}
                for vec, s, l in zip(self.vectors, self.sums, self.levels)
            ],
        }


def enumerate_recurrents(g: MultiDigraph, s: str) -> RecurrentSet:
    """Enumerate every recurrent configuration of the sink game (g, s)."""
    g.vertex_index(s)
    _require_eulerian(g)
    vectors = _recurrent_vectors(g, s)
    k = kappa(g)
    out_s = g.outdeg(s)
    sums = tuple(out_s + sum(vec) for vec in vectors)
    levels = tuple(total - k for total in sums)
    if any(level < 0 for level in levels):
        raise InternalCheckError("negative level; kappa inconsistent with enumeration")
    if g.loop_count == 0 and levels and min(levels) != 0:
        raise InternalCheckError("loopless host must attain level 0")
    return RecurrentSet(g, s, vectors, sums, k, levels)


def level(g: MultiDigraph, s: str, c: Configuration) -> int:
    """Level of a recurrent configuration: its sum statistic minus kappa."""
    if not is_recurrent(g, s, c):
        raise ConfigurationError("level is defined for recurrent configurations only")
    return g.outdeg(s) + c.total() - kappa(g)


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


def _require_member(rs: RecurrentSet, c: Configuration) -> int:
    i = rs.index(c)
    if i is None:
        raise ConfigurationError("configuration is not in the recurrent set")
    return i


def is_minimal(rs: RecurrentSet, c: Configuration) -> bool:
    """No other member of the set is pointwise <= c."""
    return rs.minimal_flags[_require_member(rs, c)]


def is_minimum(rs: RecurrentSet, c: Configuration) -> bool:
    """c attains the minimum chip total over the set."""
    i = _require_member(rs, c)
    return rs.sums[i] == min(rs.sums)
