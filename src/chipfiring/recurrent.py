"""Recurrence testing, enumeration of recurrent configurations, and their statistics.

Burning test (Speer, 1993): stable c is recurrent iff stabilizing c + b returns
c, where b = Δᵀσ, Δ is the reduced Laplacian and σ >= 1 the least script with
b >= 0; that run fires exactly σ.  On Eulerian hosts σ = 1 and b is one sink
firing (Dhar).  Enumeration walks down the recurrent up-set of the stable cube
prod_v [0, outdeg(v)-1] by reverse search on the integer firing kernel of
``dynamics``, on any strongly connected host, and cross-checks the count
against det Δ.  Levels and ``kappa`` need an Eulerian host.  Every value of
one sink game lives in its record, ``RecurrentSet``, cached once per game.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress, product
from operator import itemgetter, lt, mul

from .dynamics import Configuration, _movers, _settle
from .errors import ConfigurationError, GraphError, InternalCheckError, SettingError, SizeCapError
from .graph import MultiDigraph, is_eulerian, remove_loops
from .polynomial import LaurentPolynomial

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


def _check_cap(g: MultiDigraph, sink: int) -> RecurrentSet:
    """Refuse a stable cube prod_{v != sink} outdeg(v) above the cell cap, before
    any cached value is used, and return the game record checked: the size is
    the record's, the cap is read on every call."""
    rs, cap = _game(g, sink), cell_cap()
    if rs.cells > cap:
        raise SizeCapError(
            f"stable cube has {rs.cells} cells, above the cap of {cap}; "
            "use a smaller instance or raise CFG_CAP_CELLS"
        )
    return rs


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


def recurrent_count(g: MultiDigraph, s: str) -> int:
    """Order of the sandpile group with sink s: det of the reduced Laplacian."""
    return _game(g, g.vertex_index(s)).count


# -------------------------------------------------------------- burning test
def _require_eulerian(g: MultiDigraph) -> None:
    if not is_eulerian(g):
        raise GraphError("operation requires an Eulerian graph")


def _require_strongly_connected(g: MultiDigraph) -> None:
    if not g.is_strongly_connected():
        raise GraphError("operation requires a strongly connected graph")


def is_recurrent(g: MultiDigraph, s: str, c: Configuration) -> bool:
    """Burning test: stable c is recurrent iff stabilize(c + b) == c.

    Valid on every strongly connected host, loops allowed, with the game
    record's burning configuration b and script σ.  When the test succeeds, the
    run is additionally required to fire exactly σ; anything else is an
    internal bug.
    """
    _require_strongly_connected(g)
    if c.sink != s or c.host.vertices != g.vertices:
        raise ConfigurationError("configuration does not belong to this sink game")
    rs = _game(g, g.vertex_index(s))
    if any(c.chips[v - (v > rs.sink_index)] >= out for v, out, _, _ in rs.movers):
        raise ConfigurationError("burning test requires a stable configuration")
    burn, script = rs.burner
    counts = burn(c.chips)
    if counts is None:
        return False
    if counts != script:
        raise InternalCheckError(
            f"burning run of a recurrent configuration fired {dict(zip(g.vertices, counts))}, "
            f"expected its burning script {dict(zip(g.vertices, script))}"
        )
    return True


def _recurrent_vectors(g: MultiDigraph, s: str) -> array:
    """The packed members, cube indices in ascending (lexicographic) order;
    checks the cap before the record."""
    _require_strongly_connected(g)
    return _check_cap(g, g.vertex_index(s)).members


def _burning_script(lap: list[list[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The burning configuration b = Δᵀσ and its script σ >= 1, the least with
    b >= 0, for the reduced Laplacian Δ = ``lap``.  Raising σ_u by the least amount
    that clears b_u < 0 cannot overshoot, as raising other entries only lowers b_u."""
    script = [1] * len(lap)
    while True:
        burn = [sum(x * row[u] for x, row in zip(script, lap)) for u in range(len(lap))]
        if min(burn, default=0) >= 0:
            return tuple(burn), tuple(script)
        for u, b in enumerate(burn):
            if b < 0:
                script[u] -= b // lap[u][u]


def kappa(g: MultiDigraph) -> int:
    """Minimum of outdeg(s) + total chips over recurrents of the loopless host.

    Read from g's own game record with the canonical first vertex as sink, whose
    cap is checked on every call: ``loop_lift`` maps the loopless host's
    recurrents onto g's and raises every sum by the loop count.  By sink
    independence of the sum multiset any other sink gives the same value.
    """
    _require_eulerian(g)
    _recurrent_vectors(g, g.vertices[0])  # the cap; the one way into an enumeration
    return min(_game(g, 0).sums) - g.loop_count


# ---------------------------------------------------------------- game record
@dataclass(frozen=True)
class RecurrentSet:
    """The record of one sink game: its recurrent configurations and every value
    derived from them, each computed on first use and kept.

    A cell of the stable cube prod_t [0, bounds[t] - 1] over ``domain`` (V minus
    the sink, in canonical order) is packed as its mixed-radix index
    sum_t chips[t] * weights[t], the first vertex most significant, so ascending
    index is lexicographic order.  ``members`` holds the recurrent cells' indices
    in that order, ``count`` is the determinant that certifies them.
    ``sums[i]`` is outdeg(sink) + member i's total chips and ``levels[i]`` is
    ``sums[i] - kappa``.  Chip vectors are decoded only where chips are read:
    ``decode``, ``vectors``, ``configs`` and ``to_json_dict``.  ``sink_index``,
    ``domain``, ``bounds``, ``weights`` and ``cells`` are set at construction.
    """

    host: MultiDigraph
    sink: str

    def __post_init__(self):
        sink, vertices = self.host.vertex_index(self.sink), self.host.vertices
        bounds = tuple(out for v, out, _, _ in self.host._firing_table if v != sink)
        for name, value in (
            ("sink_index", sink),
            ("domain", vertices[:sink] + vertices[sink + 1 :]),
            ("bounds", bounds),
            ("weights", tuple(accumulate(bounds[:0:-1], mul, initial=1))[: len(bounds)][::-1]),
            ("cells", math.prod(bounds)),
        ):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.configs)

    def __contains__(self, c: Configuration) -> bool:
        return self.index(c) is not None

    @cached_property
    def _laplacian(self) -> list[list[int]]:
        return reduced_laplacian(self.host, self.sink)

    @cached_property
    def count(self) -> int:
        return bareiss_determinant(self._laplacian)

    @cached_property
    def movers(self) -> tuple:  # certified to stop, after the host checks
        return _movers(self.host, self.sink_index)

    @cached_property
    def burner(self):
        """Speer's burning test, set up once: ``burn`` and the script σ by vertex
        index, 0 on the sink.  ``burn(cell)`` settles a chip vector of V \\ {sink}
        plus b, the sink's slot collecting the chips lost, and returns the firing
        counts by vertex index when the run returns ``cell``, else None."""
        sink, movers = self.sink_index, self.movers
        b, script = _burning_script(self._laplacian)
        b = [(u + (u >= sink), x) for u, x in enumerate(b) if x]  # by vertex index

        def burn(cell: tuple[int, ...]) -> list[int] | None:
            chips = list(cell)
            chips.insert(sink, 0)
            for u, x in b:
                chips[u] += x
            counts = _settle(chips, movers)
            del chips[sink]
            return counts if tuple(chips) == cell else None

        return burn, [*script[:sink], 0, *script[sink:]]

    @cached_property
    def members(self) -> array:
        """Reverse search (Avis and Fukuda, 1996) down from the maximal stable cell.

        A stable cell above a recurrent one is recurrent (Holroyd et al., 2008), so
        recurrent c has the recurrent parent c + e_k, k the first vertex of c below
        its maximum; only children c - e_i, i <= k, of recurrent cells are burned.
        Each cell is reached at most once, with its index and its chips; members
        are marked in a one-byte-per-cell map and read back in index order.
        """
        burn, script = self.burner
        weights, top = self.weights, tuple(out - 1 for out in self.bounds)
        found = bytearray(self.cells)
        stack = [(self.cells - 1, top)]
        while stack:
            i, cell = stack.pop()
            counts = burn(cell)
            if counts is None:
                continue
            if counts != script:
                raise InternalCheckError("burning run did not fire its burning script")
            found[i] = 1
            for t, x in enumerate(cell):
                if x:
                    stack.append((i - weights[t], cell[:t] + (x - 1,) + cell[t + 1 :]))
                if x < top[t]:
                    break
        members = array("q", compress(range(self.cells), found))
        if len(members) != self.count:
            raise InternalCheckError(
                f"enumerated {len(members)} recurrent configurations, "
                f"determinant predicts {self.count}"
            )
        return members

    def decode(self):
        """The members' chip vectors, in order, one at a time: the stable cube
        walked in order and filtered by a one-byte-per-cell member map."""
        marked = bytearray(self.cells)
        for i in self.members:
            marked[i] = 1
        return compress(product(*map(range, self.bounds)), marked)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """Every member decoded, for the suites that read chips; kept once read."""
        return tuple(self.decode())

    @cached_property
    def sums(self) -> array:
        """Read off each member's index with two digit-sum tables, one over the
        high half of the digits and one over the low half, in the narrowest
        unsigned type that holds the top cell's sum."""
        out_s, bounds, cut = self.host.outdeg(self.sink), self.bounds, len(self.bounds) // 2
        top = out_s + sum(bounds) - len(bounds)
        code = "B" if top < 1 << 8 else "H" if top < 1 << 16 else "Q"
        high, low = (
            array(code, map(sum, product(*map(range, side))))
            for side in (bounds[:cut], bounds[cut:])
        )
        base = len(low)
        return array(code, (out_s + high[i // base] + low[i % base] for i in self.members))

    @cached_property
    def kappa(self) -> int:
        return kappa(self.host)

    @cached_property
    def levels(self) -> array:
        if min(self.sums) - self.kappa != self.host.loop_count:
            raise InternalCheckError("lowest level is not the loop count; kappa inconsistent")
        return array(self.sums.typecode, map((-self.kappa).__add__, self.sums))

    @cached_property
    def polynomial(self) -> LaurentPolynomial:
        """T(y): the sum of y^level over the members."""
        return LaurentPolynomial((level, 1) for level in self.levels)

    @cached_property
    def configs(self) -> tuple[Configuration, ...]:
        return tuple(Configuration(self.host, self.sink, vec) for vec in self.decode())

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Index pairs (i, j) with member j = member i + e_t, ordered by j, then i.
        The members form an up-set of the stable cube, so member i + e_t is a
        member whenever digit t of member i is below its top, and these steps
        join any two comparable members."""
        members, steps = self.members, tuple(zip(self.weights, self.bounds))
        pairs = [
            (i, bisect_left(members, cell + w, i + 1))
            for i, (cell, vec) in enumerate(zip(members, self.vectors))
            for x, (w, out) in zip(vec, steps)
            if x < out - 1
        ]
        pairs.sort(key=itemgetter(1))  # stable: each j keeps its i in ascending order
        return tuple(pairs)

    @cached_property
    def minimal_flags(self) -> tuple[bool, ...]:
        """Per member, in order: whether no other member is <= it (no cover ends at it)."""
        covered = {j for _, j in self.covers}
        return tuple(j not in covered for j in range(len(self.members)))

    def index(self, c: Configuration) -> int | None:
        """c's position in ``members``, found by bisection; None for a non-member."""
        if c.sink != self.sink or c.host != self.host or not all(map(lt, c.chips, self.bounds)):
            return None
        members, cell = self.members, sum(map(mul, c.chips, self.weights))
        i = bisect_left(members, cell)
        return i if i < len(members) and members[i] == cell else None

    def to_json_dict(self) -> dict:
        return {
            "sink": self.sink,
            "kappa": self.kappa,
            "configs": [
                {"chips": dict(zip(self.domain, vec)), "sum": s, "level": l}
                for vec, s, l in zip(self.decode(), self.sums, self.levels)
            ],
        }


@lru_cache(maxsize=1024)
def _game(g: MultiDigraph, sink: int) -> RecurrentSet:
    """The record of the sink game (g, sink index): one per game while cached."""
    return RecurrentSet(g, g.vertices[sink])


# the cache lives on _game; expose it where callers and tools look for it
_recurrent_vectors.cache_info, _recurrent_vectors.cache_clear = _game.cache_info, _game.cache_clear


def enumerate_recurrents(g: MultiDigraph, s: str) -> RecurrentSet:
    """The record of the sink game (g, s), the same object on every call while
    cached; the caps on the sink's cube and on kappa's are checked on every call."""
    sink = g.vertex_index(s)
    _require_eulerian(g)
    _recurrent_vectors(g, s)  # the sink cube's cap
    _check_cap(g, 0)  # kappa's
    rs = _game(g, sink)
    rs.levels  # kappa and the level check run once per game, before the record is handed out
    return rs


def level(g: MultiDigraph, s: str, c: Configuration) -> int:
    """Level of a recurrent configuration: its sum statistic minus kappa."""
    _require_eulerian(g)
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
