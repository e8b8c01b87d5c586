"""Recurrence testing, enumeration of recurrent configurations, and their statistics.

Burning test (Speer, 1993): stable c is recurrent iff stabilizing c + b returns
c, where b = Δᵀσ, Δ is the reduced Laplacian and σ >= 1 the least script with
b >= 0; that run fires exactly σ.  On Eulerian hosts σ = 1 and b is one sink
firing (Dhar).  Enumeration walks down the recurrent up-set of the stable cube
prod_v [0, outdeg(v)-1] by reverse search on the integer firing kernel of
``dynamics``, on any strongly connected host, into one member map, the only
copy of the members, and cross-checks their count against det Δ.  A game of at
least KERNEL_MIN_MEMBERS members runs the whole search as one function compiled
for it, with the same sweep unrolled over its firing table and flat stack
entries; smaller games, ``is_recurrent`` and the burning-uniqueness suite burn
with the generic ``_settle``; every path reads b and σ off ``burner``.  ``kappa``
and the levels, streamed off the sums less ``kappa``, need an Eulerian host,
where the record's ``sum_polynomial``, read by ``kappa`` and ``tutte.tutte_gen``,
needs no enumeration: a recursion over the burnt sets of Dhar's burning counts
the members by sum, and falls back to the enumerated sums past
RECURSION_TERMS_PER_MEMBER terms per member.  The values of one sink game live
in its record, ``RecurrentSet``, cached once per game, except what one suite
alone reads, which that suite builds; ``_checked_game`` hands it out, refusing a
stable cube above ``CELL_CAP`` cells, a bound the recursion keeps too.
"""

from __future__ import annotations

import math
from array import array
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, filterfalse, product
from operator import add, mul

from .dynamics import Configuration, _game_rows, _movers, _settle
from .errors import ConfigurationError, GraphError, InternalCheckError, SizeCapError
from .graph import MAX_GAME_VERTICES, MultiDigraph, is_eulerian, tally
from .polynomial import LaurentPolynomial

DEFAULT_CELL_CAP = 20_000_000

# the enumeration cap in stable-cube cells; ``cfg`` sets it once per run
CELL_CAP: ContextVar[int] = ContextVar("CELL_CAP", default=DEFAULT_CELL_CAP)


def _checked_game(g: MultiDigraph, s: str) -> RecurrentSet:
    """The record of the sink game (g, s) on a strongly connected host, its
    stable cube prod_{v != s} outdeg(v) refused above CELL_CAP before any cached
    value is used: the size is the record's, the cap is read on every call."""
    _require_strongly_connected(g)
    rs = _game(g, g.vertex_index(s))
    _check_cells(rs.cells)
    return rs


def _check_game_vertices(n_vertices: int) -> None:
    """Refuse a sink game above MAX_GAME_VERTICES non-sink vertices."""
    if n_vertices - 1 > MAX_GAME_VERTICES:
        raise SizeCapError(
            f"sink game has {n_vertices - 1} non-sink vertices, "
            f"above the bound of {MAX_GAME_VERTICES}"
        )


def _check_cells(cells: int) -> None:
    """Refuse a stable cube above CELL_CAP cells, the cap read on this call."""
    cap = CELL_CAP.get()
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
    return _reduced_laplacian(g._firing_table, g.vertex_index(s))


def _reduced_laplacian(table: tuple, sink: int) -> list[list[int]]:
    """``reduced_laplacian`` of a firing table at the sink index ``sink``."""
    rows = []
    for v, _, drop, neighbors in _game_rows(table, sink):
        row = [0] * (len(table) - 1)
        row[v] = drop
        for u, m in neighbors:
            row[u] = -m
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
    if any(c.chips[v] >= out for v, out, _, _ in rs.movers):
        raise ConfigurationError("burning test requires a stable configuration")
    burn, _, script = rs.burner
    counts = burn(c.chips)
    if counts is None:
        return False
    if counts != script:
        raise InternalCheckError(
            f"burning run of a recurrent configuration fired {dict(zip(rs.domain, counts))}, "
            f"expected its burning script {dict(zip(rs.domain, script))}"
        )
    return True


def _recurrent_vectors(g: MultiDigraph, s: str) -> RecurrentSet:
    """The record of the sink game (g, s) once its member map is written."""
    rs = _checked_game(g, s)
    rs.found
    return rs


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


# games with at least this many members run a reverse search compiled for the game:
# building one costs 0.4-1.1 ms, which its faster search repays from 190-230 members on
KERNEL_MIN_MEMBERS = 192


def _burn_lines(movers: tuple, b, script) -> list[str]:
    """``_settle``'s sweep on cell + b, unrolled over one game's rows: domain
    position ``v`` starts from the cell's chips in ``cv``, adds b's and ends with
    the run's chips in ``cv`` and its firings in ``nv``.  One block per mover, one
    line per arc in its row, indented from column 0.  A mover whose script entry
    σ_v is 1 fires once per block: σ stabilizes every cell + b, so by the least
    action principle (Fey, Levine and Peres, 2010) no run fires v twice, and its
    block is written without the batch count ``k``.  Only integer literals and
    fixed names enter it."""
    lines = [f"c{u} += {x}" for u, x in enumerate(b) if x]
    lines.append("".join(f"n{v} = " for v in range(len(b))) + "0")
    lines += ["more = True", "while more:", "    more = False"]
    for v, out, drop, neighbors in movers:
        lines.append(f"    if c{v} >= {out}:")
        if script[v] == 1:
            lines += [f"        c{v} -= {drop}", f"        n{v} += 1", "        more = True"]
            lines += [f"        c{u} += {m}" for u, m in neighbors]
            continue
        # k = (c - out) // drop + 1 = (c - loops) // drop, and c - k * drop = c % drop without loops
        loops = out > drop
        lines += [
            f"        k = {f'(c{v} - {out - drop})' if loops else f'c{v}'} // {drop}",
            f"        c{v} {'-= k *' if loops else '%='} {drop}",
            f"        n{v} += k",
            "        more = True",
            *(f"        c{u} += k" + f" * {m}" * (m > 1) for u, m in neighbors),
        ]
    return lines


def _search_source(movers: tuple, b, script, weights, top) -> str:
    """``found``'s reverse search for one game as one function, ``search(found)``,
    which writes the member map and returns the member count.  Stack entries are
    flat tuples (index, mark, c0, ..., c{n-1}); each popped cell burns with
    ``_burn_lines``' block, a run that fires other than ``script`` raises, and
    each child is pushed with its weight and top as literals.  Only integer
    literals and fixed names enter it."""
    cells = [f"c{t}" for t in range(len(b))]

    def entry(*fields):
        return "(" + "".join(f"{field}, " for field in fields) + ")"

    lines = [
        "def search(found):",
        "    members = 0",
        f"    stack = [{entry(sum(map(mul, top, weights)), 1 + sum(top), *top)}]",
        "    pop, push = stack.pop, stack.append",
        "    while stack:",
        "        cell = pop()",
        f"        {entry('i', 'mark', *cells)} = cell",
        *(f"        {line}" for line in _burn_lines(movers, b, script)),
        f"        if {entry('i', 'mark', *cells)} != cell:",
        "            continue",
        f"        if {entry(*(f'n{t}' for t in range(len(b))))} != {entry(*script)}:",
        '            raise InternalCheckError("burning run did not fire its burning script")',
        "        found[i] = mark",
        "        members += 1",
    ]
    for t, (c, w, most) in enumerate(zip(cells, weights, top)):
        child = entry(f"i - {w}", "mark - 1", *cells[:t], f"{c} - 1", *cells[t + 1 :])
        lines += [f"        if {c}:", f"            push({child})"]
        lines += [f"        if {c} < {most}:", "            continue"]
    return "\n".join([*lines, "    return members\n"])


# the burnt-set recursion stops past this many terms per member and the record
# enumerates instead: a term costs about a sixth of an enumerated member (0.4 against
# 2.4 us on K_{2,12}, which needs 30 per member); benchmark games need at most 5.01
RECURSION_TERMS_PER_MEMBER = 6


class _Exhausted(Exception):
    """The burnt-set recursion went past its term budget."""


def _geometric(d: int, width: int) -> int:
    """[d]_q = 1 + q + ... + q^(d-1), packed ``width`` bits per coefficient."""
    return ((1 << width * d) - 1) // ((1 << width) - 1)


def _burnt_set_recursion(table: tuple, sink: int, width: int, budget: int) -> int:
    """Σ q^|f| over the f >= 0 on V \\ {sink} that Dhar's burning burns out, packed
    ``width`` bits per coefficient; raises _Exhausted past ``budget`` terms.

    Vertex v burns once f(v) < d(B, v), the non-loop arcs into v from the burnt set
    B, which starts as {sink}.  g(V) = 1, and for a burnt set B, inclusion and
    exclusion over the nonempty sets D of vertices that burn at once from B gives
    g(B) = Σ_D (-1)^(|D|+1) Π_{v∈D} [d(B, v)]_q g(B ∪ D), v ranging over the
    unburnt vertices with d(B, v) > 0.  A vertex whose in-arcs all come from B
    burns whatever its f, so its factor comes out first.  Burnt sets are bitmasks
    of vertex indices, and each g(B) is computed once.  d(B, v) is the sum of
    m |B ∩ N_m(v)| over the sets N_m(v) of in-neighbours joined to v by m arcs,
    one popcount each, and most vertices have a single m.
    """
    groups: list[dict[int, int]] = [{} for _ in table]
    for u, _, _, neighbors in table:
        for v, m in neighbors:
            groups[v][m] = groups[v].get(m, 0) | 1 << u
    into = [tuple(by_m.items()) for by_m in groups]
    indeg = [sum(m * mask.bit_count() for m, mask in arcs) for arcs in into]
    everything = (1 << len(table)) - 1
    memo, terms = {everything: 1}, 0

    def fill(burnt: int) -> None:
        """memo[burnt] = g(burnt)."""
        nonlocal terms
        start, factor, d = burnt, 1, {}
        for v, arcs in enumerate(into):
            if not burnt >> v & 1:
                if len(arcs) == 1:
                    ((m, mask),) = arcs
                    d[v] = m * (burnt & mask).bit_count()
                else:
                    d[v] = sum(m * (burnt & mask).bit_count() for m, mask in arcs)
        full = [v for v, x in d.items() if x == indeg[v]]
        while full:
            for v in full:
                factor *= _geometric(d.pop(v), width)
                burnt |= 1 << v
            for v, _, _, neighbors in map(table.__getitem__, full):
                for u, m in neighbors:
                    if u in d:
                        d[u] += m
            full = [v for v, x in d.items() if x == indeg[v]]
        if burnt not in memo:
            weights, masks = [1], [burnt]  # per subset D: Π -[d(B, v)]_q, and B ∪ D
            for v, x in d.items():
                if x:
                    w, bit = -_geometric(x, width), 1 << v
                    weights += [y * w for y in weights]
                    masks += [mask | bit for mask in masks]
            terms += len(masks) - 1
            if terms > budget:
                raise _Exhausted
            del weights[0], masks[0]
            for mask in filterfalse(memo.__contains__, masks):
                fill(mask)
            memo[burnt] = -sum(map(mul, weights, map(memo.__getitem__, masks)))
        memo[start] = factor * memo[burnt]

    fill(1 << sink)
    return memo[1 << sink]


def _sum_polynomial(table: tuple, sink: int, count: int, enumerated) -> LaurentPolynomial:
    """Σ y^sum over the recurrents of the Eulerian game (table, sink), whose
    reduced Laplacian has determinant ``count``: unpacked from
    ``_burnt_set_recursion``, its value at 1 checked against ``count``; past
    RECURSION_TERMS_PER_MEMBER terms per member, counted off ``enumerated()``,
    the game's enumerated sums, instead."""
    width, budget = count.bit_length(), RECURSION_TERMS_PER_MEMBER * count
    try:
        packed = _burnt_set_recursion(table, sink, width, budget)
    except _Exhausted:
        return LaurentPolynomial(tally(enumerated()))
    counts, digit = [], (1 << width) - 1
    while packed > 0:
        counts.append(packed & digit)
        packed >>= width
    if sum(counts) != count:
        raise InternalCheckError(
            f"burnt-set recursion counts {sum(counts)} recurrent configurations, "
            f"determinant predicts {count}"
        )
    top = sum(out for _, out, _, _ in table) - len(table) + 1
    return LaurentPolynomial((top - k, x) for k, x in enumerate(counts))


def kappa(g: MultiDigraph) -> int:
    """Minimum of outdeg(s) + total chips over recurrents of the loopless host.

    Read as the least sum kept on g's own game record with the canonical first
    vertex as sink, whose cap is checked on every call.  Adding d(v, v) chips at
    every non-sink vertex maps the loopless host's recurrents onto g's and raises
    every sum by the loop count.  By sink independence of the sum multiset any
    other sink gives the same value.
    """
    _require_eulerian(g)
    return _checked_game(g, g.vertices[0])._least_sum - g.loop_count


# ---------------------------------------------------------------- game record
class cached_property:
    """``functools.cached_property`` as Python 3.12 has it, without the lock that
    earlier versions take on every first read: the first read of the attribute
    on an instance computes the value and stores it in the instance's
    ``__dict__`` under the attribute's name, where later reads find it first.
    Read from the class, it is the descriptor itself."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class RecurrentSet:
    """The record of one sink game: its recurrent configurations and the values
    derived from them, each computed on first use and kept.

    A cell of the stable cube prod_t [0, bounds[t] - 1] over ``domain`` (V minus
    the sink, in canonical order) is packed as its mixed-radix index
    sum_t chips[t] * weights[t], the first vertex most significant, so ascending
    index is lexicographic order.  ``found``, the member map the search writes,
    holds 1 + the chip total at each recurrent cell and 0 elsewhere, the record's
    one copy of its members; ``count``, the determinant that certifies them, is
    the record's length.  ``sums[i]`` is outdeg(sink) + member i's total chips;
    ``kappa``, checked once against the least sum, enumerates the game, and
    ``levels()`` streams ``sums[i] - kappa`` without a kept copy.
    ``sum_polynomial`` counts the members by sum without the member map.  Chip
    vectors are decoded only where chips are read, by streaming ``decode``.
    ``sink_outdeg``, ``domain``, ``bounds``, ``weights`` and ``cells`` are set at
    construction, which refuses a game above MAX_GAME_VERTICES non-sink vertices.
    """

    host: MultiDigraph
    sink: str

    def __post_init__(self):
        _check_game_vertices(self.host.n_vertices)
        sink, vertices = self.host.vertex_index(self.sink), self.host.vertices
        bounds = tuple(out for v, out, _, _ in self.host._firing_table if v != sink)
        for name, value in (
            ("sink_outdeg", self.host._firing_table[sink][1]),
            ("domain", vertices[:sink] + vertices[sink + 1 :]),
            ("bounds", bounds),
            ("weights", tuple(accumulate(bounds[:0:-1], mul, initial=1))[: len(bounds)][::-1]),
            ("cells", math.prod(bounds)),
        ):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.count

    @cached_property
    def _laplacian(self) -> list[list[int]]:
        return reduced_laplacian(self.host, self.sink)

    @cached_property
    def count(self) -> int:
        return bareiss_determinant(self._laplacian)

    @cached_property
    def movers(self) -> tuple:  # certified to stop, after the host checks
        return _movers(self.host, self.host.vertex_index(self.sink))

    @cached_property
    def burner(self):
        """Speer's burning test, set up once: ``(burn, b, σ)``, b and the script σ by
        domain position.  ``burn(cell)`` settles a chip vector of V \\ {sink} plus b
        with the generic kernel ``_settle`` and returns the firing counts by domain
        position when the run returns ``cell``, else None.  ``is_recurrent`` and
        the burning-uniqueness suite use it, and so does ``found`` below
        KERNEL_MIN_MEMBERS members; above, the compiled search burns with the same
        sweep unrolled from b and σ, and this generic kernel stays the reference."""
        movers, (b, script) = self.movers, _burning_script(self._laplacian)

        def burn(cell: tuple[int, ...]) -> list[int] | None:
            chips = list(map(add, cell, b))
            counts = _settle(chips, movers)
            return counts if tuple(chips) == cell else None

        return burn, b, list(script)

    @cached_property
    def found(self) -> array:
        """The member map: per cell, 1 + its chip total on a member, else 0, in the
        narrowest unsigned type that holds the top cell's sum.

        Reverse search (Avis and Fukuda, 1996) down from the maximal stable cell.
        A stable cell above a recurrent one is recurrent (Holroyd et al., 2008), so
        recurrent c has the recurrent parent c + e_k, k the first vertex of c below
        its maximum; only children c - e_i, i <= k, of recurrent cells are burned.
        Each cell is reached at most once, with its index, its chips and its mark,
        one less than its parent's.  Below KERNEL_MIN_MEMBERS members the loop
        here burns with ``burner``; from there on the whole search runs as one
        function compiled from ``_search_source`` for this game, which burns the
        same cells in the same order.  Either way every run of a member must fire
        exactly σ, and the members must number ``count``.
        """
        weights, top = self.weights, tuple(out - 1 for out in self.bounds)
        total = self.sink_outdeg + sum(top)
        code = "B" if total < 1 << 8 else "H" if total < 1 << 16 else "Q"
        found = array(code, [0]) * self.cells
        if self.count >= KERNEL_MIN_MEMBERS:
            namespace = {"InternalCheckError": InternalCheckError}
            exec(_search_source(self.movers, *self.burner[1:], weights, top), namespace)
            members = namespace["search"](found)
        else:
            (burn, _, script), members = self.burner, 0
            stack = [(self.cells - 1, top, 1 + sum(top))]
            while stack:
                i, cell, mark = stack.pop()
                counts = burn(cell)
                if counts is None:
                    continue
                if counts != script:
                    raise InternalCheckError("burning run did not fire its burning script")
                found[i], members = mark, members + 1
                for t, x in enumerate(cell):
                    if x:
                        child = cell[:t] + (x - 1,) + cell[t + 1 :]
                        stack.append((i - weights[t], child, mark - 1))
                    if x < top[t]:
                        break
        if members != self.count:
            raise InternalCheckError(
                f"enumerated {members} recurrent configurations, "
                f"determinant predicts {self.count}"
            )
        return found

    @cached_property
    def sum_polynomial(self) -> LaurentPolynomial:
        """Σ y^sum over the members, on an Eulerian host, without enumeration.

        c is recurrent iff f = outdeg - 1 - c burns out under Dhar's rule, f being
        a G-parking function (Postnikov and Shapiro, 2004), so the sums are
        outdeg(sink) + Σ_v (outdeg(v) - 1) - |f| over ``_burnt_set_recursion``'s
        f.  Its coefficients are at most ``count``, which sets the packed width,
        and its value at 1 must be ``count``.  Past RECURSION_TERMS_PER_MEMBER
        terms per member it gives up, and the enumerated sums are read instead:
        ``_sum_polynomial``, which the recursions suite runs on rewritten tables.
        """
        _require_eulerian(self.host)
        table, sink = self.host._firing_table, self.host.vertex_index(self.sink)
        return _sum_polynomial(table, sink, self.count, lambda: self.sums)

    def decode(self):
        """The members' chip vectors, in order, one at a time: the stable cube
        walked in order and filtered by the member map.  No decoded member is
        kept; a suite that needs them at random holds them itself."""
        return compress(product(*map(range, self.bounds)), self.found)

    @cached_property
    def sums(self) -> array:
        found, shift = self.found, self.sink_outdeg - 1
        return array(found.typecode, map(shift.__add__, filter(None, found)))

    @cached_property
    def _least_sum(self) -> int:
        """The least member sum: read off the enumerated sums once the game has
        enumerated, else off its burnt-set recursion; kept for ``kappa``."""
        return min(self.sums) if "found" in vars(self) else self.sum_polynomial.terms[0][0]

    @cached_property
    def kappa(self) -> int:
        value = kappa(self.host)
        if min(self.sums) - value != self.host.loop_count:
            raise InternalCheckError("lowest level is not the loop count; kappa inconsistent")
        return value

    def levels(self):
        """The members' levels, ``sums[i] - kappa``, in order, one at a time."""
        return map((-self.kappa).__add__, self.sums)


@lru_cache(maxsize=1024)
def _game(g: MultiDigraph, sink: int) -> RecurrentSet:
    """The record of the sink game (g, sink index): one per game while cached."""
    return RecurrentSet(g, g.vertices[sink])


# the cache lives on _game; expose it where callers and tools look for it
_recurrent_vectors.cache_info, _recurrent_vectors.cache_clear = _game.cache_info, _game.cache_clear


def _eulerian_game(g: MultiDigraph, s: str) -> RecurrentSet:
    """The record of the sink game (g, s) for a value that needs kappa, after its
    checks, all made before any work: s is a vertex, the host is Eulerian, and
    both caps hold, on the sink's cube and on kappa's, the first vertex's."""
    g.vertex_index(s)
    _require_eulerian(g)
    rs = _checked_game(g, s)
    _checked_game(g, g.vertices[0])
    return rs


def enumerate_recurrents(g: MultiDigraph, s: str) -> RecurrentSet:
    """The record of the sink game (g, s), the same object on every call while
    cached; the caps on the sink's cube and on kappa's are checked on every call."""
    rs = _eulerian_game(g, s)
    _recurrent_vectors(g, s)
    rs.kappa  # kappa and the level check run once per game, before the record is handed out
    return rs


def level(g: MultiDigraph, s: str, c: Configuration) -> int:
    """Level of a recurrent configuration: its sum statistic minus kappa."""
    _require_eulerian(g)
    if not is_recurrent(g, s, c):
        raise ConfigurationError("level is defined for recurrent configurations only")
    return g.outdeg(s) + c.total() - kappa(g)
