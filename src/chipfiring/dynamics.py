"""The chip-firing engine: configurations, single firings, and stabilization.

Two kinds of configuration exist.  A *sink game* configuration declares a sink
vertex and lives on the domain V \\ {sink}; chips reaching the sink vanish (the
stabilization record counts them).  A *full-domain* configuration (sink None)
assigns chips to every vertex; nothing vanishes, so on a host with a global
sink the chips simply pile up there.  The integer kernel ``_settle`` runs on
``_game_rows``, by domain position, so each game settles in its own coordinates;
sink-swapping runs on it directly, with full-domain configurations as the
tests' reference path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, FiringError, NonTerminationError
from .graph import MultiDigraph, _reach


@dataclass(frozen=True)
class Configuration:
    """Chip assignment over a host graph, on the full vertex set or minus a sink.

    ``chips`` is aligned with the domain: the host's vertices in canonical
    order, skipping the sink when one is declared.  Configurations compare,
    add, and so on only when host, sink, and domain coincide.
    """

    host: MultiDigraph
    sink: str | None
    chips: tuple[int, ...]

    def __post_init__(self):
        vertices = self.host.vertices
        if self.sink is not None:
            i = self.host.vertex_index(self.sink)
            vertices = vertices[:i] + vertices[i + 1:]
        # stored once, like the host's integer form; ``chip`` and ``fire`` find slots in it
        object.__setattr__(self, "domain", vertices)
        if len(self.chips) != len(self.domain):
            raise ConfigurationError(
                f"expected {len(self.domain)} chip counts, got {len(self.chips)}"
            )
        for v, c in zip(self.domain, self.chips):
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                raise ConfigurationError(f"chip count on {v!r} must be a nonnegative integer")

    # ------------------------------------------------------------ constructors
    @classmethod
    def zeros(cls, g: MultiDigraph, sink: str | None = None) -> "Configuration":
        n = g.n_vertices - (0 if sink is None else 1)
        return cls(g, sink, (0,) * n)

    @classmethod
    def of(cls, g: MultiDigraph, chips: dict[str, int], sink: str | None = None) -> "Configuration":
        """Build from a mapping of int counts; omitted vertices default to 0 chips."""
        for v in chips:
            g.vertex_index(v)
            if v == sink:
                raise ConfigurationError(f"vertex {v!r} is the sink and carries no chips")
        domain = g.vertices if sink is None else tuple(v for v in g.vertices if v != sink)
        return cls(g, sink, tuple(chips.get(v, 0) for v in domain))

    # ----------------------------------------------------------------- queries
    def chip(self, v: str) -> int:
        try:
            return self.chips[self.domain.index(v)]
        except ValueError:
            raise ConfigurationError(f"vertex {v!r} is not in the configuration domain") from None

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.domain, self.chips))

    def total(self) -> int:
        return sum(self.chips)

    def leq(self, other: "Configuration") -> bool:
        """Pointwise comparison; requires identical host and domain."""
        _check_same_domain(self, other)
        return all(a <= b for a, b in zip(self.chips, other.chips))

    def __add__(self, other: "Configuration") -> "Configuration":
        return add(self, other)

    def __repr__(self):
        body = ", ".join(f"{v}={c}" for v, c in zip(self.domain, self.chips))
        return f"Configuration(sink={self.sink!r}, {body})"


@dataclass(frozen=True)
class FiringRecord:
    """Per-vertex firing counts of one stabilization, plus the chips it lost to the sink."""

    vertices: tuple[str, ...]
    counts: tuple[int, ...]
    chips_to_sink: int

    def count(self, v: str) -> int:
        try:
            return self.counts[self.vertices.index(v)]
        except ValueError:
            raise ConfigurationError(f"unknown vertex {v!r}") from None

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.vertices, self.counts))


def _check_same_domain(c: Configuration, d: Configuration) -> None:
    if c.host != d.host or c.sink != d.sink:
        raise ConfigurationError("configurations live on different hosts or domains")


def _check_host(g: MultiDigraph, c: Configuration) -> None:
    if g.vertices != c.host.vertices:
        raise ConfigurationError("configuration does not match the given graph's vertex set")


def add(c: Configuration, d: Configuration) -> Configuration:
    """Pointwise sum of two configurations with the same host and domain."""
    _check_same_domain(c, d)
    return Configuration(c.host, c.sink, tuple(a + b for a, b in zip(c.chips, d.chips)))


def beta(g: MultiDigraph, s: str) -> Configuration:
    """The chips one firing of s would distribute: d(s, v) on every v != s."""
    g.vertex_index(s)
    return Configuration(
        g, s, tuple(g.multiplicity(s, v) for v in g.vertices if v != s)
    )


def augment_sink(c: Configuration, extra: int = 0) -> Configuration:
    """Switch a sink-game configuration to the full domain, placing
    outdeg(sink) + extra chips on the sink."""
    if c.sink is None:
        raise ConfigurationError("configuration has no sink to augment")
    if extra < 0:
        raise ConfigurationError("extra chips must be nonnegative")
    chips = list(c.chips)
    chips.insert(c.host.vertex_index(c.sink), c.host.outdeg(c.sink) + extra)
    return Configuration(c.host, None, tuple(chips))


def restrict(c: Configuration, sink: str) -> Configuration:
    """Drop one vertex from a full-domain configuration, declaring it the sink."""
    if c.sink is not None:
        raise ConfigurationError("configuration already has a sink")
    c.host.vertex_index(sink)
    return Configuration(
        c.host, sink, tuple(x for v, x in zip(c.host.vertices, c.chips) if v != sink)
    )


def is_firable(g: MultiDigraph, c: Configuration, v: str) -> bool:
    """Whether v can fire: it holds outdeg(v) chips and has a non-loop out-arc.

    The sink of a sink-game configuration never fires; asking about it is an
    error rather than False.
    """
    _check_host(g, c)
    if v == c.sink:
        raise ConfigurationError(f"{v!r} is the sink and never fires")
    out = g.outdeg(v)
    return c.chip(v) >= out and out - g.loops_at(v) >= 1


def fire(g: MultiDigraph, c: Configuration, v: str) -> Configuration:
    """Fire v once: v loses outdeg(v) - d(v,v) chips, each other vertex u gains
    d(v, u).  Chips sent to a declared sink vanish."""
    if not is_firable(g, c, v):
        raise FiringError(f"vertex {v!r} is not firable")
    _, _, drop, neighbors = g._firing_table[g.vertex_index(v)]
    chips = list(c.chips)
    chips[c.domain.index(v)] -= drop
    for u, m in neighbors:
        if g.vertices[u] != c.sink:
            chips[c.domain.index(g.vertices[u])] += m
    return Configuration(c.host, c.sink, tuple(chips))


def _game_rows(table: tuple, sink: int | None) -> tuple:
    """A firing table on the game's domain, V minus ``sink`` (all of V at None):
    rows and neighbors renumbered by domain position, arcs into the sink left out."""
    if sink is None:
        return table
    return tuple(
        (v - (v > sink), out, drop, tuple((u - (u > sink), m) for u, m in neighbors if u != sink))
        for v, out, drop, neighbors in table
        if v != sink
    )


def _movers(g: MultiDigraph, sink: int | None) -> tuple:
    """``_game_rows`` of the vertices that may fire: not the sink, and holding a
    non-loop out-arc.  Uncached: a sink game's record keeps its own.

    Also certifies that every game on them stops, whatever the chips: each
    mover must reach a vertex that never fires (Björner and Lovász, 1992).
    One backward search from those vertices decides it, in time linear in the
    vertices plus the distinct arcs; a mover it misses raises
    NonTerminationError naming the first (the search starts from every non-mover).
    """
    reached = _reach([v for v, _, drop, _ in g._firing_table if v == sink or not drop], g._predecessors)
    if not all(reached):
        raise NonTerminationError(
            f"vertex {g.vertices[reached.index(False)]!r} can fire but reaches no vertex that never "
            "fires (a sink, or a vertex without a non-loop out-arc), so its game need not stop"
        )
    return tuple(row for row in _game_rows(g._firing_table, sink) if row[2])


def _settle(chips: list[int], movers: tuple) -> list[int]:
    """Fire ``movers`` until none is firable; return per-position firing counts.

    ``chips`` is indexed by domain position and updated in place.  Chips sent
    to the sink vanish, its arcs being out of the rows; chips sent to a vertex
    that is not a mover stay on it.  Sweeps in domain order, firing each vertex
    to exhaustion in one batch.  ``movers`` must come from ``_movers``, whose
    certificate guarantees that the sweeps stop.
    """
    counts = [0] * len(chips)
    progress = True
    while progress:
        progress = False
        for v, out, drop, neighbors in movers:
            x = chips[v]
            if x < out:
                continue
            # batched consecutive firings of v; identical to firing one by one
            k = (x - out) // drop + 1
            chips[v] = x - k * drop
            for u, m in neighbors:
                chips[u] += k * m
            counts[v] += k
            progress = True
    return counts


def stabilize(g: MultiDigraph, c: Configuration) -> tuple[Configuration, FiringRecord]:
    """Fire until no vertex is firable; returns the stable configuration and a record.

    The effective host must converge: every vertex that can fire must reach
    one that never fires, i.e. c's sink or a vertex without a non-loop out-arc
    (on a ``delete_out_arcs`` result, the emptied vertex).  A host that fails
    this is refused with NonTerminationError before any firing, whatever the
    chips, since some configuration on it would fire forever.  The schedule
    sweeps the domain in canonical vertex order, firing each vertex to
    exhaustion; by the abelian property the outcome and the per-vertex firing
    counts are schedule independent.
    """
    _check_host(g, c)
    sink = None if c.sink is None else g.vertex_index(c.sink)
    chips = list(c.chips)
    counts = _settle(chips, _movers(g, sink))
    if sink is not None:
        counts.insert(sink, 0)
    record = FiringRecord(g.vertices, tuple(counts), c.total() - sum(chips))
    return Configuration(c.host, c.sink, tuple(chips)), record


def parse_config_literal(g: MultiDigraph, text: str, sink: str | None = None) -> Configuration:
    """Parse a ``v1=3,v2=0`` chip literal; omitted vertices default to 0."""
    chips: dict[str, int] = {}
    text = text.strip()
    if text:
        for part in text.split(","):
            if "=" not in part:
                raise ConfigurationError(f"bad configuration entry {part!r}, expected name=count")
            name, _, value = part.partition("=")
            name = name.strip()
            try:
                count = int(value.strip())
            except ValueError:
                raise ConfigurationError(f"chip count {value.strip()!r} is not an integer") from None
            if count < 0:
                raise ConfigurationError(f"chip count on {name!r} must be nonnegative")
            if not g.has_vertex(name):
                raise ConfigurationError(f"unknown vertex {name!r} in configuration literal")
            if name in chips:
                raise ConfigurationError(f"vertex {name!r} listed twice")
            chips[name] = count
    return Configuration.of(g, chips, sink)
