"""Sum-preserving transport of recurrent configurations between two sinks.

Starting from a recurrent configuration for sink s1, put outdeg(s1) + i chips
on s1 and stabilize against sink s2.  The swap number is the least i for which
s2 ends up holding exactly outdeg(s2) + i chips; at that i the restriction to
V \\ {s2} is recurrent for s2 and has the same sum statistic as the input;
the ``theta`` suite checks that this map is a bijection.  The sink-independence
check compares the enumerated sum multisets across all sinks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import Configuration, _settle
from .errors import ConfigurationError, InternalCheckError, PropertyViolationError
from .graph import MultiDigraph
from .recurrent import _game, _require_eulerian, enumerate_recurrents, is_recurrent


@dataclass(frozen=True)
class SwapResult:
    """One application of the sink-swapping map."""

    source_sink: str
    target_sink: str
    input: Configuration
    swap_number: int
    image: Configuration

    def to_json_dict(self) -> dict:
        return {
            "source_sink": self.source_sink,
            "target_sink": self.target_sink,
            "input": self.input.as_dict(),
            "swap_number": self.swap_number,
            "image": self.image.as_dict(),
        }


def _swapper(g: MultiDigraph, s1: int, s2: int):
    """Integer core of the swap map from sink index ``s1`` to ``s2``, set up once
    per pair.

    ``swap(chips)`` takes a recurrent chip vector of the sink game with sink s1
    and finds the least i with stabilized chip count outdeg(s2) + i on s2; it
    returns i and the image on V \\ {s2}.  It settles in s2's game, from c with
    outdeg(s1) chips on s1; s2 keeps its chips of c, and the chips fired into it
    add up in a slot after the domain, a position that never fires, so the test
    for outdeg(s2) + i reads one entry, not the whole state.  Each increment adds
    one chip to s1 and settles the previous state, which equals stabilizing the
    freshly augmented configuration.  The search is certified to stop before
    the sandpile group order.
    """
    rs, source_base = _game(g, s2), g._firing_table[s1][1]
    limit, sink_base = rs.count, rs.sink_outdeg
    source = s1 - (s1 > s2)  # s1's position in s2's domain
    slot = len(rs.domain)  # s2's position, after the domain
    rows = []  # s2's game with its arcs into s2 kept, to the slot
    for v, out, drop, neighbors in rs.movers:
        into_s2 = drop - sum(m for _, m in neighbors)
        rows.append((v, out, drop, neighbors + ((slot, into_s2),) if into_s2 else neighbors))

    def swap(chips: tuple[int, ...]) -> tuple[int, list[int]]:
        state = list(chips)
        state.insert(s1, source_base)
        state.append(state.pop(s2))
        _settle(state, rows)
        i = 0
        while state[slot] != sink_base + i:
            i += 1
            if i >= limit:
                raise InternalCheckError(
                    f"no swap number below the group order {limit}; this cannot happen"
                )
            state[source] += 1
            _settle(state, rows)
        del state[slot]
        return i, state

    return swap


def _swap_sinks(g: MultiDigraph, s1: str, s2: str, c: Configuration) -> tuple[int, int]:
    """Check the swap map's preconditions; return the vertex indices of s1 and s2."""
    if s1 == s2:
        raise ConfigurationError("source and target sink must differ")
    _require_eulerian(g)
    if not is_recurrent(g, s1, c):
        raise ConfigurationError(f"input configuration is not recurrent for sink {s1!r}")
    return g.vertex_index(s1), g.vertex_index(s2)


def swap_number(g: MultiDigraph, s1: str, s2: str, c: Configuration) -> int:
    """Least i such that augmenting by i and stabilizing toward s2 leaves
    outdeg(s2) + i chips on s2."""
    i, _ = _swapper(g, *_swap_sinks(g, s1, s2, c))(c.chips)
    return i


def theta(g: MultiDigraph, s1: str, s2: str, c: Configuration) -> SwapResult:
    """Transport c from sink s1 to sink s2, preserving the sum statistic."""
    i, state = _swapper(g, *_swap_sinks(g, s1, s2, c))(c.chips)
    image = Configuration(c.host, s2, tuple(state))
    if not is_recurrent(g, s2, image):
        raise InternalCheckError("swap image is not recurrent; this cannot happen")
    if g.outdeg(s1) + c.total() != g.outdeg(s2) + image.total():
        raise InternalCheckError("swap image does not preserve the sum statistic")
    return SwapResult(s1, s2, c, i, image)


def check_sink_independence(g: MultiDigraph) -> tuple[int, ...]:
    """Assert that the sorted sum multiset agrees across every choice of sink;
    return the common sum multiset.  Every sink's levels are its sums minus the
    host's one ``kappa``, so the level multisets agree whenever the sums do."""
    sums = {s: tuple(sorted(enumerate_recurrents(g, s).sums)) for s in g.vertices}
    reference = g.vertices[0]
    for s in g.vertices[1:]:
        if sums[s] != sums[reference]:
            raise PropertyViolationError(
                f"sum multisets differ between sinks {reference!r} and {s!r}",
                details={reference: sums[reference], s: sums[s]},
            )
    return sums[reference]
