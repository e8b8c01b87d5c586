"""Integer-lattice machinery for the equivalence relation on configurations.

The lattice is spanned by the firing vectors of the non-sink vertices
(diagonal entry -(outdeg - loops), off-diagonal entries the arc
multiplicities), optionally extended by the sink-firing vector.  Integer row
and column operations take the generators to a Smith normal form: the
invariant factors d_1 | d_2 | ... of Z^n / L and a unimodular U, whose rows give
each vector a short coset key, (u_i . x) mod d_i over the factors above 1 and
u_i . x past the rank.  Membership reads a zero key; the class partition groups
the members by their keys, ``conjecture1`` keeps one largest sum per key, and
``max-sum`` finds each stable cell's class member by its key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul

from .dynamics import Configuration, beta
from .errors import ConfigurationError, InternalCheckError
from .graph import MultiDigraph, is_eulerian
from .recurrent import _checked_game, _game, _require_strongly_connected, enumerate_recurrents


def _least_entry(rows: list[list[int]], t: int, width: int) -> tuple[int, int] | None:
    """(i, j) of a nonzero entry of least absolute value in A's trailing block
    rows[t:][t:width], the first in row order, stopping at one of absolute value
    1; None when the block is zero."""
    at, least = None, math.inf
    for i in range(t, len(rows)):
        for j, x in enumerate(rows[i][t:width], t):
            if x and abs(x) < least:
                at, least = (i, j), abs(x)
                if least == 1:
                    return at
    return at


def _smith_form(generators: tuple[tuple[int, ...], ...], dimension: int):
    """Smith normal form of the lattice L spanned by the columns ``generators``.

    Returns the invariant factors d_1 | d_2 | ... | d_r (r the rank, each
    positive) and the rows of a unimodular U such that U L is spanned by the
    d_i e_i.  It reduces the rows of [A | I], A the generator matrix: row
    operations act on both parts, so the right part ends as U; column
    operations, on A only, just change the spanning set of L.  Dependent, zero
    and surplus columns are allowed: the reduction stops once A's trailing
    block is zero.
    """
    width = len(generators)
    rows = [[col[i] for col in generators] + [0] * dimension for i in range(dimension)]
    for i, row in enumerate(rows):
        row[width + i] = 1
    factors, t = [], 0
    # the least nonzero entry of A's trailing block moves to (t, t)
    while at := _least_entry(rows, t, width):
        i, j = at
        rows[t], rows[i] = rows[i], rows[t]
        for row in rows[t:]:
            row[t], row[j] = row[j], row[t]
        pivot, clear = rows[t][t], True
        for i in range(t + 1, dimension):
            q = rows[i][t] // pivot
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[t])]
            clear = clear and not rows[i][t]
        for j in range(t + 1, width):
            q = rows[t][j] // pivot
            if q:
                for row in rows[t:]:
                    row[j] -= q * row[t]
            clear = clear and not rows[t][j]
        if not clear:
            continue
        # d_t must divide the rest of A: a row that it does not is added to row t
        i = next(
            (i for i in range(t + 1, dimension) if any(x % pivot for x in rows[i][t + 1 : width])),
            None,
        )
        if i is not None:
            rows[t] = list(map(add, rows[t], rows[i]))
            continue
        if pivot < 0:
            rows[t] = [-x for x in rows[t]]
        factors.append(abs(pivot))
        t += 1
    return tuple(factors), tuple(tuple(row[width:]) for row in rows)


@dataclass(frozen=True)
class IntegerLattice:
    """Subgroup of Z^dimension spanned by integer generator vectors.  Its Smith
    form and the coset key read from it are built on first use and kept."""

    dimension: int
    generators: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(cls, generators, dimension: int) -> "IntegerLattice":
        generators = tuple(tuple(int(x) for x in gen) for gen in generators)
        if any(len(gen) != dimension for gen in generators):
            raise ConfigurationError("generator with wrong dimension")
        return cls(dimension, generators)

    def contains(self, vector) -> bool:
        """Exact membership: a vector lies in L exactly when its coset key is zero."""
        x = [int(v) for v in vector]
        if len(x) != self.dimension:
            raise ConfigurationError(f"vector has dimension {len(x)}, lattice has {self.dimension}")
        return not any(self._coset_key(x))

    @cached_property
    def _smith(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The invariant factors and the rows of U, from ``_smith_form``."""
        return _smith_form(self.generators, self.dimension)

    @cached_property
    def _coset_key(self):
        """key(x) == key(y) exactly when x - y lies in L: with U L spanned by the
        d_i e_i, the tuple of (u_i . x) mod d_i over the factors above 1, then
        u_i . x for the rows past the rank.  Rows are reduced mod d_i first."""
        factors, rows = self._smith
        cyclic = [(tuple(x % d for x in row), d) for row, d in zip(rows, factors) if d > 1]
        free = rows[len(factors) :]

        def key(vector) -> tuple[int, ...]:
            return tuple(
                [sum(map(mul, row, vector)) % d for row, d in cyclic]
                + [sum(map(mul, row, vector)) for row in free]
            )

        return key


def firing_lattice(g: MultiDigraph, s: str, include_beta: bool = False) -> IntegerLattice:
    """Lattice of chip movements reachable by integer combinations of firings.

    Coordinates follow the canonical order of V \\ {s}.  Loops cancel out of a
    firing, so the vectors use the loopless degrees.  With ``include_beta`` the
    sink-firing vector joins the generators; on Eulerian graphs it is already
    in their span.
    """
    generators = [tuple(-x for x in row) for row in _game(g, g.vertex_index(s))._laplacian]
    if include_beta:
        generators.append(beta(g, s).chips)
    return IntegerLattice.from_generators(generators, g.n_vertices - 1)


def _keyed_game(g: MultiDigraph, s: str, include_beta: bool = False):
    """The record of the sink game (g, s) and its firing lattice's coset key.

    The invariant factors multiply to the lattice's index in Z^(n-1).  Without
    the sink vector that is |det Δ|, the game's ``count``, and so it is with it
    on an Eulerian host, whose sink vector lies in the span; anything else is
    an internal bug.
    """
    rs = _checked_game(g, s)
    lat = firing_lattice(g, s, include_beta)
    factors, _ = lat._smith
    if not include_beta or is_eulerian(g):
        index = math.prod(factors) if len(factors) == lat.dimension else 0
        if index != abs(rs.count):
            raise InternalCheckError(
                f"invariant factors {list(factors)} give index {index}, "
                f"determinant predicts {abs(rs.count)}"
            )
    return rs, lat._coset_key


def equivalence_classes(
    g: MultiDigraph, s: str, include_beta: bool = False
) -> list[list[Configuration]]:
    """Partition the recurrent configurations by lattice equivalence.

    One pass keyed on the lattice's Smith-form coset key, linear in |Rec|.  Classes
    come in order of their first member and members in lexicographic order.
    Works on every strongly connected host; on Eulerian hosts without the sink
    vector every class is a singleton.
    """
    rs, key = _keyed_game(g, s, include_beta)
    classes: dict[tuple[int, ...], list[Configuration]] = {}
    for vec in rs.decode():
        classes.setdefault(key(vec), []).append(Configuration(g, s, vec))
    return list(classes.values())


def conjecture1_check(g: MultiDigraph) -> dict:
    """Per-sink multisets of class maxima of the sum statistic, with a verdict.

    For every sink the recurrent configurations are partitioned by equivalence
    modulo firings and the sink vector; each class contributes its maximal
    outdeg(s) + chip total.  The report states whether the sorted multisets
    coincide across sinks.  On Eulerian inputs they must also reproduce the
    plain sum multisets, which is asserted.
    """
    _require_strongly_connected(g)
    eulerian = is_eulerian(g)
    per_sink: dict[str, list[int]] = {}
    for s in g.vertices:
        rs, key = _keyed_game(g, s, include_beta=True)
        best: dict[tuple[int, ...], int] = {}  # coset key -> its class's largest sum
        for vec, total in zip(rs.decode(), rs.sums):
            k = key(vec)
            best[k] = max(best.get(k, total), total)
        maxima = sorted(best.values())
        per_sink[s] = maxima
        if eulerian:
            expected = sorted(enumerate_recurrents(g, s).sums)
            if maxima != expected:
                raise InternalCheckError(
                    f"Eulerian input must reduce to the sum multiset for sink {s!r}: "
                    f"{maxima} != {expected}"
                )
    reference = per_sink[g.vertices[0]]
    consistent = all(seq == reference for seq in per_sink.values())
    return {"eulerian": eulerian, "consistent": consistent, "sinks": per_sink}
