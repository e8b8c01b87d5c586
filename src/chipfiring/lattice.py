"""Integer-lattice machinery for the equivalence relation on configurations.

The lattice is spanned by the firing vectors of the non-sink vertices
(diagonal entry -(outdeg - loops), off-diagonal entries the arc
multiplicities), optionally extended by the sink-firing vector.  Membership is
decided against a column-style Hermite normal form computed with integer
column operations only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .dynamics import Configuration, add, beta, scale, stabilize
from .errors import ConfigurationError, GraphError, InternalCheckError, SizeCapError
from .graph import MultiDigraph, is_eulerian
from .recurrent import cell_cap, enumerate_recurrents, recurrent_count, reduced_laplacian

GENERAL_DIGRAPH_MAX_VERTICES = 4
GENERAL_DIGRAPH_MAX_ARCS = 10


def column_hnf(generators: tuple[tuple[int, ...], ...], dimension: int):
    """Column-style Hermite normal form of the lattice spanned by the generators.

    Generators are treated as columns; only integer column operations are used
    and the pivot order is deterministic (top row first, leftmost column
    preferred).  Returns the nonzero columns and their (row, column) pivots.
    """
    cols = [list(gen) for gen in generators]
    if any(len(col) != dimension for col in cols):
        raise ConfigurationError("generator with wrong dimension")
    pivots: list[tuple[int, int]] = []
    front = 0
    for row in range(dimension):
        while True:
            nonzero = [j for j in range(front, len(cols)) if cols[j][row] != 0]
            if len(nonzero) <= 1:
                break
            base = min(nonzero, key=lambda j: (abs(cols[j][row]), j))
            for j in nonzero:
                if j == base:
                    continue
                q = cols[j][row] // cols[base][row]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[base])]
        nonzero = [j for j in range(front, len(cols)) if cols[j][row] != 0]
        if not nonzero:
            continue
        j = nonzero[0]
        cols[front], cols[j] = cols[j], cols[front]
        if cols[front][row] < 0:
            cols[front] = [-a for a in cols[front]]
        for j in range(front):
            q = cols[j][row] // cols[front][row]
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[front])]
        pivots.append((row, front))
        front += 1
    basis = tuple(tuple(col) for col in cols[:front])
    return basis, tuple(pivots)


@dataclass(frozen=True)
class IntegerLattice:
    """Subgroup of Z^dimension spanned by integer generator vectors."""

    dimension: int
    generators: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]

    @classmethod
    def from_generators(cls, generators, dimension: int) -> "IntegerLattice":
        generators = tuple(tuple(int(x) for x in gen) for gen in generators)
        basis, pivots = column_hnf(generators, dimension)
        return cls(dimension, generators, basis, pivots)

    def contains(self, vector) -> bool:
        """Exact membership by back-substitution against the triangular basis."""
        x = [int(v) for v in vector]
        if len(x) != self.dimension:
            raise ConfigurationError(
                f"vector has dimension {len(x)}, lattice has {self.dimension}"
            )
        next_pivot = 0
        for row in range(self.dimension):
            if next_pivot < len(self.pivots) and self.pivots[next_pivot][0] == row:
                col = self.basis[self.pivots[next_pivot][1]]
                quotient, remainder = divmod(x[row], col[row])
                if remainder:
                    return False
                if quotient:
                    x = [a - quotient * b for a, b in zip(x, col)]
                next_pivot += 1
            elif x[row] != 0:
                return False
        return True


def firing_lattice(g: MultiDigraph, s: str, include_beta: bool = False) -> IntegerLattice:
    """Lattice of chip movements reachable by integer combinations of firings.

    Coordinates follow the canonical order of V \\ {s}.  Loops cancel out of a
    firing, so the vectors use the loopless degrees.  With ``include_beta`` the
    sink-firing vector joins the generators; on Eulerian graphs it is already
    in their span.
    """
    generators = [tuple(-x for x in row) for row in reduced_laplacian(g, s)]
    if include_beta:
        generators.append(beta(g, s).chips)
    return IntegerLattice.from_generators(generators, g.n_vertices - 1)


def class_representative(g: MultiDigraph, s: str, c: Configuration) -> Configuration:
    """The unique recurrent configuration equivalent to c.

    Adds m copies of the all-ones configuration with m a multiple of the
    sandpile group order N: N * x lies in the firing lattice for every integer
    vector x, and the addition saturates every vertex, so stabilization lands
    on the recurrent member of c's class.
    """
    n = abs(recurrent_count(g, s))
    if n == 0:
        raise GraphError("degenerate host: the reduced Laplacian is singular")
    max_out = max((g.outdeg(v) for v in c.domain), default=1)
    m = n * max(1, max_out)
    ones = Configuration(c.host, s, (1,) * len(c.domain))
    stable, _ = stabilize(g, add(c, scale(ones, m)))
    return stable


def recurrent_definitional_test(g: MultiDigraph, s: str, c: Configuration) -> bool:
    """Definition-based recurrence test, valid on any strongly connected digraph.

    True iff c equals the recurrent representative of its own equivalence
    class.  Tiny instances only; the burning test is the fast path on Eulerian
    hosts.
    """
    if not g.is_strongly_connected():
        raise GraphError("definitional test requires a strongly connected graph")
    _check_general_caps(g)
    return class_representative(g, s, c).chips == c.chips


def _check_general_caps(g: MultiDigraph) -> None:
    if g.n_vertices > GENERAL_DIGRAPH_MAX_VERTICES or g.n_arcs > GENERAL_DIGRAPH_MAX_ARCS:
        raise SizeCapError(
            "definitional recurrence is supported only up to "
            f"{GENERAL_DIGRAPH_MAX_VERTICES} vertices / {GENERAL_DIGRAPH_MAX_ARCS} arcs"
        )


def _stable_cube(g: MultiDigraph, s: str):
    domain = [v for v in g.vertices if v != s]
    bounds = [g.outdeg(v) for v in domain]
    if math.prod(bounds) > cell_cap():
        raise SizeCapError("stable cube exceeds the enumeration cap")
    for combo in itertools.product(*(range(k) for k in bounds)):
        yield Configuration(g, s, combo)


def _general_recurrents(g: MultiDigraph, s: str) -> list[Configuration]:
    _check_general_caps(g)
    return [
        c for c in _stable_cube(g, s) if class_representative(g, s, c).chips == c.chips
    ]


def equivalence_classes(
    g: MultiDigraph, s: str, include_beta: bool = False
) -> list[list[Configuration]]:
    """Partition the recurrent configurations by lattice equivalence.

    Eulerian hosts enumerate by the burning test (and, without the sink vector,
    every class is a singleton); other strongly connected hosts fall back to
    the definitional test at tiny scale.
    """
    if is_eulerian(g):
        recurrents = list(enumerate_recurrents(g, s).configs)
    else:
        if not g.is_strongly_connected():
            raise GraphError("equivalence classes need a strongly connected graph")
        recurrents = _general_recurrents(g, s)
    lattice = firing_lattice(g, s, include_beta)
    classes: list[list[Configuration]] = []
    for c in recurrents:
        for cls in classes:
            difference = [a - b for a, b in zip(c.chips, cls[0].chips)]
            if lattice.contains(difference):
                cls.append(c)
                break
        else:
            classes.append([c])
    return classes


def conjecture1_check(g: MultiDigraph) -> dict:
    """Per-sink multisets of class maxima of the sum statistic, with a verdict.

    For every sink the recurrent configurations are partitioned by equivalence
    modulo firings and the sink vector; each class contributes its maximal
    outdeg(s) + chip total.  The report states whether the sorted multisets
    coincide across sinks.  On Eulerian inputs they must also reproduce the
    plain sum multisets, which is asserted.
    """
    if not g.is_strongly_connected():
        raise GraphError("the checker requires a strongly connected graph")
    eulerian = is_eulerian(g)
    per_sink: dict[str, list[int]] = {}
    for s in g.vertices:
        classes = equivalence_classes(g, s, include_beta=True)
        maxima = sorted(
            max(g.outdeg(s) + sum(c.chips) for c in cls) for cls in classes
        )
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
