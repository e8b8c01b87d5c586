"""Integer-lattice machinery for the equivalence relation on configurations.

The lattice is spanned by the firing vectors of the non-sink vertices
(diagonal entry -(outdeg - loops), off-diagonal entries the arc
multiplicities), optionally extended by the sink-firing vector.  Membership is
decided against a column-style Hermite normal form computed with integer
column operations only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import Configuration, _movers, _settle, beta
from .errors import ConfigurationError, GraphError, InternalCheckError
from .graph import MultiDigraph, is_eulerian
from .recurrent import _recurrent_vectors, enumerate_recurrents, recurrent_count, reduced_laplacian


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


def _representative(g: MultiDigraph, s: str):
    """Integer core of ``class_representative``: maps chips on V \\ {s} to the
    recurrent member of their class by adding m chips on every vertex and
    stabilizing, m a multiple of the group order N (N * x lies in the firing
    lattice for every integer x) and at least the largest out-degree."""
    n = abs(recurrent_count(g, s))
    if n == 0:
        raise GraphError("degenerate host: the reduced Laplacian is singular")
    sink = g.vertex_index(s)
    m = n * max((out for v, out, _, _ in g._firing_table if v != sink), default=1)
    movers = _movers(g, sink)

    def represent(cell) -> tuple[int, ...]:
        chips = [x + m for x in cell]
        chips.insert(sink, 0)
        _settle(chips, movers)
        del chips[sink]
        return tuple(chips)

    return represent


def class_representative(g: MultiDigraph, s: str, c: Configuration) -> Configuration:
    """The unique recurrent configuration equivalent to c."""
    if c.sink != s or c.host.vertices != g.vertices:
        raise ConfigurationError("configuration does not belong to this sink game")
    return Configuration(c.host, s, _representative(g, s)(c.chips))


def equivalence_classes(
    g: MultiDigraph, s: str, include_beta: bool = False
) -> list[list[Configuration]]:
    """Partition the recurrent configurations by lattice equivalence.

    Works on every strongly connected host; on Eulerian hosts without the sink
    vector every class is a singleton.
    """
    recurrents = _recurrent_vectors(g, s)
    lattice = firing_lattice(g, s, include_beta)
    classes: list[list[tuple[int, ...]]] = []
    for vec in recurrents:
        for cls in classes:
            if lattice.contains([a - b for a, b in zip(vec, cls[0])]):
                cls.append(vec)
                break
        else:
            classes.append([vec])
    return [[Configuration(g, s, vec) for vec in cls] for cls in classes]


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
