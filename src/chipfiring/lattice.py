"""Integer-lattice machinery for the equivalence relation on configurations.

The lattice is spanned by the firing vectors of the non-sink vertices
(diagonal entry -(outdeg - loops), off-diagonal entries the arc
multiplicities), optionally extended by the sink-firing vector.  A
column-style Hermite normal form, computed with integer column operations
only, gives every vector a canonical residue modulo the lattice; membership
reads it.  Row operations continue that basis into a Smith normal form: the
invariant factors d_1 | d_2 | ... of Z^n / L and a unimodular U, whose rows give
each vector a short coset key, (u_i . x) mod d_i over the factors above 1 and
u_i . x past the rank.  The class partition groups the members by that key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul

from .dynamics import Configuration, _settle, beta
from .errors import ConfigurationError, GraphError, InternalCheckError
from .graph import MultiDigraph, is_eulerian
from .recurrent import _checked_game, _game, _require_strongly_connected, enumerate_recurrents


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


def _smith_form(basis: tuple[tuple[int, ...], ...], dimension: int):
    """Smith normal form of the lattice L with the independent columns ``basis``.

    Returns the invariant factors d_1 | d_2 | ... | d_r (r the rank, each
    positive) and the rows of a unimodular U such that U L is spanned by the
    d_i e_i.  It reduces the rows of [A | I], A the basis matrix: row operations
    act on both parts, so the right part ends as U; column operations, on A
    only, just change the basis of L.
    """
    rank = len(basis)
    rows = [
        [*(col[i] for col in basis), *(int(i == k) for k in range(dimension))]
        for i in range(dimension)
    ]
    factors = []
    for t in range(rank):
        while True:
            # the smallest nonzero entry of A's trailing block moves to (t, t)
            i, j = min(
                ((i, j) for i in range(t, dimension) for j in range(t, rank) if rows[i][j]),
                key=lambda ij: abs(rows[ij[0]][ij[1]]),
            )
            rows[t], rows[i] = rows[i], rows[t]
            for row in rows[t:]:
                row[t], row[j] = row[j], row[t]
            pivot, clear = rows[t][t], True
            for i in range(t + 1, dimension):
                q = rows[i][t] // pivot
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[t])]
                clear = clear and not rows[i][t]
            for j in range(t + 1, rank):
                q = rows[t][j] // pivot
                if q:
                    for row in rows[t:]:
                        row[j] -= q * row[t]
                clear = clear and not rows[t][j]
            if not clear:
                continue
            # d_t must divide the rest of A: a row that it does not is added to row t
            i = next(
                (i for i in range(t + 1, dimension) if any(x % pivot for x in rows[i][t + 1 : rank])),
                None,
            )
            if i is None:
                break
            rows[t] = list(map(add, rows[t], rows[i]))
        if rows[t][t] < 0:
            rows[t] = [-x for x in rows[t]]
        factors.append(rows[t][t])
    return tuple(factors), tuple(tuple(row[rank:]) for row in rows)


@dataclass(frozen=True)
class IntegerLattice:
    """Subgroup of Z^dimension spanned by integer generator vectors; ``basis``
    is its column HNF, each column zero above its positive pivot.  Its Smith
    form and the coset key read from it are built on first use and kept."""

    dimension: int
    generators: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]

    @classmethod
    def from_generators(cls, generators, dimension: int) -> "IntegerLattice":
        generators = tuple(tuple(int(x) for x in gen) for gen in generators)
        basis, pivots = column_hnf(generators, dimension)
        return cls(dimension, generators, basis, pivots)

    def residue(self, vector) -> tuple[int, ...]:
        """Canonical representative of vector + L (Cohen, 1993, 2.4): reduced at
        each pivot row, in row order, into [0, pivot) by the pivot column, so
        residue(x) == residue(y) exactly when x - y lies in L."""
        x = [int(v) for v in vector]
        if len(x) != self.dimension:
            raise ConfigurationError(
                f"vector has dimension {len(x)}, lattice has {self.dimension}"
            )
        for row, j in self.pivots:
            col = self.basis[j]
            quotient = x[row] // col[row]
            if quotient:
                x = [a - quotient * b for a, b in zip(x, col)]
        return tuple(x)

    def contains(self, vector) -> bool:
        """Exact membership: the residue of a lattice vector is zero."""
        return not any(self.residue(vector))

    @cached_property
    def _smith(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The invariant factors and the rows of U, from ``_smith_form``."""
        return _smith_form(self.basis, self.dimension)

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


def _representative(g: MultiDigraph, s: str):
    """Integer core of ``class_representative``: maps chips on V \\ {s} to the
    recurrent member of their class by adding m chips on every vertex and
    stabilizing, m a multiple of the group order N (N * x lies in the firing
    lattice for every integer x) and at least the largest out-degree.  The m
    chips are settled once, into ``base``; by the abelian property each cell
    then settles from cell + base to the same configuration."""
    rs = _game(g, g.vertex_index(s))
    n = abs(rs.count)
    if n == 0:
        raise GraphError("degenerate host: the reduced Laplacian is singular")
    movers = rs.movers
    base = [n * max(rs.bounds, default=1)] * len(rs.bounds)
    _settle(base, movers)

    def represent(cell) -> tuple[int, ...]:
        chips = list(map(add, cell, base))
        _settle(chips, movers)
        return tuple(chips)

    return represent


def class_representative(g: MultiDigraph, s: str, c: Configuration) -> Configuration:
    """The unique recurrent configuration equivalent to c."""
    if c.sink != s or c.host.vertices != g.vertices:
        raise ConfigurationError("configuration does not belong to this sink game")
    return Configuration(c.host, s, _representative(g, s)(c.chips))


def _classes(g: MultiDigraph, s: str, include_beta: bool) -> list[list[tuple[int, ...]]]:
    """Recurrent chip vectors grouped by their lattice coset key; classes in
    order of their first member, members in enumeration order.

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
    key = lat._coset_key
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for vec in rs.vectors:
        classes.setdefault(key(vec), []).append(vec)
    return list(classes.values())


def equivalence_classes(
    g: MultiDigraph, s: str, include_beta: bool = False
) -> list[list[Configuration]]:
    """Partition the recurrent configurations by lattice equivalence.

    One pass keyed on the lattice's Smith-form coset key, linear in |Rec|.  Classes
    come in order of their first member and members in lexicographic order.
    Works on every strongly connected host; on Eulerian hosts without the sink
    vector every class is a singleton.
    """
    return [[Configuration(g, s, vec) for vec in cls] for cls in _classes(g, s, include_beta)]


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
        maxima = sorted(
            g.outdeg(s) + max(map(sum, cls)) for cls in _classes(g, s, include_beta=True)
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
