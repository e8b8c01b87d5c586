"""Generating polynomial of the recurrent configurations and its recursion checkers.

``tutte_gen`` sums y^level over all recurrent configurations, read off the sink
game's burnt-set recursion (``RecurrentSet.sum_polynomial``) rather than its
members; by sink independence the result does not depend on the chosen sink,
and on undirected graphs it equals the classical Tutte polynomial at x = 1.
The checkers verify the five recursive identities (loop, both bridge cases,
deletion-contraction, and the inclusion-exclusion expansion over out-neighbor
subsets) by computing both sides independently in exact arithmetic.  The
recursion's first step is that expansion, so its left side and the closed
forms' are read from the enumerated members instead.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import ge, itemgetter

from .errors import HypothesisError
from .graph import (
    MultiDigraph,
    contract_arc,
    contract_vertices,
    delete_arcs,
    is_bridge,
    is_undirected,
    reverse_partner,
)
from .oracles import undirected_tutte_oracle  # re-exported; perfbench/runner.py reads it here
from .polynomial import LaurentPolynomial
from .recurrent import _eulerian_game, _require_eulerian, enumerate_recurrents, kappa

RECURSION_KINDS = ("loop", "bridge_no_reverse", "bridge_reverse", "del_contract", "mobius")


def tutte_gen(g: MultiDigraph, s: str) -> LaurentPolynomial:
    """Sum of y^level over the recurrent configurations with sink s: the game's
    ``sum_polynomial`` shifted by -kappa, after the host check and both caps."""
    return _eulerian_game(g, s).sum_polynomial.shift(-kappa(g))


def support_filtered_gen(g: MultiDigraph, s: str, w) -> LaurentPolynomial:
    """Sum of y^level over recurrents whose post-sink-firing support contains w.

    That support is the set of out-neighbors of s that firing s makes firable:
    on chip vectors, every v in w has at least outdeg(v) - d(s, v) chips.
    """
    w = frozenset(w)
    enumerate_recurrents(g, s)  # the host and cap checks come first, for any w
    if not w <= set(g.out_neighbors(s)):
        return LaurentPolynomial.zero()
    order = tuple(v for v in g.out_neighbors(s) if v in w)
    return _support_counts(g, s, order).get((1 << len(order)) - 1, LaurentPolynomial.zero())


def _support_counts(g: MultiDigraph, s: str, w: tuple[str, ...]) -> dict[int, LaurentPolynomial]:
    """One pass over the members at sink s: for each support mask m over w (bit
    i for w[i]) that occurs, the sum of y^level over the members whose
    post-sink-firing support meets w exactly in m."""
    rs = enumerate_recurrents(g, s)
    least = (g.outdeg(v) - g.multiplicity(s, v) for v in w)
    flags = (
        map(ge, map(itemgetter(rs.domain.index(v)), rs.vectors), itertools.repeat(x))
        for v, x in zip(w, least)
    )
    terms: dict[int, list[tuple[int, int]]] = {}
    for (lvl, *bits), count in Counter(zip(rs.levels, *flags)).items():
        terms.setdefault(sum(bit << i for i, bit in enumerate(bits)), []).append((lvl, count))
    return {mask: LaurentPolynomial(pairs) for mask, pairs in terms.items()}


def _support_table(g: MultiDigraph, s: str) -> dict[tuple[str, ...], LaurentPolynomial]:
    """``support_filtered_gen`` at every subset w of the out-neighbors of s, keyed
    in canonical order: superset sums over ``_support_counts``'s masks."""
    neighbors = g.out_neighbors(s)
    counts = _support_counts(g, s, neighbors)
    table = [counts.get(mask, LaurentPolynomial.zero()) for mask in range(1 << len(neighbors))]
    for i in range(len(neighbors)):
        bit = 1 << i
        for mask in range(len(table)):
            if not mask & bit:
                table[mask] = table[mask] + table[mask | bit]
    return {
        tuple(itertools.compress(neighbors, (mask >> i & 1 for i in range(len(neighbors))))): poly
        for mask, poly in enumerate(table)
    }


# --------------------------------------------------------- recursion checkers
def _tutte_any_sink(g: MultiDigraph) -> LaurentPolynomial:
    return tutte_gen(g, g.vertices[0])


def recursion_kind(g: MultiDigraph, index: int) -> str | None:
    """The arc recursion whose hypothesis holds at arc ``index``: ``loop``, a
    bridge with or without a reverse arc, ``del_contract`` (a reverse arc and no
    bridge), or None.  Needs a strongly connected graph."""
    tail, head = g.arc(index)
    if tail == head:
        return "loop"
    partner = reverse_partner(g, index)
    if is_bridge(g, index):
        return "bridge_no_reverse" if partner is None else "bridge_reverse"
    return None if partner is None else "del_contract"


def check_recursion(g: MultiDigraph, kind: str, site) -> bool:
    """Verify one recursive identity for the generating polynomial at a site.

    ``site`` is an arc index (all arc kinds) or a vertex name (``mobius``).
    The two sides are computed independently and compared exactly; a site that
    violates the identity's hypothesis raises rather than returning False.
    """
    _require_eulerian(g)
    if kind not in RECURSION_KINDS:
        raise HypothesisError(f"unknown recursion kind {kind!r}")
    if kind == "mobius":
        return _check_mobius(g, site)[0]

    actual = recursion_kind(g, site)
    if actual != kind:
        raise HypothesisError(f"arc {site} admits {actual or 'no arc recursion'}, not {kind}")
    return _arc_identity(g, kind, site)


def _arc_identity(g: MultiDigraph, kind: str, index: int) -> bool:
    """Both sides of the arc identity ``kind`` at arc ``index``, compared; the
    caller has checked that ``recursion_kind`` gives ``kind`` there."""
    lhs = _tutte_any_sink(g)
    if kind == "loop":
        return lhs == LaurentPolynomial.y(1) * _tutte_any_sink(delete_arcs(g, [index]))
    contracted = contract_arc(g, index)
    if kind == "bridge_no_reverse":
        return lhs == _tutte_any_sink(contracted)

    partner = reverse_partner(g, index)
    # the reverse arc keeps its list position, shifted once the arc is gone
    partner_after = partner - (1 if partner > index else 0)
    if kind == "bridge_reverse":
        ok_shift = lhs == _tutte_any_sink(contracted).shift(-1)
        ok_drop = lhs == _tutte_any_sink(delete_arcs(contracted, [partner_after]))
        return ok_shift and ok_drop

    # deletion-contraction
    both_removed = delete_arcs(g, [index, partner])
    k_g = kappa(g)
    rhs = _tutte_any_sink(both_removed).shift(1 + kappa(both_removed) - k_g) + _tutte_any_sink(
        contracted
    ).shift(kappa(contracted) - k_g)
    ok = lhs == rhs
    if ok and is_undirected(g):
        loopless_contract = delete_arcs(contracted, [partner_after])
        rhs_undirected = _tutte_any_sink(both_removed) + _tutte_any_sink(
            loopless_contract
        ).shift(1 - g.multiplicity(*g.arc(index)))
        ok = lhs == rhs_undirected
    return ok


def _check_mobius(g: MultiDigraph, s: str) -> tuple[bool, dict]:
    """Inclusion-exclusion expansion over nonempty subsets of the out-neighbors
    of s: the verdict, and the term of each subset, keyed in canonical order."""
    g.vertex_index(s)
    neighbors = g.out_neighbors(s)
    if not neighbors:
        raise HypothesisError(f"vertex {s!r} has no out-neighbors besides itself")
    # enumerated levels: the recursion expands this way
    lhs = LaurentPolynomial((level, 1) for level in enumerate_recurrents(g, s).levels)
    terms = {}
    rhs = LaurentPolynomial.zero()
    for r in range(1, len(neighbors) + 1):
        for w in itertools.combinations(neighbors, r):
            term = terms[w] = _contraction_term(g, s, w)
            rhs = rhs + term if r % 2 == 1 else rhs - term
    return lhs == rhs, terms


def _contraction_term(g: MultiDigraph, s: str, w: tuple[str, ...]) -> LaurentPolynomial:
    """The term of w, in canonical order, in the Möbius expansion at sink s."""
    contracted = contract_vertices(g, set(w) | {s})
    arcs_into_w = sum(g.multiplicity(s, v) for v in w)
    factor = LaurentPolynomial.one()
    for v in w:
        factor = factor * LaurentPolynomial.geometric(g.multiplicity(s, v))
    shift = kappa(contracted) - kappa(g) - arcs_into_w
    return (factor * _tutte_any_sink(contracted)).shift(shift)


def pw_closed_form_check(g: MultiDigraph, s: str, w) -> bool:
    """Closed form of the support-filtered generating function for a subset
    w of the out-neighbors of s: both sides computed independently, compared
    exactly.  The geometric factors replace any division by (1 - y)."""
    _require_eulerian(g)
    w = frozenset(w)
    neighbors = set(g.out_neighbors(s))
    if not w:
        raise HypothesisError("the subset w must be nonempty")
    if not w <= neighbors:
        raise HypothesisError(f"{sorted(w)} is not a subset of the out-neighbors of {s!r}")
    lhs = support_filtered_gen(g, s, w)
    rhs = _contraction_term(g, s, tuple(sorted(w, key=g.vertex_index)))
    return lhs == rhs
