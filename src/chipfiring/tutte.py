"""Generating polynomial of the recurrent configurations and its recursion checkers.

``tutte_gen`` sums y^level over all recurrent configurations; by sink
independence the result does not depend on the chosen sink, and on undirected
graphs it equals the classical Tutte polynomial at x = 1.  The checkers verify
the five recursive identities (loop, both bridge cases, deletion-contraction,
and the inclusion-exclusion expansion over out-neighbor subsets) by computing
both sides independently in exact arithmetic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import GraphError, HypothesisError
from .graph import (
    MultiDigraph,
    contract_arc,
    contract_vertices,
    delete_arcs,
    is_bridge,
    is_eulerian,
    is_undirected,
    reverse_partner,
)
from .polynomial import LaurentPolynomial
from .recurrent import (
    _check_cap,
    _recurrent_vectors,
    enumerate_recurrents,
    kappa,
    recurrent_count,
    support_after_sink_fire,
)

RECURSION_KINDS = ("loop", "bridge_no_reverse", "bridge_reverse", "del_contract", "mobius")


def tutte_gen(g: MultiDigraph, s: str) -> LaurentPolynomial:
    """Sum of y^level over the recurrent configurations with sink s; the cell
    caps of the enumerations behind it are checked on every call, before the cache."""
    if not is_eulerian(g):
        raise GraphError("the generating polynomial is defined for Eulerian graphs")
    sink = g.vertex_index(s)
    _check_cap(g, 0, degree=2)  # the cube behind kappa
    _check_cap(g, sink)
    return _tutte_gen(g, s)


@lru_cache(maxsize=None)
def _tutte_gen(g: MultiDigraph, s: str) -> LaurentPolynomial:
    k = kappa(g)
    return LaurentPolynomial((g.outdeg(s) + sum(vec) - k, 1) for vec in _recurrent_vectors(g, s))


tutte_gen.cache_info, tutte_gen.cache_clear = _tutte_gen.cache_info, _tutte_gen.cache_clear


def support_filtered_gen(g: MultiDigraph, s: str, w) -> LaurentPolynomial:
    """Sum of y^level over recurrents whose post-sink-firing support contains w."""
    w = frozenset(w)
    rs = enumerate_recurrents(g, s)
    terms = []
    for c, lvl in zip(rs.configs, rs.levels):
        if w <= support_after_sink_fire(g, s, c):
            terms.append((lvl, 1))
    return LaurentPolynomial(terms)


# ---------------------------------------------------------- undirected oracle
def _canonical_multigraph(vertices, edges):
    order = sorted(vertices)
    relabel = {v: i for i, v in enumerate(order)}
    return len(order), tuple(sorted((relabel[a], relabel[b]) for a, b in edges))


def _multigraph_connected(n: int, edges) -> bool:
    if n == 0:
        return False
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def _merge_endpoint(edges, keep: int, drop: int):
    renamed = [(keep if x == drop else x, keep if y == drop else y) for x, y in edges]
    return [(min(x, y), max(x, y)) for x, y in renamed]


@lru_cache(maxsize=None)
def _tutte_at_x1(n: int, edges) -> LaurentPolynomial:
    """T(1, y) of a connected undirected multigraph by deletion-contraction.

    Loops contribute a factor y, bridges a factor 1 (the x of a bridge,
    evaluated at x = 1), everything else splits into delete + contract.
    """
    core = [e for e in edges if e[0] != e[1]]
    n_loops = len(edges) - len(core)
    if n_loops:
        return LaurentPolynomial.y(n_loops) * _tutte_at_x1(n, tuple(core))
    if not core:
        return LaurentPolynomial.one()
    a, b = core[0]
    rest = list(core)
    rest.remove((a, b))
    contracted = _tutte_at_x1(
        *_canonical_multigraph(set(range(n)) - {b}, _merge_endpoint(rest, a, b))
    )
    if (a, b) not in rest and not _multigraph_connected(n, tuple(rest)):
        return contracted  # bridge: the x factor is 1
    deleted = _tutte_at_x1(*_canonical_multigraph(range(n), rest))
    return deleted + contracted


def undirected_tutte_oracle(g: MultiDigraph) -> LaurentPolynomial:
    """T_G(1, y) of an undirected graph given as a symmetric digraph.

    Each reverse arc pair stands for one undirected edge, each directed loop
    for one undirected loop.  Computed by classical deletion-contraction,
    independently of any chip-firing machinery.
    """
    if not is_undirected(g):
        raise GraphError("the classical oracle needs symmetric arc multiplicities")
    if not g.is_weakly_connected():
        raise GraphError("the classical oracle needs a connected graph")
    idx = {v: i for i, v in enumerate(g.vertices)}
    edges = []
    for v, u in itertools.combinations(g.vertices, 2):
        edges.extend([(min(idx[v], idx[u]), max(idx[v], idx[u]))] * g.multiplicity(v, u))
    for v in g.vertices:
        edges.extend([(idx[v], idx[v])] * g.loops_at(v))
    return _tutte_at_x1(*_canonical_multigraph(range(g.n_vertices), edges))


# ------------------------------------------------------------------ counting
def arborescence_count(g: MultiDigraph, s: str) -> int:
    """Number of spanning arborescences oriented toward s (matrix-tree determinant)."""
    return recurrent_count(g, s)


# --------------------------------------------------------- recursion checkers
def _tutte_any_sink(g: MultiDigraph) -> LaurentPolynomial:
    return tutte_gen(g, g.vertices[0])


def check_recursion(g: MultiDigraph, kind: str, site) -> bool:
    """Verify one recursive identity for the generating polynomial at a site.

    ``site`` is an arc index (all arc kinds) or a vertex name (``mobius``).
    The two sides are computed independently and compared exactly; a site that
    violates the identity's hypothesis raises rather than returning False.
    """
    if not is_eulerian(g):
        raise GraphError("recursion checks require an Eulerian graph")
    if kind not in RECURSION_KINDS:
        raise HypothesisError(f"unknown recursion kind {kind!r}")
    if kind == "mobius":
        return _check_mobius(g, site)

    index = int(site)
    tail, head = g.arc(index)
    lhs = _tutte_any_sink(g)

    if kind == "loop":
        if tail != head:
            raise HypothesisError(f"arc {index} is not a loop")
        return lhs == LaurentPolynomial.y(1) * _tutte_any_sink(delete_arcs(g, [index]))

    if tail == head:
        raise HypothesisError(f"arc {index} is a loop")
    partner = reverse_partner(g, index)
    bridge = is_bridge(g, index)

    if kind == "bridge_no_reverse":
        if not bridge:
            raise HypothesisError(f"arc {index} is not a bridge")
        if partner is not None:
            raise HypothesisError(f"arc {index} has a reverse arc")
        return lhs == _tutte_any_sink(contract_arc(g, index))

    if kind == "bridge_reverse":
        if not bridge:
            raise HypothesisError(f"arc {index} is not a bridge")
        if partner is None:
            raise HypothesisError(f"arc {index} has no reverse arc")
        contracted = contract_arc(g, index)
        # the reverse arc keeps its list position, shifted once the arc is gone
        partner_after = partner - (1 if partner > index else 0)
        ok_shift = lhs == _tutte_any_sink(contracted).shift(-1)
        ok_drop = lhs == _tutte_any_sink(delete_arcs(contracted, [partner_after]))
        return ok_shift and ok_drop

    # deletion-contraction
    if bridge:
        raise HypothesisError(f"arc {index} is a bridge")
    if partner is None:
        raise HypothesisError(f"arc {index} has no reverse arc")
    both_removed = delete_arcs(g, [index, partner])
    contracted = contract_arc(g, index)
    k_g = kappa(g)
    rhs = _tutte_any_sink(both_removed).shift(1 + kappa(both_removed) - k_g) + _tutte_any_sink(
        contracted
    ).shift(kappa(contracted) - k_g)
    ok = lhs == rhs
    if ok and is_undirected(g):
        partner_after = partner - (1 if partner > index else 0)
        loopless_contract = delete_arcs(contracted, [partner_after])
        rhs_undirected = _tutte_any_sink(both_removed) + _tutte_any_sink(
            loopless_contract
        ).shift(1 - g.multiplicity(tail, head))
        ok = lhs == rhs_undirected
    return ok


def _check_mobius(g: MultiDigraph, s: str) -> bool:
    """Inclusion-exclusion expansion over nonempty subsets of the out-neighbors of s."""
    g.vertex_index(s)
    neighbors = g.out_neighbors(s)
    if not neighbors:
        raise HypothesisError(f"vertex {s!r} has no out-neighbors besides itself")
    lhs = tutte_gen(g, s)
    k_g = kappa(g)
    rhs = LaurentPolynomial.zero()
    for r in range(1, len(neighbors) + 1):
        for w in itertools.combinations(neighbors, r):
            term = _contraction_term(g, s, w, k_g)
            rhs = rhs + term if r % 2 == 1 else rhs - term
    return lhs == rhs


def _contraction_term(g: MultiDigraph, s: str, w, k_g: int) -> LaurentPolynomial:
    contracted = contract_vertices(g, set(w) | {s})
    arcs_into_w = sum(g.multiplicity(s, v) for v in w)
    factor = LaurentPolynomial.one()
    for v in w:
        factor = factor * LaurentPolynomial.geometric(g.multiplicity(s, v))
    return (
        factor * _tutte_any_sink(contracted)
    ).shift(kappa(contracted) - k_g - arcs_into_w)


def pw_closed_form_check(g: MultiDigraph, s: str, w) -> bool:
    """Closed form of the support-filtered generating function for a subset
    w of the out-neighbors of s: both sides computed independently, compared
    exactly.  The geometric factors replace any division by (1 - y)."""
    if not is_eulerian(g):
        raise GraphError("closed-form check requires an Eulerian graph")
    w = frozenset(w)
    neighbors = set(g.out_neighbors(s))
    if not w:
        raise HypothesisError("the subset w must be nonempty")
    if not w <= neighbors:
        raise HypothesisError(f"{sorted(w)} is not a subset of the out-neighbors of {s!r}")
    lhs = support_filtered_gen(g, s, w)
    rhs = _contraction_term(g, s, tuple(sorted(w, key=g.vertex_index)), kappa(g))
    return lhs == rhs
