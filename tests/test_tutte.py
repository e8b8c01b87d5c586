import itertools

import pytest

from chipfiring import (
    GraphError,
    HypothesisError,
    LaurentPolynomial,
    MultiDigraph,
    check_recursion,
    is_bridge,
    is_undirected,
    pw_closed_form_check,
    remove_loops,
    reverse_partner,
    tutte_gen,
    undirected_tutte_oracle,
)
from chipfiring import enumerate_recurrents, tutte
from chipfiring.checks import run_check
from chipfiring.oracles import brute_acyclic_sets
from chipfiring.tutte import support_filtered_gen

from support import (
    bidirected_complete,
    corpus,
    determinant_count,
    directed_cycle,
    doubled_cycle,
    parallel_pair,
    reference_recursion_kind,
    small_corpus,
    support_after_sink_fire,
)

Y = LaurentPolynomial.y
C3 = directed_cycle(["s", "a", "b"])
K3 = bidirected_complete(["s", "a", "b"])
BANANA = parallel_pair("u", "v", 2)


def test_tutte_gen_examples():
    assert tutte_gen(C3, "s") == 1
    assert tutte_gen(K3, "s") == 2 + Y(1)
    assert tutte_gen(BANANA, "u") == 1 + Y(1)


def test_tutte_gen_sink_independent_over_corpus():
    for g in corpus()[:80]:
        polys = {tutte_gen(g, s) for s in g.vertices}
        assert len(polys) == 1
        assert polys.pop().is_polynomial


def test_undirected_oracle_examples():
    assert undirected_tutte_oracle(parallel_pair("u", "v", 1)) == 1
    assert undirected_tutte_oracle(K3) == 2 + Y(1)
    assert undirected_tutte_oracle(BANANA) == 1 + Y(1)
    with pytest.raises(GraphError):
        undirected_tutte_oracle(C3)


def test_undirected_oracle_known_values():
    k4 = bidirected_complete(["a", "b", "c", "d"])
    # classical T_{K4}(x, y) at x = 1: 3 + 6y + 5y^2 + 3y^3... verified below
    # against the chip-firing side, plus the spanning-tree count at y = 1
    assert undirected_tutte_oracle(k4).eval(1) == 16
    assert undirected_tutte_oracle(k4) == tutte_gen(k4, "a")
    loop_graph = MultiDigraph.of([("u", "v"), ("v", "u"), ("v", "v")])
    assert undirected_tutte_oracle(loop_graph) == Y(1)


def test_evaluations_examples():
    assert tutte_gen(C3, "s").eval(1) == 1 == determinant_count(C3, "s")
    assert (2 + Y(1)).eval(1) == 3
    assert (2 + Y(1)).eval(0) == 2
    assert determinant_count(K3, "a") == 3
    assert determinant_count(BANANA, "u") == 2
    assert brute_acyclic_sets(C3, "s") == 1
    assert brute_acyclic_sets(BANANA, "u") == 1
    assert brute_acyclic_sets(K3, "s") == 2


def test_evaluations_against_counts_over_sample():
    # the y=0 count identity lives on the loopless reduction: a loop forces a
    # y factor onto the polynomial but never enters an acyclic arc set
    for g in corpus()[:40]:
        poly = tutte_gen(g, g.vertices[0])
        bare, n_loops = remove_loops(g)
        bare_poly = tutte_gen(bare, g.vertices[0])
        for s in g.vertices:
            assert poly.eval(1) == determinant_count(g, s)
            assert bare_poly.eval(0) == brute_acyclic_sets(g, s)
            if n_loops:
                assert poly.eval(0) == 0
            else:
                assert poly.eval(0) == brute_acyclic_sets(g, s)


def test_loop_recursion():
    g = MultiDigraph.of([("u", "v"), ("u", "v"), ("v", "u"), ("v", "u"), ("v", "v")])
    assert check_recursion(g, "loop", 4)
    assert tutte_gen(g, "u") == Y(1) * tutte_gen(BANANA, "u")
    with pytest.raises(HypothesisError):
        check_recursion(g, "loop", 0)


def test_loop_lift_of_polynomial_over_corpus():
    for g in corpus()[:40]:
        if g.loop_count == 0:
            continue
        bare, n_loops = remove_loops(g)
        assert tutte_gen(g, g.vertices[0]) == tutte_gen(bare, g.vertices[0]).shift(n_loops)


def test_bridge_recursions():
    assert check_recursion(C3, "bridge_no_reverse", 0)
    pair = parallel_pair("u", "v", 1)
    assert check_recursion(pair, "bridge_reverse", 0)
    with pytest.raises(HypothesisError):
        check_recursion(BANANA, "bridge_reverse", 0)  # not a bridge
    with pytest.raises(HypothesisError):
        check_recursion(pair, "bridge_no_reverse", 0)  # has a reverse arc


def test_del_contract_recursion_banana():
    assert check_recursion(BANANA, "del_contract", 0)
    # the worked identity: 1 + y = y^(1+1-2)*1 + y^(0-2)*y^3
    from chipfiring import contract_arc, delete_arcs, kappa

    h = contract_arc(BANANA, 0)
    both = delete_arcs(BANANA, [0, 2])
    assert kappa(BANANA) == 2 and kappa(both) == 1 and kappa(h) == 0
    assert tutte_gen(h, h.vertices[0]) == Y(3)
    with pytest.raises(HypothesisError):
        check_recursion(C3, "del_contract", 0)  # bridge, no reverse


def test_recursion_kind_matches_inline_classification():
    arc_kinds = tutte.RECURSION_KINDS[:-1]
    for g in corpus():
        for i in range(g.n_arcs):
            kind = tutte.recursion_kind(g, i)
            assert kind == reference_recursion_kind(g, i)
            for other in arc_kinds:
                if other != kind:
                    with pytest.raises(HypothesisError):
                        check_recursion(g, other, i)


def test_mobius_examples():
    assert check_recursion(C3, "mobius", "s")
    assert check_recursion(K3, "mobius", "s")
    # a graph with no loop, no bridge, and no reverse arc: only this formula applies
    dc = doubled_cycle(["x", "y", "z"])
    for i in range(dc.n_arcs):
        assert not is_bridge(dc, i) and reverse_partner(dc, i) is None
    assert check_recursion(dc, "mobius", "x")
    with pytest.raises(HypothesisError):
        check_recursion(MultiDigraph.of([("v", "v")], ["v"]), "mobius", "v")


def test_pw_closed_form_examples():
    assert pw_closed_form_check(C3, "s", ["a"])
    assert pw_closed_form_check(K3, "s", ["a"])
    assert pw_closed_form_check(K3, "s", ["a", "b"])
    assert support_filtered_gen(K3, "s", ["a"]) == 1 + Y(1)
    assert support_filtered_gen(K3, "s", ["a", "b"]) == Y(1)
    with pytest.raises(HypothesisError):
        pw_closed_form_check(K3, "s", [])
    with pytest.raises(HypothesisError):
        pw_closed_form_check(C3, "s", ["b"])  # not an out-neighbor


def test_mobius_inversion_zero_identity():
    # alternating sum over all subsets of the out-neighbors vanishes
    for g in small_corpus()[:15]:
        for s in g.vertices:
            neighbors = g.out_neighbors(s)
            total = LaurentPolynomial.zero()
            for r in range(len(neighbors) + 1):
                for w in itertools.combinations(neighbors, r):
                    term = support_filtered_gen(g, s, w)
                    total = total + term if r % 2 == 0 else total - term
            assert total.is_zero


def test_recursions_over_sample():
    for g in corpus()[:25]:
        for i, (tail, head) in enumerate(g.arcs):
            if tail == head:
                assert check_recursion(g, "loop", i)
            elif is_bridge(g, i):
                kind = "bridge_reverse" if reverse_partner(g, i) is not None else "bridge_no_reverse"
                assert check_recursion(g, kind, i)
            elif reverse_partner(g, i) is not None:
                assert check_recursion(g, "del_contract", i)
        for s in g.vertices:
            if g.out_neighbors(s):
                assert check_recursion(g, "mobius", s)


def test_undirected_specialization_checked():
    # symmetric graphs exercise the extra identity inside del_contract
    k4 = bidirected_complete(["a", "b", "c", "d"])
    assert is_undirected(k4)
    assert check_recursion(k4, "del_contract", 0)
    assert check_recursion(BANANA, "del_contract", 1)


def _reference_support_filtered_gen(g, s, w):
    """``support_filtered_gen`` on Configuration objects, as it ran before chip vectors."""
    rs = enumerate_recurrents(g, s)
    return LaurentPolynomial(
        (lvl, 1)
        for c, lvl in zip(rs.configs, rs.levels)
        if frozenset(w) <= support_after_sink_fire(g, s, c)
    )


def test_vector_support_filter_matches_configuration_reference():
    for g in corpus():
        for s in g.vertices:
            neighbors = g.out_neighbors(s)
            for r in range(1, len(neighbors) + 1):
                for w in itertools.combinations(neighbors, r):
                    assert support_filtered_gen(g, s, w) == _reference_support_filtered_gen(g, s, w)
    # subsets reaching outside the out-neighbors filter everything out, as before
    for w in (["s"], ["b"], ["a", "b"], ["nowhere"]):
        assert support_filtered_gen(C3, "s", w) == _reference_support_filtered_gen(C3, "s", w)
        assert support_filtered_gen(C3, "s", w).is_zero


def test_support_table_matches_configuration_reference():
    # one pass of support masks and their superset sums give every subset's
    # filtered polynomial, the empty subset included
    entries = 0
    for g in dict.fromkeys(corpus() + small_corpus()):
        for s in g.vertices:
            neighbors = g.out_neighbors(s)
            table = tutte._support_table(g, s)
            assert len(table) == 2 ** len(neighbors)
            for r in range(len(neighbors) + 1):
                for w in itertools.combinations(neighbors, r):
                    assert table[w] == _reference_support_filtered_gen(g, s, w)
                    entries += 1
    assert entries > 2_000


def test_recursion_suite_computes_each_contraction_term_once(monkeypatch):
    # one contraction per (sink, subset): the Möbius check and the closed-form
    # check of the same subset share it
    graphs = tuple(dict.fromkeys(corpus()[:30]))
    contractions = []
    real = tutte.contract_vertices
    monkeypatch.setattr(
        tutte, "contract_vertices", lambda g, w: contractions.append(w) or real(g, w)
    )
    for g in graphs:
        assert run_check("recursions", g).ok
    assert len(contractions) == sum(
        2 ** len(g.out_neighbors(s)) - 1 for g in graphs for s in g.vertices
    )


def test_contraction_term_cache_respects_a_lowered_cap():
    from chipfiring.errors import SizeCapError
    from chipfiring.recurrent import CELL_CAP

    # a term computed under one cap is not served under a lower one
    k4 = bidirected_complete(["p", "q", "r", "t"])
    assert check_recursion(k4, "mobius", "p")
    token = CELL_CAP.set(1)
    try:
        with pytest.raises(SizeCapError):
            tutte._check_mobius(k4, "p")
        with pytest.raises(SizeCapError):
            tutte._contraction_term(k4, "p", ("q",))
    finally:
        CELL_CAP.reset(token)
