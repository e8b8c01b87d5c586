import itertools
import random

import pytest

from chipfiring import (
    GraphError,
    HypothesisError,
    LaurentPolynomial,
    MultiDigraph,
    check_recursion,
    contract_arc,
    contract_vertices,
    delete_arcs,
    is_bridge,
    is_eulerian,
    is_undirected,
    kappa,
    pw_closed_form_check,
    remove_loops,
    reverse_partner,
    tutte_gen,
    undirected_tutte_oracle,
)
from chipfiring import enumerate_recurrents, recurrent, tutte
from chipfiring.checks import run_check
from chipfiring.errors import SizeCapError
from chipfiring.families import random_eulerian
from chipfiring.graph import _from_table, _rewrite
from chipfiring.oracles import brute_acyclic_sets
from chipfiring.tutte import support_filtered_gen

from support import (
    bidirected_complete,
    cell_cap,
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
        for c, lvl in zip(rs.configs, rs.levels())
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
    real = tutte._rewrite

    def counted(table, removed, merged=()):
        if not removed:  # a table rewrite that deletes no arc is a Möbius term's contraction
            contractions.append(merged)
        return real(table, removed, merged)

    monkeypatch.setattr(tutte, "_rewrite", counted)
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
        # the table memo holds the contraction of {p, q} from above; it is keyed
        # by the table alone, and the cap is checked before it is read
        with pytest.raises(SizeCapError):
            tutte._table_gen(_rewrite(k4._firing_table, (), {0, 1}))
    finally:
        CELL_CAP.reset(token)


def _table_rewrite_hosts():
    """The two corpora and seeded hosts with loops and parallel arcs."""
    rng = random.Random(32)
    looped = [g for g in (random_eulerian(rng, 5, 14) for _ in range(80)) if g.loop_count]
    looped = [g for g in looped if len(set(g.arcs)) < g.n_arcs]
    assert len(looped) >= 15
    return tuple(dict.fromkeys((*small_corpus(), *corpus(), *looped)))


def _named_and_table_rewrites(g):
    """Each rewrite the recursions suite makes of g, at every distinct arc and every
    (sink, subset): the graph the named operations build, and the table rewrite."""
    table = g._firing_table
    for i, (tail, head) in enumerate(g.arcs):
        if g.arcs.index((tail, head)) != i:
            continue
        t, h = g.vertex_index(tail), g.vertex_index(head)
        yield delete_arcs(g, [i]), _rewrite(table, [(t, h)])
        if t == h:
            continue
        yield contract_arc(g, i), _rewrite(table, [(t, h)], {t, h})
        partner = reverse_partner(g, i)
        if partner is not None:
            both = [(t, h), (h, t)]
            yield delete_arcs(g, [i, partner]), _rewrite(table, both)
            dropped = delete_arcs(contract_arc(g, i), [partner - (partner > i)])
            yield dropped, _rewrite(table, both, {t, h})
    for s in g.vertices:
        neighbors = g.out_neighbors(s)
        for r in range(1, len(neighbors) + 1):
            for w in itertools.combinations(neighbors, r):
                merged = contract_vertices(g, {s, *w})
                yield merged, _rewrite(table, (), map(g.vertex_index, (s, *w)))


def test_table_rewrites_match_the_named_rewrites():
    tutte._table_values.cache_clear()
    rewrites = 0
    for g in _table_rewrite_hosts():
        for named, table in _named_and_table_rewrites(g):
            assert table == named._firing_table, (g, named)
            assert _from_table(table)._firing_table == table
            if is_eulerian(named):  # deleting one non-loop arc, or a bridge and its partner, is not
                expected = tutte_gen(named, named.vertices[0]), kappa(named)
                assert tutte._table_gen(table) == expected, (g, named)
                rewrites += 1
            else:
                assert _refusals(named, GraphError)[1] == "operation requires an Eulerian graph"
    assert rewrites > 3000


def test_recursions_report_is_the_same_when_every_table_falls_back(monkeypatch):
    hosts = _table_rewrite_hosts()
    expected = [run_check("recursions", g).lines for g in hosts]
    built = []
    real = tutte._from_table
    monkeypatch.setattr(tutte, "_from_table", lambda table: built.append(table) or real(table))
    monkeypatch.setattr(recurrent, "RECURSION_TERMS_PER_MEMBER", 0)
    # no value computed under the real budget may be served
    tutte._table_values.cache_clear()
    recurrent._game.cache_clear()
    try:
        assert [run_check("recursions", g).lines for g in hosts] == expected
    finally:
        tutte._table_values.cache_clear()
        recurrent._game.cache_clear()
    assert len(built) > 500


def _refusals(g, error) -> tuple[str, str]:
    """The messages of ``tutte_gen`` on g and of ``_table_gen`` on its table."""
    with pytest.raises(error) as named:
        tutte_gen(g, g.vertices[0])
    with pytest.raises(error) as table:
        tutte._table_gen(g._firing_table)
    return str(named.value), str(table.value)


def test_table_gen_refuses_as_tutte_gen_does(monkeypatch):
    # the vertex bound, then the cell cap, then the host check on a memo miss, with
    # tutte_gen's messages; the order is tutte_gen's but for a table both
    # non-Eulerian and over a bound, which refuses by the bound
    named, table = _refusals(MultiDigraph.of([("s", "a"), ("a", "b"), ("b", "a")]), GraphError)
    assert named == table == "operation requires an Eulerian graph"
    k4 = bidirected_complete(["m0", "m1", "m2", "m3"])  # no record of it is cached yet
    with cell_cap(26):
        monkeypatch.setattr(recurrent, "MAX_GAME_VERTICES", 2)
        named, table = _refusals(k4, SizeCapError)
        assert named == table and "3 non-sink vertices" in table
        monkeypatch.undo()
        named, table = _refusals(k4, SizeCapError)
        assert named == table and "27 cells" in table
