import random
from collections import Counter
from functools import lru_cache

import pytest

from chipfiring import (
    BridgeCut,
    GraphError,
    MultiDigraph,
    bridge_cut,
    contract_arc,
    contract_vertices,
    delete_arcs,
    delete_out_arcs,
    is_bridge,
    is_eulerian,
    is_undirected,
    parse_edge_list,
    remove_loops,
    reverse_partner,
)
from chipfiring import graph
from chipfiring.checks import run_check
from chipfiring.families import random_strongly_connected

from support import (
    bidirected_complete,
    corpus,
    directed_cycle,
    non_eulerian_corpus,
    parallel_pair,
    random_digraph,
    reference_bridge_cut_set,
    reference_is_bridge,
    reference_reached,
    reference_strongly_connected,
    reference_weakly_connected,
    simple_undirected_connected,
)

C3 = directed_cycle(["s", "a", "b"])
K3 = bidirected_complete(["s", "a", "b"])
BANANA = parallel_pair("u", "v", 2)


def test_vertex_order_and_degrees():
    g = MultiDigraph.of([("b", "a"), ("a", "b"), ("a", "a")])
    assert g.vertices == ("b", "a")
    assert g.outdeg("a") == 2 and g.indeg("a") == 2
    assert g.loops_at("a") == 1
    assert g.multiplicity("b", "a") == 1
    assert g.out_neighbors("a") == ("b",)


def test_arc_endpoints_validated():
    with pytest.raises(GraphError, match=r"^arc 0 \(a -> b\) uses an undeclared vertex$"):
        MultiDigraph(("a",), (("a", "b"),))
    # the first offending arc is named, after repeats of a valid one
    arcs = (("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("b", "c"))
    with pytest.raises(GraphError, match=r"^arc 2 \(b -> c\) uses an undeclared vertex$"):
        MultiDigraph(("a", "b"), arcs)
    with pytest.raises(GraphError, match="^duplicate vertex names$"):
        MultiDigraph(("a", "a"), ())
    # duplicate names are reported before undeclared arcs
    with pytest.raises(GraphError, match="^duplicate vertex names$"):
        MultiDigraph(("a", "a"), (("a", "b"),))


def test_is_eulerian_examples():
    assert is_eulerian(C3)
    assert not is_eulerian(MultiDigraph.of([("s", "a"), ("a", "b"), ("b", "s"), ("a", "s")]))
    assert is_eulerian(BANANA)
    assert is_eulerian(MultiDigraph(("x",), ()))  # isolated vertex
    assert not is_eulerian(MultiDigraph((), ()))
    # balanced but disconnected
    two = MultiDigraph.of([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
    assert not is_eulerian(two) and not two.is_strongly_connected()


def test_delete_out_arcs():
    assert delete_out_arcs(C3, "s").arcs == (("a", "b"), ("b", "s"))
    assert delete_out_arcs(BANANA, "u").arcs == (("v", "u"), ("v", "u"))
    loopy = MultiDigraph.of([("s", "s"), ("s", "a"), ("a", "s")])
    assert delete_out_arcs(loopy, "s").arcs == (("a", "s"),)
    with pytest.raises(GraphError):
        delete_out_arcs(C3, "zzz")


def test_contract_arc_cycle():
    g = contract_arc(C3, 0)  # s->a
    assert g.vertices == ("a+s", "b")
    assert sorted(g.arcs) == [("a+s", "b"), ("b", "a+s")]


def test_contract_arc_reverse_becomes_loop():
    pair = parallel_pair("u", "v", 1)
    g = contract_arc(pair, 0)
    assert g.vertices == ("u+v",)
    assert g.arcs == (("u+v", "u+v"),)


def test_contract_arc_path_keeps_eulerian():
    path = MultiDigraph.of([("u", "v"), ("v", "u"), ("v", "w"), ("w", "v")])
    g = contract_arc(path, 2)  # v->w
    assert set(g.vertices) == {"u", "v+w"}
    assert g.loops_at("v+w") == 1
    assert is_eulerian(g)
    with pytest.raises(GraphError):
        contract_arc(g, g.arcs.index(("v+w", "v+w")))


def test_contract_vertices():
    g = contract_vertices(C3, {"s", "a"})
    assert g.vertices == ("a+s", "b")
    assert g.loops_at("a+s") == 1 and g.multiplicity("a+s", "b") == 1
    assert contract_vertices(C3, {"a"}).arcs == C3.arcs  # singleton is the identity
    merged = contract_vertices(K3, {"a", "b"})
    assert merged.multiplicity("s", "a+b") == 2
    assert merged.multiplicity("a+b", "s") == 2
    assert merged.loops_at("a+b") == 2
    with pytest.raises(GraphError):
        contract_vertices(C3, set())


def test_contraction_name_lengthened_past_existing_vertices():
    g = parse_edge_list("x y\ny x\ny x+y\nx+y y\nx x+y\nx+y x\n")
    merged = contract_arc(g, 0)
    assert merged.vertices == ("x+y+", "x+y")
    assert merged.loops_at("x+y+") == 1 and merged.multiplicity("x+y+", "x+y") == 2
    both = contract_vertices(g, {"x", "y"})
    assert both.vertices == ("x+y+", "x+y") and both.loops_at("x+y+") == 2
    assert contract_vertices(g, {"y", "x+y"}).vertices == ("x", "x+y+y")  # a free name stays
    assert contract_vertices(merged, {"x+y+", "x+y"}).vertices == ("x+y+x+y+",)


def test_remove_loops():
    assert remove_loops(C3) == (C3, 0)
    lonely = MultiDigraph.of([("x", "x")] * 3, ["x"])
    bare, count = remove_loops(lonely)
    assert bare.arcs == () and count == 3
    g = MultiDigraph.of([("u", "v"), ("v", "u"), ("v", "v")])
    bare, count = remove_loops(g)
    assert count == 1 and sorted(bare.arcs) == [("u", "v"), ("v", "u")]


def test_is_bridge_examples():
    assert is_bridge(C3, 0)
    assert not is_bridge(BANANA, 0)
    assert is_bridge(parallel_pair("u", "v", 1), 0)
    not_strong = MultiDigraph.of([("a", "b")])
    with pytest.raises(GraphError):
        is_bridge(not_strong, 0)


def test_bridge_cut_examples():
    cut = bridge_cut(C3, 0)  # s->a
    assert cut == BridgeCut(frozenset({"s"}), 0, C3.arcs.index(("b", "s")))
    pair = parallel_pair("u", "v", 1)
    cut = bridge_cut(pair, 0)
    assert cut.cut_set == frozenset({"u"}) and pair.arcs[cut.co_bridge] == ("v", "u")
    with pytest.raises(GraphError):
        bridge_cut(BANANA, 0)


def test_bridge_cut_invariants_exhaustive():
    for g in corpus()[:60]:
        for i in range(g.n_arcs):
            tail, head = g.arcs[i]
            if tail == head or not is_bridge(g, i):
                continue
            cut = bridge_cut(g, i)
            outward = [j for j, (t, h) in enumerate(g.arcs) if t in cut.cut_set and h not in cut.cut_set]
            inward = [j for j, (t, h) in enumerate(g.arcs) if t not in cut.cut_set and h in cut.cut_set]
            assert outward == [cut.bridge] and inward == [cut.co_bridge]


def test_contraction_preserves_eulerian_over_corpus():
    for g in corpus()[:80]:
        for i, (tail, head) in enumerate(g.arcs):
            if tail != head:
                assert is_eulerian(contract_arc(g, i))


def test_undirected_bridge_equivalence_brute_force():
    # bridge <=> the reverse pair disconnects, over all simple connected graphs <= 5 vertices
    for g in simple_undirected_connected():
        for i in range(g.n_arcs):
            partner = reverse_partner(g, i)
            assert partner is not None
            expected = not delete_arcs(g, [i, partner]).is_weakly_connected()
            assert is_bridge(g, i) == expected


def test_loop_removal_commutes_with_eulerian_test():
    for g in corpus()[:80]:
        bare, _ = remove_loops(g)
        if bare.is_strongly_connected():
            assert is_eulerian(bare) == is_eulerian(g)


def test_is_undirected():
    assert is_undirected(K3)
    assert is_undirected(BANANA)
    assert not is_undirected(C3)


def test_parse_edge_list():
    g = parse_edge_list("s a\na b\nb s")
    assert g.vertices == ("s", "a", "b") and g.n_arcs == 3
    g = parse_edge_list("# banana\nu v 2\nv u 2\n")
    assert g.vertices == ("u", "v") and g.multiplicity("u", "v") == 2
    g = parse_edge_list("v v")
    assert g.loops_at("v") == 1
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("a b\nc\n")
    with pytest.raises(GraphError, match="line 1"):
        parse_edge_list("a b zero")
    with pytest.raises(GraphError, match="line 1"):
        parse_edge_list("a b 0")
    with pytest.raises(GraphError):
        parse_edge_list("# nothing\n")


def test_parse_edge_list_arc_cap():
    from chipfiring import SizeCapError
    from chipfiring.graph import MAX_ARCS

    # refused before any arc list is built, whatever the multiplicity
    for text in (f"a b {10**30}", f"a b {MAX_ARCS + 1}", f"a b {MAX_ARCS}\nb a 1"):
        with pytest.raises(SizeCapError, match="more than"):
            parse_edge_list(text)
    assert parse_edge_list(f"a b {MAX_ARCS // 2}\nb a {MAX_ARCS // 2}").n_arcs == MAX_ARCS


def _rewrites(g):
    """Every single-step rewrite of g that the recursions build."""
    yield remove_loops(g)[0]
    for i, (tail, head) in enumerate(g.arcs):
        yield delete_arcs(g, [i])
        if tail != head:
            yield contract_arc(g, i)
    for v in g.vertices:
        yield delete_out_arcs(g, v)
        if g.out_neighbors(v):
            yield contract_vertices(g, {v, *g.out_neighbors(v)})


def test_firing_table_matches_queries():
    hosts = _reachability_hosts() + tuple(h for g in corpus() for h in _rewrites(g))
    assert len(hosts) > 5000
    for g in hosts:
        # the arc list, counted afresh, is the reference for the integer form
        count = Counter(g.arcs)
        out, into = Counter(t for t, _ in g.arcs), Counter(h for _, h in g.arcs)
        for i, out_v, drop, neighbors in g._firing_table:
            v = g.vertices[i]
            assert out_v == g.outdeg(v) and drop == out_v - g.loops_at(v)
            assert [g.vertices[j] for j, _ in neighbors] == list(g.out_neighbors(v))
            assert all(m == g.multiplicity(v, g.vertices[j]) for j, m in neighbors)
            heads = tuple(j for j, u in enumerate(g.vertices) if u != v and count[v, u])
            tails = tuple(j for j, u in enumerate(g.vertices) if u != v and count[u, v])
            assert (g.outdeg(v), g.indeg(v), g.loops_at(v)) == (out[v], into[v], count[v, v])
            assert g.out_neighbors(v) == tuple(g.vertices[j] for j in heads)
            assert (g._successors[i], g._predecessors[i]) == (heads, tails)
            assert all(g.multiplicity(v, u) == count[v, u] for u in g.vertices)
        assert g.loop_count == sum(count[v, v] for v in g.vertices)
        balanced = all(out[v] == into[v] for v in g.vertices)
        assert is_eulerian(g) == (balanced and reference_weakly_connected(g))


def test_equal_graphs_built_separately_share_hash_and_cache_entries():
    first = parse_edge_list("p q\nq p\nq q\n")
    second = MultiDigraph.of([("p", "q"), ("q", "p"), ("q", "q")])
    assert first is not second and first == second
    assert hash(first) == hash(second) == hash((first.vertices, first.arcs))
    reordered = MultiDigraph.of([("q", "p"), ("p", "q"), ("q", "q")])
    assert reordered != first  # equality still compares vertex and arc order

    @lru_cache(maxsize=8)
    def token(g):
        return object()

    assert token(first) is token(second)
    assert token.cache_info().hits == 1 and token.cache_info().misses == 1


def test_memoized_bridge_test_matches_a_fresh_deletion_test():
    for g in corpus() + non_eulerian_corpus():
        for i, (tail, head) in enumerate(g.arcs):
            fresh = tail != head and not delete_arcs(g, [i]).is_strongly_connected()
            assert is_bridge(g, i) == fresh
            assert is_bridge(g, i) == fresh


def test_bridge_test_searches_each_single_arc_once(monkeypatch):
    searches = []
    real = graph._reach

    def counting(starts, *tables, skip=None):
        if skip is not None:
            searches.append(skip)
        return real(starts, *tables, skip=skip)

    monkeypatch.setattr(graph, "_reach", counting)
    graphs = tuple(dict.fromkeys(corpus()[:50]))
    for g in graphs:
        run_check("recursions", g)
    # the suite classifies each arc once; loops and parallel arcs need no search
    assert len(searches) == sum(
        1 for g in graphs for t, h in g.arcs if t != h and g.multiplicity(t, h) == 1
    )


def _reachability_hosts():
    """Both corpora and seeded strongly connected hosts, Eulerian or not, plus
    each with one arc deleted, which is often not strongly connected."""
    rng = random.Random(6021)
    seeded = tuple(random_strongly_connected(rng, 6, 14, eulerian=None) for _ in range(150))
    hosts = corpus() + non_eulerian_corpus() + seeded
    hosts += tuple(delete_arcs(g, [rng.randrange(g.n_arcs)]) for g in hosts)
    return hosts + tuple(random_digraph(rng) for _ in range(150))


def test_connectivity_matches_arc_list_reference():
    seen = set()
    for g in _reachability_hosts():
        strong, weak = reference_strongly_connected(g), reference_weakly_connected(g)
        assert g.is_strongly_connected() == strong
        assert g.is_weakly_connected() == weak
        for v in g.vertices:
            assert g.reachable_from(v) == reference_reached(g, v)
        seen.add((strong, weak))
    assert seen == {(True, True), (False, True), (False, False)}


def test_bridges_match_arc_list_reference():
    bridges = cuts = 0
    for g in _reachability_hosts():
        if not reference_strongly_connected(g):
            with pytest.raises(GraphError):
                is_bridge(g, 0)
            continue
        for i in range(g.n_arcs):
            expected = reference_is_bridge(g, i)
            assert is_bridge(g, i) == expected
            if not expected:
                continue
            bridges += 1
            cut = reference_bridge_cut_set(g, i)
            outward = sum(1 for t, h in g.arcs if t in cut and h not in cut)
            inward = sum(1 for t, h in g.arcs if t not in cut and h in cut)
            if outward == inward == 1:
                assert bridge_cut(g, i).cut_set == cut
                cuts += 1
            else:
                with pytest.raises(GraphError):
                    bridge_cut(g, i)
    assert bridges > 500 and cuts > 200
