import itertools
import random

import pytest

from chipfiring import (
    Configuration,
    ConfigurationError,
    GraphError,
    MultiDigraph,
    SettingError,
    SizeCapError,
    add,
    beta,
    contract_vertices,
    delete_arcs,
    enumerate_recurrents,
    fire,
    is_firable,
    is_minimal,
    is_minimum,
    is_recurrent,
    is_undirected,
    kappa,
    level,
    loop_lift,
    remove_loops,
    reverse_partner,
    stabilize,
    support_after_sink_fire,
)
from chipfiring.families import (
    bidirected_complete,
    directed_cycle,
    parallel_pair,
    random_eulerian,
    undirected_graph,
)
from chipfiring.recurrent import (
    _burning_script,
    _recurrent_vectors,
    bareiss_determinant,
    recurrent_count,
    reduced_laplacian,
)

from support import corpus, small_corpus

C3 = directed_cycle(["s", "a", "b"])
K3 = bidirected_complete(["s", "a", "b"])
BANANA = parallel_pair("u", "v", 2)


def cfg(g, sink, **chips):
    return Configuration.of(g, chips, sink=sink)


def test_bareiss_determinant():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[2, -1], [-1, 2]]) == 3
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    big = [[10**12, 1, 0], [3, 10**12, 7], [0, 5, 10**12]]
    # exactness on large entries: compare against cofactor expansion
    expected = (
        10**12 * (10**12 * 10**12 - 7 * 5)
        - 1 * (3 * 10**12 - 0)
    )
    assert bareiss_determinant(big) == expected


def test_reduced_laplacian_ignores_loops():
    loopy = MultiDigraph.of([("u", "v"), ("u", "v"), ("v", "u"), ("v", "u"), ("v", "v")])
    assert reduced_laplacian(loopy, "u") == [[2]]
    assert recurrent_count(loopy, "u") == 2


def test_is_recurrent_examples():
    assert is_recurrent(K3, "s", cfg(K3, "s", a=1))
    assert not is_recurrent(K3, "s", cfg(K3, "s"))
    assert is_recurrent(C3, "s", cfg(C3, "s"))
    with pytest.raises(ConfigurationError):
        is_recurrent(K3, "s", cfg(K3, "s", a=5))  # unstable
    with pytest.raises(GraphError):
        is_recurrent(MultiDigraph.of([("s", "a"), ("a", "b"), ("b", "s"), ("a", "s")]), "s", None)


def test_burning_script_is_one_sink_firing_on_eulerian_hosts():
    for g in corpus():
        for s in g.vertices:
            assert _burning_script(g, s) == (beta(g, s).chips, (1,) * (g.n_vertices - 1))


def test_enumerate_examples():
    rs = enumerate_recurrents(C3, "s")
    assert len(rs) == 1 and rs.sums == (1,)
    rs = enumerate_recurrents(K3, "s")
    assert sorted(rs.sums) == [3, 3, 4]
    assert [c.as_dict() for c in rs.configs] == [
        {"a": 0, "b": 1},
        {"a": 1, "b": 0},
        {"a": 1, "b": 1},
    ]  # lexicographic order
    rs = enumerate_recurrents(BANANA, "u")
    assert [c.as_dict() for c in rs.configs] == [{"v": 0}, {"v": 1}]
    assert rs.sums == (2, 3)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("CFG_CAP_CELLS", "1")
    from chipfiring.recurrent import _recurrent_vectors

    _recurrent_vectors.cache_clear()
    with pytest.raises(SizeCapError, match="smaller instance"):
        enumerate_recurrents(K3, "s")
    monkeypatch.delenv("CFG_CAP_CELLS")
    _recurrent_vectors.cache_clear()


def _burns_by_single_firings(g, s, combo):
    """Burning test through single ``fire`` calls, independent of the firing kernel."""
    c = add(Configuration(g, s, combo), beta(g, s))
    while True:
        firable = [v for v in c.domain if is_firable(g, c, v)]
        if not firable:
            return c.chips == combo
        c = fire(g, c, firable[0])


def test_enumeration_matches_single_firing_burning_test():
    cells = 0
    for g in corpus():
        for s in g.vertices:
            cube = itertools.product(*(range(g.outdeg(v)) for v in g.vertices if v != s))
            expected = []
            for combo in cube:
                cells += 1
                if _burns_by_single_firings(g, s, combo):
                    expected.append(combo)
            assert _recurrent_vectors(g, s) == tuple(expected)
    assert cells == 7_753


def _reverse_search_hosts():
    grid = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    banana = [(i, i + 1) for i in range(3) for _ in range(3)]
    hosts = [
        bidirected_complete([f"k{i}" for i in range(5)]),
        undirected_graph(6, grid),
        undirected_graph(4, banana),
    ]
    rng = random.Random(31)
    looped = []
    while len(looped) < 4:
        g = random_eulerian(rng, 6, 14, True)
        if g.n_vertices >= 5 and g.loop_count and not is_undirected(g):
            looped.append(g)
    return hosts + looped


def test_reverse_search_matches_cube_scan(monkeypatch):
    import chipfiring.recurrent as recurrent

    runs = [0]
    settle = recurrent._settle

    def counting(chips, movers):
        runs[0] += 1
        return settle(chips, movers)

    monkeypatch.setattr(recurrent, "_settle", counting)
    for g in _reverse_search_hosts():
        for s in g.vertices:
            cube = list(itertools.product(*(range(g.outdeg(v)) for v in g.vertices if v != s)))
            expected = tuple(combo for combo in cube if _burns_by_single_firings(g, s, combo))
            _recurrent_vectors.cache_clear()
            runs[0] = 0
            assert _recurrent_vectors(g, s) == expected
            assert runs[0] <= 1 + len(expected) * (g.n_vertices - 1)
            assert runs[0] < len(cube)
    _recurrent_vectors.cache_clear()


def test_kappa_examples():
    assert kappa(C3) == 1
    assert kappa(K3) == 3 == K3.n_arcs // 2
    assert kappa(BANANA) == 2 == BANANA.n_arcs // 2


def test_kappa_checks_cap_on_cached_hosts(monkeypatch):
    monkeypatch.delenv("CFG_CAP_CELLS", raising=False)
    looped = MultiDigraph.of([("s", "a"), ("a", "s"), ("a", "a"), ("s", "s")])
    assert kappa(looped) == 1  # now cached; the loopless host's cube at sink s has one cell
    monkeypatch.setenv("CFG_CAP_CELLS", "1")
    assert kappa(looped) == 1
    refused = bidirected_complete(["p", "q", "r"])
    monkeypatch.delenv("CFG_CAP_CELLS")
    assert kappa(refused) == 3  # now cached; its cube at sink p has 4 cells
    monkeypatch.setenv("CFG_CAP_CELLS", "3")
    with pytest.raises(SizeCapError):
        kappa(refused)
    monkeypatch.setenv("CFG_CAP_CELLS", "abc")
    with pytest.raises(SettingError):
        kappa(looped)


def test_kappa_sink_independent_and_undirected_formula():
    from chipfiring import is_undirected

    for g in corpus()[:50]:
        bare, _ = remove_loops(g)
        values = set()
        for s in g.vertices:
            rs = enumerate_recurrents(bare, s)
            values.add(min(rs.sums))
        assert values == {kappa(g)}
        if is_undirected(g):
            assert kappa(g) == bare.n_arcs // 2


def test_level_examples():
    assert level(C3, "s", cfg(C3, "s")) == 0
    assert level(K3, "s", cfg(K3, "s", a=1, b=1)) == 1
    assert level(BANANA, "u", cfg(BANANA, "u", v=1)) == 1
    with pytest.raises(ConfigurationError):
        level(K3, "s", cfg(K3, "s"))


def test_loop_lift():
    loopy = MultiDigraph.of([("u", "v"), ("u", "v"), ("v", "u"), ("v", "u"), ("v", "v")])
    bare, _ = remove_loops(loopy)
    for raw, lifted in [(0, 1), (1, 2)]:
        base = cfg(bare, "u", v=raw)
        image = loop_lift(loopy, "u", base)
        assert image.as_dict() == {"v": lifted}
        assert is_recurrent(loopy, "u", image)
    assert loop_lift(C3, "s", cfg(C3, "s")).chips == (0, 0)
    with pytest.raises(ConfigurationError):
        loop_lift(loopy, "u", cfg(bare, "u", v=5))


def test_loop_lift_is_bijection_over_corpus():
    for g in corpus()[:40]:
        if g.loop_count == 0:
            continue
        bare, _ = remove_loops(g)
        s = g.vertices[0]
        bare_set = enumerate_recurrents(bare, s)
        full_set = enumerate_recurrents(g, s)
        images = sorted(loop_lift(g, s, c).chips for c in bare_set.configs)
        assert images == sorted(c.chips for c in full_set.configs)
        shift = sum(g.loops_at(v) for v in g.vertices if v != s)
        assert sorted(c.total() + shift for c in bare_set.configs) == sorted(
            c.total() for c in full_set.configs
        )


def test_support_after_sink_fire():
    assert support_after_sink_fire(K3, "s", cfg(K3, "s", a=1, b=1)) == {"a", "b"}
    assert support_after_sink_fire(K3, "s", cfg(K3, "s", a=1)) == {"a"}
    assert support_after_sink_fire(C3, "s", cfg(C3, "s")) == {"a"}


def test_support_never_empty_for_recurrents():
    for g in corpus()[:40]:
        for s in g.vertices:
            for c in enumerate_recurrents(g, s).configs:
                assert support_after_sink_fire(g, s, c)


def test_minimal_minimum():
    rs = enumerate_recurrents(K3, "s")
    assert is_minimal(rs, cfg(K3, "s", a=1)) and is_minimum(rs, cfg(K3, "s", a=1))
    assert not is_minimal(rs, cfg(K3, "s", a=1, b=1))
    with pytest.raises(ConfigurationError):
        is_minimal(rs, cfg(K3, "s"))
    for g in corpus()[:30]:
        rs = enumerate_recurrents(g, g.vertices[0])
        for c in rs.configs:
            if is_minimum(rs, c):
                assert is_minimal(rs, c)


def test_minimal_flags_match_pointwise_definition():
    for g in corpus():
        for s in g.vertices:
            rs = enumerate_recurrents(g, s)
            expected = tuple(
                not any(d != c and d.leq(c) for d in rs.configs) for c in rs.configs
            )
            assert rs.minimal_flags == expected
            assert tuple(is_minimal(rs, c) for c in rs.configs) == expected


def test_count_matches_determinant_and_burning_uniqueness():
    for g in corpus()[:60]:
        for s in g.vertices:
            rs = enumerate_recurrents(g, s)
            assert len(rs) == recurrent_count(g, s)
            for c in rs.configs:
                _, record = stabilize(g, add(c, beta(g, s)))
                assert all(record.count(v) == 1 for v in c.domain)


def test_large_configuration_stabilizes_to_recurrent():
    rng = random.Random(5)
    for g in small_corpus()[:40]:
        s = g.vertices[rng.randrange(g.n_vertices)]
        saturated = Configuration.of(
            g,
            {v: g.outdeg(v) - 1 + rng.randrange(0, 3) for v in g.vertices if v != s},
            sink=s,
        )
        stable, _ = stabilize(g, saturated)
        assert is_recurrent(g, s, stable)


def _window_product(g, s, w):
    ranges = [
        range(g.outdeg(v) - g.multiplicity(s, v), g.outdeg(v)) for v in w
    ]
    return itertools.product(*ranges)


def test_contraction_restriction_bijection():
    # restriction/extension between the recurrents of g and of the contraction
    # g/(W+{s}), over the stated chip windows
    for g in small_corpus()[:25]:
        for s in g.vertices:
            neighbors = g.out_neighbors(s)
            rs = enumerate_recurrents(g, s)
            for r in range(1, len(neighbors) + 1):
                for w in itertools.combinations(neighbors, r):
                    merged = contract_vertices(g, set(w) | {s})
                    new_sink = "+".join(sorted({s} | set(w)))
                    rs_merged = enumerate_recurrents(merged, new_sink)
                    window = {
                        v: range(g.outdeg(v) - g.multiplicity(s, v), g.outdeg(v)) for v in w
                    }
                    # forward: high-on-w recurrents restrict to merged recurrents
                    outer = [v for v in g.vertices if v != s and v not in w]
                    restricted = set()
                    for c in rs.configs:
                        if all(c.chip(v) in window[v] for v in w):
                            restricted.add(tuple(c.chip(v) for v in outer))
                    merged_vectors = {
                        tuple(c.chip(v) for v in outer) for c in rs_merged.configs
                    }
                    assert restricted == merged_vectors
                    # backward: every extension over the windows is recurrent
                    expected_high = sum(
                        1 for _ in _window_product(g, s, w)
                    ) * len(rs_merged)
                    actual_high = sum(
                        1
                        for c in rs.configs
                        if all(c.chip(v) in window[v] for v in w)
                    )
                    assert actual_high == expected_high


def test_reverse_pair_deletion_keeps_low_recurrents():
    # dropping a reverse pair at the sink keeps exactly the low-chip recurrents
    for g in small_corpus()[:30]:
        for s in g.vertices:
            for i, (tail, head) in enumerate(g.arcs):
                if tail != s or head == s:
                    continue
                partner = reverse_partner(g, i)
                if partner is None:
                    continue
                h = delete_arcs(g, [i, partner])
                if not h.is_weakly_connected():
                    continue
                w = head
                rs = enumerate_recurrents(g, s)
                low = sorted(c.chips for c in rs.configs if c.chip(w) < g.outdeg(w) - 1)
                rs_h = enumerate_recurrents(h, s)
                assert low == sorted(c.chips for c in rs_h.configs)
                break


def test_recurrent_set_json_shape():
    rs = enumerate_recurrents(K3, "s")
    data = rs.to_json_dict()
    assert data["sink"] == "s" and data["kappa"] == 3
    assert data["configs"][0] == {"chips": {"a": 0, "b": 1}, "sum": 3, "level": 0}
    vectors = [tuple(c["chips"][v] for v in ("a", "b")) for c in data["configs"]]
    assert vectors == sorted(vectors)
