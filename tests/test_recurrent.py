import itertools
import random

import pytest

from chipfiring import (
    Configuration,
    ConfigurationError,
    GraphError,
    MultiDigraph,
    SizeCapError,
    add,
    beta,
    contract_vertices,
    delete_arcs,
    enumerate_recurrents,
    fire,
    is_eulerian,
    is_firable,
    is_recurrent,
    is_undirected,
    kappa,
    level,
    remove_loops,
    reverse_partner,
    stabilize,
)
from chipfiring.checks import _covers
from chipfiring.families import random_eulerian, random_strongly_connected
from chipfiring.oracles import brute_recurrents, recurrent_definitional_test
from chipfiring.polynomial import LaurentPolynomial
from chipfiring.recurrent import (
    _burning_script,
    _game,
    _recurrent_vectors,
    bareiss_determinant,
    reduced_laplacian,
)

import support
from support import (
    bidirected_complete,
    cell_cap,
    corpus,
    determinant_count,
    directed_cycle,
    is_minimal,
    is_minimum,
    loop_lift,
    member_index,
    non_eulerian_corpus,
    parallel_pair,
    recurrent_vectors,
    reference_covers,
    reference_min_feedback_arc_set,
    reference_minimal_flags,
    small_corpus,
    support_after_sink_fire,
    undirected_graph,
    unpack,
)

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
    assert determinant_count(loopy, "u") == 2


def test_is_recurrent_examples():
    assert is_recurrent(K3, "s", cfg(K3, "s", a=1))
    assert not is_recurrent(K3, "s", cfg(K3, "s"))
    assert is_recurrent(C3, "s", cfg(C3, "s"))
    with pytest.raises(ConfigurationError):
        is_recurrent(K3, "s", cfg(K3, "s", a=5))  # unstable
    with pytest.raises(GraphError):  # b cannot reach s
        is_recurrent(MultiDigraph.of([("s", "a"), ("a", "b"), ("b", "a")]), "s", None)


def test_is_recurrent_on_strongly_connected_hosts_matches_enumeration_and_definition():
    rng = random.Random(5)
    cells = 0
    for _ in range(200):
        g = random_strongly_connected(rng, 4, 10)
        looped = MultiDigraph(g.vertices, g.arcs + tuple((v, v) for v in g.vertices[::2]))
        for s in g.vertices:
            members = set(recurrent_vectors(g, s))
            for cell in itertools.product(*(range(g.outdeg(v)) for v in g.vertices if v != s)):
                cells += 1
                c = Configuration(g, s, cell)
                assert is_recurrent(g, s, c) == (cell in members)
                assert is_recurrent(g, s, c) == recurrent_definitional_test(g, s, c)
            lifted = sorted(loop_lift(looped, s, Configuration(g, s, vec)).chips for vec in members)
            assert lifted == list(recurrent_vectors(looped, s))
    assert cells == 3_137


def test_burning_script_is_one_sink_firing_on_eulerian_hosts():
    for g in corpus():
        for s in g.vertices:
            expected = (beta(g, s).chips, (1,) * (g.n_vertices - 1))
            assert _burning_script(reduced_laplacian(g, s)) == expected


def test_enumerate_examples():
    rs = enumerate_recurrents(C3, "s")
    assert len(rs) == 1 and tuple(rs.sums) == (1,)
    rs = enumerate_recurrents(K3, "s")
    assert sorted(rs.sums) == [3, 3, 4]
    assert [c.as_dict() for c in rs.configs] == [
        {"a": 0, "b": 1},
        {"a": 1, "b": 0},
        {"a": 1, "b": 1},
    ]  # lexicographic order
    rs = enumerate_recurrents(BANANA, "u")
    assert [c.as_dict() for c in rs.configs] == [{"v": 0}, {"v": 1}]
    assert tuple(rs.sums) == (2, 3)


def test_enumeration_cap():
    _recurrent_vectors.cache_clear()
    with cell_cap(1), pytest.raises(SizeCapError, match="smaller instance"):
        enumerate_recurrents(K3, "s")
    _recurrent_vectors.cache_clear()


def test_enumeration_checks_kappas_cap_before_it_enumerates():
    # a pendant first vertex on K7: kappa's cube (326,592 cells at v0) is above
    # the cap, the sink's (54,432 at k1) is not, and k1's game is never listed
    k7 = [(f"k{i}", f"k{j}") for i in range(7) for j in range(7) if i != j]
    g = MultiDigraph.of([("v0", "k0"), ("k0", "v0"), *k7])
    _game.cache_clear()
    with cell_cap(100_000), pytest.raises(SizeCapError, match="has 326592 cells"):
        enumerate_recurrents(g, "k1")
    assert "found" not in vars(_game(g, g.vertex_index("k1")))
    _game.cache_clear()


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
            assert recurrent_vectors(g, s) == tuple(expected)
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
        g = random_eulerian(rng, 6, 14)
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
            assert recurrent_vectors(g, s) == expected
            assert runs[0] <= 1 + len(expected) * (g.n_vertices - 1)
            assert runs[0] < len(cube)
    _recurrent_vectors.cache_clear()


def test_packed_record_matches_tuple_definitions():
    # Eulerian corpus hosts and looped hosts against a single-firing burn of
    # every cube cell; non-Eulerian strongly connected hosts, where Speer's
    # script is not all ones, against the definitional oracle
    eulerian = corpus() + tuple(h for h in _reverse_search_hosts() if h.loop_count)
    hosts = [(g, True) for g in eulerian] + [(g, False) for g in non_eulerian_corpus()]
    members = scripts_above_one = 0
    for g, dhar in hosts:
        for s in g.vertices:
            bounds = [g.outdeg(v) for v in g.vertices if v != s]
            cube = list(itertools.product(*map(range, bounds)))
            if dhar:
                expected = tuple(cell for cell in cube if _burns_by_single_firings(g, s, cell))
            else:
                expected = tuple(c.chips for c in brute_recurrents(g, s))
            packed = support.members(_recurrent_vectors(g, s))
            assert list(packed) == sorted(packed) and unpack(g, s, packed) == expected
            rs = _game(g, g.vertex_index(s))
            assert tuple(rs.decode()) == expected and len(rs) == len(expected)
            assert list(rs.sums) == [g.outdeg(s) + sum(vec) for vec in expected]
            positions = {vec: i for i, vec in enumerate(expected)}
            # and unstable cells whose digit t, at or above its bound, would
            # carry into digit t - 1 of a member's index
            carries = [
                vec[:t] + (vec[t] + bounds[t],) + vec[t + 1 :]
                for vec in expected
                for t in range(1, len(vec))
            ]
            for cell in cube + carries:
                assert member_index(rs, Configuration(g, s, cell)) == positions.get(cell)
            covers, minimal = _covers(tuple(rs.decode()), positions)
            assert tuple(covers) == reference_covers(expected)
            assert tuple(minimal) == reference_minimal_flags(expected)
            members += len(expected)
            scripts_above_one += max(rs.burner[2]) > 1
    assert members == 5_134 and scripts_above_one == 62


def test_length_is_the_determinant_and_counts_the_member_map():
    # len(rs) reads the determinant ``count``, which the search checks against
    # the members it writes; the map's nonzero cells are those members
    for g in small_corpus() + corpus() + non_eulerian_corpus():
        for s in g.vertices:
            rs = _recurrent_vectors(g, s)
            assert len(rs) == rs.count == len(support.members(rs)) == sum(map(bool, rs.found))


@pytest.mark.parametrize(
    "m, loop, top, code",
    [
        (128, False, 255, "B"),
        (128, True, 256, "H"),
        (32_768, False, 65_535, "H"),
        (32_768, True, 65_536, "Q"),
    ],
)
def test_narrow_types_at_their_boundaries(m, loop, top, code):
    # bananas whose top sum sits on either side of 255 and 65,535, where the
    # record's arrays widen from one byte to two and from two bytes to eight
    g = parallel_pair("s", "a", m)
    if loop:
        g = MultiDigraph.of(g.arcs + (("s", "s"),), g.vertices)
    for sink in g.vertices:
        rs = enumerate_recurrents(g, sink)
        vectors = list(rs.decode())
        assert len(vectors) == len(rs) == m and vectors == list(unpack(g, sink, support.members(rs)))
        expected = [g.outdeg(sink) + sum(vec) for vec in vectors]
        assert list(rs.sums) == expected and list(rs.levels()) == [x - rs.kappa for x in expected]
        assert rs.sums.typecode == code
        assert max(rs.sums) == top and rs.sums[-1] == top  # the top cell's sum, held exactly


def test_kappa_examples():
    assert kappa(C3) == 1
    assert kappa(K3) == 3 == K3.n_arcs // 2
    assert kappa(BANANA) == 2 == BANANA.n_arcs // 2


def test_kappa_checks_cap_on_cached_hosts():
    looped = MultiDigraph.of([("s", "a"), ("a", "s"), ("a", "a"), ("s", "s")])
    assert kappa(looped) == 1  # now cached; the host's own cube at sink s has two cells
    with cell_cap(2):
        assert kappa(looped) == 1
    with cell_cap(1), pytest.raises(SizeCapError):
        kappa(looped)
    refused = bidirected_complete(["p", "q", "r"])
    assert kappa(refused) == 3  # now cached; its cube at sink p has 4 cells
    with cell_cap(3), pytest.raises(SizeCapError):
        kappa(refused)


def test_cube_size_computed_once_per_game(monkeypatch):
    from chipfiring import recurrent

    looped = MultiDigraph.of([("p", "q"), ("q", "p"), ("q", "r"), ("r", "q"), ("q", "q")])
    bare, _ = remove_loops(looped)
    recurrent._checked_game(looped, "p")
    assert kappa(looped) == 2
    assert recurrent._game(looped, 0).cells == 3 and recurrent._game(bare, 0).cells == 2

    def refuse(cells):
        raise AssertionError("cube size recomputed")

    monkeypatch.setattr(recurrent.math, "prod", refuse)
    recurrent._checked_game(looped, "p")
    with cell_cap(2):  # the cap is still read on every call
        with pytest.raises(SizeCapError):
            recurrent._checked_game(looped, "p")
        with pytest.raises(SizeCapError):
            enumerate_recurrents(looped, "p")
        with pytest.raises(SizeCapError):
            kappa(looped)  # kappa's cube is the host's own at p, 3 cells
    with cell_cap(3):
        assert kappa(looped) == 2


def test_enumeration_returns_one_record_per_game():
    looped = MultiDigraph.of([("p", "q"), ("q", "p"), ("q", "q")])
    for g, s in ((K3, "a"), (looped, "q")):
        rs = enumerate_recurrents(g, s)
        assert enumerate_recurrents(g, s) is rs
        assert rs.found is enumerate_recurrents(g, s).found


def test_kappa_sink_independent_and_undirected_formula():
    from chipfiring import is_undirected

    # the loopless host enumerated at every sink is the reference for kappa,
    # which reads the looped host's own game
    for g in corpus() + tuple(h for h in _reverse_search_hosts() if h.loop_count):
        bare, _ = remove_loops(g)
        values = set()
        for s in g.vertices:
            rs = enumerate_recurrents(bare, s)
            values.add(min(rs.sums))
        assert values == {kappa(g)}
        if is_undirected(g):
            assert kappa(g) == bare.n_arcs // 2


def test_looped_host_enumerates_one_game_for_its_first_sink():
    from chipfiring import recurrent

    looped = MultiDigraph.of([("p", "q"), ("q", "p"), ("q", "r"), ("r", "q"), ("r", "r")])
    recurrent._game.cache_clear()
    enumerate_recurrents(looped, "p")
    assert recurrent._game.cache_info().misses == 1
    recurrent._game.cache_clear()


def test_level_check_refuses_a_kappa_off_by_one(monkeypatch):
    from chipfiring import InternalCheckError, recurrent

    looped = MultiDigraph.of([("p", "q"), ("q", "p"), ("q", "r"), ("r", "q"), ("r", "r")])
    real = recurrent.kappa
    try:
        for off in (-1, 1):
            monkeypatch.setattr(recurrent, "kappa", lambda g, off=off: real(g) + off)
            recurrent._game.cache_clear()
            for g in (looped, K3, BANANA):
                for s in g.vertices:
                    with pytest.raises(InternalCheckError, match="^lowest level is not the loop count"):
                        enumerate_recurrents(g, s)
        host = non_eulerian_corpus()[0]
        rs = recurrent.RecurrentSet(host, host.vertices[0])
        with pytest.raises(GraphError):
            rs.kappa
        assert "found" not in vars(rs)  # refused before any enumeration
    finally:
        recurrent._game.cache_clear()


def test_records_keep_no_levels_and_no_burning_copy():
    from chipfiring.checks import run_check

    _game.cache_clear()
    try:
        assert run_check("theta", K6).ok and run_check("burning-uniqueness", K6).ok
        records = [vars(_game(K6, i)) for i in range(K6.n_vertices)]
        assert all("found" in held for held in records)
        assert not any("levels" in held or "_burning" in held for held in records)
    finally:
        _game.cache_clear()


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


def test_membership_requires_the_same_host():
    rs = enumerate_recurrents(K3, "s")
    stranger = Configuration(C3, "s", (1, 1))
    assert member_index(rs, stranger) is None
    assert member_index(rs, Configuration(K3, "s", (1, 1))) is not None
    with pytest.raises(ConfigurationError):
        is_minimum(rs, stranger)


def test_minimal_flags_match_pointwise_definition():
    for g in corpus():
        for s in g.vertices:
            rs = enumerate_recurrents(g, s)
            expected = tuple(
                not any(d != c and d.leq(c) for d in rs.configs) for c in rs.configs
            )
            vectors = tuple(rs.decode())
            _, minimal = _covers(vectors, {vec: j for j, vec in enumerate(vectors)})
            assert tuple(minimal) == expected
            assert tuple(is_minimal(rs, c) for c in rs.configs) == expected


def test_minimal_flags_match_pairwise_scan():
    rng = random.Random(8128)
    members = 0
    for g in corpus() + tuple(random_eulerian(rng, 6, 16) for _ in range(150)):
        for s in g.vertices:
            rs = enumerate_recurrents(g, s)
            vectors = tuple(rs.decode())
            _, minimal = _covers(vectors, {vec: j for j, vec in enumerate(vectors)})
            assert tuple(minimal) == reference_minimal_flags(vectors)
            members += len(rs)
    assert members > 10_000


def test_count_matches_determinant_and_burning_uniqueness():
    for g in corpus()[:60]:
        for s in g.vertices:
            rs = enumerate_recurrents(g, s)
            assert len(rs) == determinant_count(g, s)
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


K6 = bidirected_complete([f"k{i}" for i in range(6)])  # 1,296 members at every sink


def _kernel_hosts():
    """Seeded Eulerian hosts with loops and parallel arcs, and strongly connected
    non-Eulerian hosts, where Speer's script may exceed 1."""
    rng = random.Random(2026)
    eulerian = []
    while len(eulerian) < 30:
        g = random_eulerian(rng, 7, 24)
        if g.loop_count and len(set(g.arcs)) < g.n_arcs:
            eulerian.append(g)
    larger = [random_strongly_connected(rng, 5, 16) for _ in range(10)]
    return eulerian + larger + list(non_eulerian_corpus()[:40])


def _search_args(rs):
    """``_search_source``'s arguments for a record: integers only."""
    return rs.movers, *rs.burner[1:], rs.weights, tuple(out - 1 for out in rs.bounds)


def _block_kernel(movers, b):
    """``_burn_lines``' block wrapped as ``burner``'s ``burn``: the firing counts by
    domain position when the run returns the cell, else None."""
    from chipfiring import recurrent

    def names(prefix):
        return "".join(f"{prefix}{v}, " for v in range(len(b)))

    source = "\n    ".join(
        [
            "def burn(cell):",
            f"({names('c')}) = cell",
            *recurrent._burn_lines(movers, b),
            f"return [{names('n')}] if ({names('c')}) == cell else None\n",
        ]
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["burn"]


def test_compiled_kernel_matches_the_generic_burn(monkeypatch):
    from chipfiring import recurrent

    def refuse(chips, movers):
        raise AssertionError("the compiled path ran the generic kernel")

    generic_settle, cells, scripts_above_one = recurrent._settle, 0, 0
    for g in _kernel_hosts():
        # names that would break the source if they entered it; indices stay the same
        hostile = {v: f"{v}); import os #" for v in g.vertices}
        renamed = MultiDigraph.of([(hostile[t], hostile[h]) for t, h in g.arcs], hostile.values())
        for s in g.vertices:
            monkeypatch.setattr(recurrent, "KERNEL_MIN_MEMBERS", float("inf"))
            generic = recurrent.RecurrentSet(g, s)
            generic.found
            monkeypatch.setattr(recurrent, "KERNEL_MIN_MEMBERS", 0)
            monkeypatch.setattr(recurrent, "_settle", refuse)
            compiled = recurrent.RecurrentSet(renamed, hostile[s])
            assert compiled.found == generic.found
            monkeypatch.setattr(recurrent, "_settle", generic_settle)
            assert support.members(compiled) == support.members(generic)
            assert compiled.sums == generic.sums
            if is_eulerian(g):
                assert list(compiled.levels()) == list(generic.levels())
            source = recurrent._search_source(*_search_args(compiled))
            assert not any(name in source for name in hostile.values())
            assert source == recurrent._search_source(*_search_args(generic))
            kernel = _block_kernel(compiled.movers, compiled.burner[1])
            burn, _, script = generic.burner
            for cell in itertools.product(*map(range, generic.bounds)):
                assert kernel(cell) == burn(cell)
                cells += 1
            scripts_above_one += max(script) > 1
    assert cells == 32_613 and scripts_above_one == 33


def test_search_source_holds_only_fixed_names_and_integer_literals():
    import io
    import tokenize

    from chipfiring import recurrent

    fixed = {
        "def", "search", "found", "members", "stack", "pop", "push", "append", "while", "if",
        "cell", "i", "mark", "more", "k", "continue", "raise", "return", "True", "False",
        "InternalCheckError",
    }  # fmt: skip
    games = [K6] + list(_kernel_hosts()[::4])
    for g in games:
        allowed = fixed | {f"{p}{v}" for p in "cn" for v in range(g.n_vertices - 1)}
        for s in g.vertices:
            source = recurrent._search_source(*_search_args(recurrent.RecurrentSet(g, s)))
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
            names = {t.string for t in tokens if t.type == tokenize.NAME}
            numbers = [t.string for t in tokens if t.type == tokenize.NUMBER]
            strings = {t.string for t in tokens if t.type == tokenize.STRING}
            assert names <= allowed, names - allowed
            assert all(n.isdecimal() and str(int(n)) == n for n in numbers)
            assert strings == {'"burning run did not fire its burning script"'}


def _spoiled_block(spoil):
    """``_burn_lines`` whose block ends with ``spoil`` on every burn made while the
    search has found exactly one member, so the second member's run is spoiled."""
    from chipfiring import recurrent

    real = recurrent._burn_lines

    def burn_lines(movers, b):
        return [*real(movers, b), "if members == 1:", f"    {spoil}"]

    return burn_lines


def test_found_refuses_a_compiled_run_that_fires_a_vertex_twice(monkeypatch):
    from chipfiring import InternalCheckError, recurrent

    monkeypatch.setattr(recurrent, "_burn_lines", _spoiled_block("n2 += 1"))
    rs = recurrent.RecurrentSet(K6, "k0")
    assert rs.count >= recurrent.KERNEL_MIN_MEMBERS
    with pytest.raises(InternalCheckError, match="^burning run did not fire its burning script$"):
        rs.found


def test_found_refuses_a_compiled_kernel_that_rejects_a_member(monkeypatch):
    from chipfiring import InternalCheckError, recurrent

    monkeypatch.setattr(recurrent, "_burn_lines", _spoiled_block("c0 = -1"))
    rs = recurrent.RecurrentSet(K6, "k0")
    assert rs.count >= recurrent.KERNEL_MIN_MEMBERS
    with pytest.raises(InternalCheckError, match="determinant predicts 1296$"):
        rs.found


def _bipartite(m: int) -> MultiDigraph:
    """K_{2,m} with each edge both ways: a wide frontier whose vertices are never
    full while the other hub is unburnt, so the burnt-set recursion's terms per
    member grow like 1.5^m."""
    edges = [(a, f"b{j}") for a in ("a0", "a1") for j in range(m)]
    return MultiDigraph.of(edges + [(h, t) for t, h in edges])


def test_burnt_set_recursion_matches_the_enumerated_sums(monkeypatch):
    from chipfiring import recurrent

    # the recursion runs to the end on every game here, whatever its terms
    monkeypatch.setattr(recurrent, "RECURSION_TERMS_PER_MEMBER", float("inf"))
    looped = tuple(g for g in _kernel_hosts() if is_eulerian(g))  # loops and parallel arcs
    games = 0
    for g in corpus() + small_corpus() + looped:
        for s in g.vertices:
            rs = recurrent.RecurrentSet(g, s)
            assert rs.sum_polynomial and "found" not in vars(rs)
            assert rs.sum_polynomial == LaurentPolynomial((total, 1) for total in rs.sums)
            games += 1
    assert games == 1_385


def test_a_wide_frontier_falls_back_to_the_enumerated_sums(monkeypatch):
    from chipfiring import recurrent

    g = _bipartite(7)  # 9.2 terms per member at a hub, 6.2 at a leaf
    fallback = {s: recurrent.RecurrentSet(g, s) for s in ("a0", "b0")}
    for rs in fallback.values():
        assert rs.sum_polynomial and "found" in vars(rs)  # past the budget: enumerated
    monkeypatch.setattr(recurrent, "RECURSION_TERMS_PER_MEMBER", 10)
    for s, rs in fallback.items():
        recursion = recurrent.RecurrentSet(g, s)
        assert recursion.sum_polynomial == rs.sum_polynomial and "found" not in vars(recursion)


def test_burnt_set_recursion_refuses_a_count_off_the_determinant(monkeypatch):
    from chipfiring import InternalCheckError, recurrent

    real = recurrent._geometric
    # [2]_q spoiled to [3]_q: every term through a vertex fed twice by B
    monkeypatch.setattr(recurrent, "_geometric", lambda d, width: real(d + (d == 2), width))
    rs = recurrent.RecurrentSet(K6, "k0")
    with pytest.raises(InternalCheckError, match="determinant predicts 1296$"):
        rs.sum_polynomial
    assert "found" not in vars(rs)


def test_kappa_is_the_minimum_feedback_arc_set():
    rng = random.Random(5150)
    hosts = 0
    _game.cache_clear()  # no record enumerated by an earlier test
    while hosts < 80:
        g = random_eulerian(rng, 7, 20)
        if g.loop_count:
            continue
        assert kappa(g) == reference_min_feedback_arc_set(g)
        assert "found" not in vars(_game(g, 0))  # read off the recursion
        hosts += 1
    _game.cache_clear()


def test_enumeration_at_another_sink_fills_one_member_map():
    from chipfiring import recurrent

    k8 = bidirected_complete([f"v{i}" for i in range(8)])
    recurrent._game.cache_clear()
    try:
        rs = enumerate_recurrents(k8, "v1")
        assert len(rs) == 262_144 and rs.kappa == 28 == min(rs.levels()) + 28
        filled = [v for i, v in enumerate(k8.vertices) if "found" in vars(_game(k8, i))]
        assert filled == ["v1"]  # kappa came from v0's recursion, not its member map
    finally:
        recurrent._game.cache_clear()
