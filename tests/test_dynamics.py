import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chipfiring import (
    Configuration,
    ConfigurationError,
    FiringError,
    MultiDigraph,
    NonTerminationError,
    add,
    augment_sink,
    beta,
    fire,
    is_firable,
    parse_config_literal,
    restrict,
    stabilize,
)
from chipfiring.dynamics import _game_rows, _movers
from chipfiring.families import random_eulerian

from support import (
    bidirected_complete,
    corpus,
    delete_out_arcs,
    directed_cycle,
    non_eulerian_corpus,
    parallel_pair,
    random_digraph,
    reference_reached,
)

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

C3 = directed_cycle(["s", "a", "b"])
K3 = bidirected_complete(["s", "a", "b"])


def cfg(g, sink, **chips):
    return Configuration.of(g, chips, sink=sink)


def test_configuration_validation():
    with pytest.raises(ConfigurationError):
        Configuration(C3, "s", (1,))
    with pytest.raises(ConfigurationError):
        Configuration(C3, "s", (1, -1))
    with pytest.raises(ConfigurationError):
        Configuration.of(C3, {"s": 1}, sink="s")
    # counts are ints as given: neither coerced nor taken as booleans
    for count in (2.7, "3", True, False):
        with pytest.raises(ConfigurationError, match="'a' must be a nonnegative integer"):
            Configuration.of(C3, {"a": count}, sink="s")
        with pytest.raises(ConfigurationError, match="'a' must be a nonnegative integer"):
            Configuration(C3, "s", (count, 0))
    c = cfg(C3, "s", a=1)
    assert c.chip("a") == 1 and c.chip("b") == 0
    assert c.domain == ("a", "b") and Configuration.zeros(C3).domain == C3.vertices
    for v in ("s", "zzz"):  # the sink, then a vertex the host does not have
        with pytest.raises(ConfigurationError, match="not in the configuration domain"):
            c.chip(v)


def test_is_firable_examples():
    assert is_firable(K3, cfg(K3, "s", a=2), "a")
    assert not is_firable(K3, cfg(K3, "s", a=1), "a")
    loops = MultiDigraph.of([("v", "v")] * 3 + [("s", "v"), ("v", "s")])
    # outdeg(v) = 4 but three loops; needs 4 chips, 5 is enough
    assert is_firable(loops, cfg(loops, "s", v=5), "v")
    all_loops = MultiDigraph.of([("v", "v")] * 3, ["v", "s"])
    assert not is_firable(all_loops, cfg(all_loops, "s", v=5), "v")
    with pytest.raises(ConfigurationError):
        is_firable(K3, cfg(K3, "s"), "s")


def test_fire_examples():
    assert fire(C3, cfg(C3, "s", a=1), "a").as_dict() == {"a": 0, "b": 1}
    assert fire(C3, cfg(C3, "s", b=1), "b").as_dict() == {"a": 0, "b": 0}
    assert fire(K3, cfg(K3, "s", a=2, b=1), "a").as_dict() == {"a": 0, "b": 2}
    with pytest.raises(FiringError):
        fire(C3, cfg(C3, "s"), "a")
    # the sink sits between the other two vertices; loops and parallel arcs on both
    g = MultiDigraph.of(
        [("a", "s"), ("s", "a"), ("a", "b"), ("a", "b"), ("b", "a"), ("b", "a"), ("a", "a"),
         ("b", "s"), ("s", "b"), ("b", "b")],
        ["a", "s", "b"],
    )
    game = cfg(g, "s", a=5, b=4)
    assert fire(g, game, "a").as_dict() == {"a": 2, "b": 6}
    assert fire(g, game, "b").as_dict() == {"a": 7, "b": 1}
    full = Configuration.of(g, {"a": 5, "s": 2, "b": 4})
    assert fire(g, full, "a").as_dict() == {"a": 2, "s": 3, "b": 6}
    assert fire(g, full, "s").as_dict() == {"a": 6, "s": 0, "b": 5}


def test_stabilize_examples():
    stable, record = stabilize(K3, cfg(K3, "s", a=1, b=1))
    assert stable.as_dict() == {"a": 1, "b": 1} and not any(record.counts)
    stable, record = stabilize(K3, cfg(K3, "s", a=2, b=2))
    assert stable.as_dict() == {"a": 1, "b": 1}
    assert record.as_dict() == {"s": 0, "a": 1, "b": 1}
    assert record.chips_to_sink == 2


def test_stabilize_idempotent_and_conserving():
    rng = random.Random(7)
    for g in corpus()[:40]:
        s = g.vertices[rng.randrange(g.n_vertices)]
        c = Configuration.of(
            g, {v: rng.randrange(0, 2 * g.outdeg(v)) for v in g.vertices if v != s}, sink=s
        )
        stable, record = stabilize(g, c)
        assert not any(is_firable(g, stable, v) for v in stable.domain)
        assert c.total() == stable.total() + record.chips_to_sink
        again, empty = stabilize(g, stable)
        assert again.chips == stable.chips and not any(empty.counts)
        # conservation pinned to the record: chips to sink = sum of firings * d(v, s)
        assert record.chips_to_sink == sum(
            record.count(v) * g.multiplicity(v, s) for v in g.vertices
        )


def test_stabilize_full_domain_accumulates():
    host = delete_out_arcs(C3, "s")
    c = Configuration.of(C3, {"s": 0, "a": 1, "b": 1})
    stable, record = stabilize(host, c)
    assert stable.as_dict() == {"s": 2, "a": 0, "b": 0}
    assert record.chips_to_sink == 0


def test_stabilize_detects_nontermination():
    # strongly connected host, full domain: chips never vanish
    c = Configuration.of(C3, {"s": 5, "a": 5, "b": 5})
    with pytest.raises(NonTerminationError):
        stabilize(C3, c)


def _never_fires_reachable(g, sink, v):
    """Name-based definition: v reaches the sink or a vertex without a non-loop out-arc."""
    return any(
        u == sink or g.outdeg(u) - g.loops_at(u) == 0 for u in reference_reached(g, v)
    )


def test_movers_certificate_matches_reachability():
    rng = random.Random(5150)
    graphs = list(corpus()) + list(non_eulerian_corpus())
    graphs += [random_digraph(rng) for _ in range(300)]
    refused = accepted = 0
    for g in graphs:
        for sink in (None, *g.vertices):
            movers = [
                v for v in g.vertices if v != sink and g.outdeg(v) - g.loops_at(v) > 0
            ]
            stuck = [v for v in movers if not _never_fires_reachable(g, sink, v)]
            index = None if sink is None else g.vertex_index(sink)
            if stuck:
                refused += 1
                with pytest.raises(NonTerminationError) as exc:
                    _movers(g, index)
                named = str(exc.value).split("'")[1]
                assert named in stuck
            else:
                accepted += 1
                rows = _movers(g, index)
                domain = [v for v in g.vertices if v != sink]
                assert [domain[row[0]] for row in rows] == movers
    # strongly connected hosts are refused at None and accepted at every sink;
    # the random digraphs add refusals at sinks and accepted sink-free hosts
    assert refused > 300 and accepted > 1000


def test_game_rows_match_a_reference_built_from_names():
    # looped hosts with parallel arcs, beside the two corpora
    rng = random.Random(2026)
    looped = [g for g in (random_eulerian(rng, 7, 24) for _ in range(100)) if g.loop_count]
    looped = [g for g in looped if len(set(g.arcs)) < g.n_arcs]
    assert len(looped) >= 20
    games = 0
    for g in (*corpus(), *non_eulerian_corpus(), *looped):
        for sink in (None, *g.vertices):
            domain = [v for v in g.vertices if v != sink]
            expected = tuple(
                (i, g.outdeg(v), g.outdeg(v) - g.loops_at(v), tuple(
                    (j, g.multiplicity(v, u)) for j, u in enumerate(domain)
                    if u != v and g.multiplicity(v, u)
                ))
                for i, v in enumerate(domain)
            )
            sink_index = None if sink is None else g.vertex_index(sink)
            assert _game_rows(g._firing_table, sink_index) == expected
            games += 1
    assert games > 1500


def test_stabilize_refuses_uncertified_host_before_firing():
    # b and c only reach each other: refused for every configuration, even
    # those whose game would stop (the zero one, or one chip on b)
    g = MultiDigraph.of([("s", "a"), ("a", "s"), ("b", "c"), ("c", "b"), ("b", "c")])
    for chips in ({}, {"b": 1}, {"a": 3}):
        with pytest.raises(NonTerminationError, match="'b'"):
            stabilize(g, cfg(g, "s", **chips))
    # one arc back toward the sink certifies the same host
    fixed = MultiDigraph.of(g.arcs + (("c", "s"),))
    stable, _ = stabilize(fixed, cfg(fixed, "s", b=1))
    assert stable.as_dict() == {"a": 0, "b": 1, "c": 0}


def test_add_and_helpers():
    c = cfg(C3, "s", a=1)
    d = cfg(C3, "s", b=2)
    assert add(c, d).as_dict() == {"a": 1, "b": 2}
    assert (c + d).chips == add(c, d).chips
    assert add(c, Configuration.zeros(C3, "s")).chips == c.chips
    with pytest.raises(ConfigurationError):
        add(c, cfg(C3, "a"))
    with pytest.raises(ConfigurationError):
        add(c, Configuration.zeros(K3, "s"))


def test_beta_examples():
    assert beta(C3, "s").as_dict() == {"a": 1, "b": 0}
    assert beta(K3, "s").as_dict() == {"a": 1, "b": 1}
    assert beta(parallel_pair("u", "v", 2), "u").as_dict() == {"v": 2}


def test_augment_and_restrict_round_trip():
    c = cfg(K3, "s", a=1)
    full = augment_sink(c, 3)
    assert full.sink is None and full.chip("s") == K3.outdeg("s") + 3
    assert restrict(full, "s").chips == c.chips
    with pytest.raises(ConfigurationError):
        augment_sink(full)
    with pytest.raises(ConfigurationError):
        restrict(c, "a")


def test_parse_config_literal():
    c = parse_config_literal(K3, "a=2, b=1", sink="s")
    assert c.as_dict() == {"a": 2, "b": 1}
    assert parse_config_literal(K3, "", sink="s").total() == 0
    with pytest.raises(ConfigurationError):
        parse_config_literal(K3, "a=-1", sink="s")
    with pytest.raises(ConfigurationError):
        parse_config_literal(K3, "z=1", sink="s")
    with pytest.raises(ConfigurationError):
        parse_config_literal(K3, "a=1,a=2", sink="s")


def _random_schedule_stabilize(g, c, rng):
    """Single random firings until stable; independent of the engine's sweeps."""
    counts = dict.fromkeys(g.vertices, 0)
    while True:
        firable = [v for v in c.domain if is_firable(g, c, v)]
        if not firable:
            return c, counts
        v = rng.choice(firable)
        c = fire(g, c, v)
        counts[v] += 1


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 10**9))
def test_abelian_property_random_schedules(seed):
    rng = random.Random(seed)
    g = random_eulerian(rng, 4, 9)
    s = g.vertices[rng.randrange(g.n_vertices)]
    c = Configuration.of(
        g, {v: rng.randrange(0, 2 * g.outdeg(v) + 1) for v in g.vertices if v != s}, sink=s
    )
    stable, record = stabilize(g, c)
    shuffled, counts = _random_schedule_stabilize(g, c, rng)
    assert shuffled.chips == stable.chips
    assert counts == record.as_dict()
    assert record.chips_to_sink == c.total() - stable.total()
    # full domain on the host theta stabilizes against: chips pile up on s
    host = delete_out_arcs(g, s)
    full = Configuration.of(
        host, {v: rng.randrange(0, 2 * g.outdeg(v) + 1) for v in g.vertices}
    )
    stable, record = stabilize(host, full)
    shuffled, counts = _random_schedule_stabilize(host, full, rng)
    assert shuffled.chips == stable.chips
    assert counts == record.as_dict()
    assert stable.total() == full.total() and record.chips_to_sink == 0


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 10**9))
def test_stabilization_commutes_with_addition(seed):
    rng = random.Random(seed)
    g = random_eulerian(rng, 4, 9)
    s = g.vertices[rng.randrange(g.n_vertices)]
    def rand_cfg():
        return Configuration.of(
            g, {v: rng.randrange(0, g.outdeg(v) + 2) for v in g.vertices if v != s}, sink=s
        )
    c, d = rand_cfg(), rand_cfg()
    direct, _ = stabilize(g, add(c, d))
    c_stable, _ = stabilize(g, c)
    nested, _ = stabilize(g, add(c_stable, d))
    assert direct.chips == nested.chips


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 10**9))
def test_monotone_chip_loss(seed):
    rng = random.Random(seed)
    g = random_eulerian(rng, 4, 9)
    s = g.vertices[rng.randrange(g.n_vertices)]
    lo = Configuration.of(
        g, {v: rng.randrange(0, 2 * g.outdeg(v)) for v in g.vertices if v != s}, sink=s
    )
    hi = Configuration.of(
        g, {v: lo.chip(v) + rng.randrange(0, 3) for v in g.vertices if v != s}, sink=s
    )
    _, lo_record = stabilize(g, lo)
    _, hi_record = stabilize(g, hi)
    assert lo_record.chips_to_sink <= hi_record.chips_to_sink
