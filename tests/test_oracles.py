import pytest

from chipfiring import Configuration, GraphError, MultiDigraph, SizeCapError, enumerate_recurrents
from chipfiring import oracles
from chipfiring.oracles import (
    brute_acyclic_sets,
    brute_arborescences,
    brute_recurrents,
    recurrent_definitional_test,
    undirected_tutte_oracle,
)

from support import (
    bidirected_complete,
    corpus,
    determinant_count,
    directed_cycle,
    parallel_pair,
    small_corpus,
)

C3 = directed_cycle(["s", "a", "b"])
K3 = bidirected_complete(["s", "a", "b"])
BANANA = parallel_pair("u", "v", 2)


def test_brute_arborescences_examples():
    assert brute_arborescences(C3, "s") == 1
    assert brute_arborescences(K3, "a") == 3
    assert brute_arborescences(BANANA, "u") == 2
    big = bidirected_complete(list("abcdefg"))
    with pytest.raises(SizeCapError):
        brute_arborescences(big, "a")


def test_brute_arborescences_match_determinant():
    for g in corpus()[:50]:
        for s in g.vertices:
            assert brute_arborescences(g, s) == determinant_count(g, s)


def test_brute_acyclic_examples():
    assert brute_acyclic_sets(C3, "s") == 1
    assert brute_acyclic_sets(BANANA, "u") == 1
    assert brute_acyclic_sets(K3, "s") == 2


def test_brute_recurrents_examples():
    assert [c.as_dict() for c in brute_recurrents(C3, "s")] == [{"a": 0, "b": 0}]
    assert len(brute_recurrents(K3, "s")) == 3
    assert len(brute_recurrents(BANANA, "u")) == 2
    big = bidirected_complete(list("abcde"))
    with pytest.raises(SizeCapError):
        brute_recurrents(big, "a")


def test_recurrence_oracles_refuse_hosts_that_are_not_strongly_connected():
    # nothing returns to s, so the reduced Laplacian at s is singular and the
    # flood would be 0, making every stable cell its own fixed point
    g = MultiDigraph.of([("s", "a"), ("a", "b"), ("b", "a")])
    message = "definitional test requires a strongly connected graph"
    with pytest.raises(GraphError, match=message):
        brute_recurrents(g, "s")
    with pytest.raises(GraphError, match=message):
        recurrent_definitional_test(g, "s", Configuration.zeros(g, "s"))


def test_brute_recurrents_agree_with_burning_enumeration():
    for g in small_corpus()[:40]:
        for s in g.vertices:
            oracle = sorted(c.chips for c in brute_recurrents(g, s))
            main = sorted(enumerate_recurrents(g, s).decode())
            assert oracle == main


def test_undirected_oracle_memo_is_bounded():
    oracles._tutte_at_x1.cache_clear()
    undirected_tutte_oracle(bidirected_complete(list("abcde")))
    info = oracles._tutte_at_x1.cache_info()
    assert info.maxsize == 4096 and 0 < info.currsize <= info.maxsize


def test_oracle_work_bounds_count_choices_and_flood_steps(monkeypatch):
    # K3 at s: 4 cells; det Δ = 3 and det(Δ + J) = 9, so a flood of 3 * (1 + 2)
    # chips fires 3 * (9 - 3) = 18 times, each run scanning 6 arcs and 3 vertices
    monkeypatch.setattr(oracles, "MAX_RECURRENT_WORK", 4 * 19 * 9)
    assert len(brute_recurrents(K3, "s")) == 3
    monkeypatch.setattr(oracles, "MAX_RECURRENT_WORK", 4 * 19 * 9 - 1)
    with pytest.raises(SizeCapError, match=r"^recurrence oracle capped at 683 steps, this host needs 684$"):
        brute_recurrents(K3, "s")
    # one definitional test is one flood
    assert recurrent_definitional_test(K3, "s", Configuration(K3, "s", (1, 1)))
    monkeypatch.setattr(oracles, "MAX_RECURRENT_WORK", 19 * 9 - 1)
    with pytest.raises(SizeCapError, match="this host needs 171$"):
        recurrent_definitional_test(K3, "s", Configuration(K3, "s", (1, 1)))
    monkeypatch.setattr(oracles, "MAX_ARB_CHOICES", 4)
    assert brute_arborescences(K3, "s") == 3
    monkeypatch.setattr(oracles, "MAX_ARB_CHOICES", 3)
    with pytest.raises(SizeCapError, match=r"^arborescence oracle capped at 3 out-arc choices, this host has 4$"):
        brute_arborescences(K3, "s")
