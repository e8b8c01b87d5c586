import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfiring import (
    Configuration,
    GraphError,
    IntegerLattice,
    MultiDigraph,
    SizeCapError,
    conjecture1_check,
    enumerate_recurrents,
    equivalence_classes,
    firing_lattice,
    is_eulerian,
    is_recurrent,
    recurrent_definitional_test,
    stabilize,
)
from chipfiring.errors import ConfigurationError
from chipfiring.families import bidirected_complete, directed_cycle, random_strongly_connected
from chipfiring.lattice import class_representative, column_hnf
from chipfiring.oracles import brute_recurrents
from chipfiring.recurrent import _recurrent_vectors, recurrent_count

from support import corpus, non_eulerian_corpus, small_corpus, stable_cube

C3 = directed_cycle(["s", "a", "b"])
K3 = bidirected_complete(["s", "a", "b"])
NON_EULERIAN = MultiDigraph.of([("s", "a"), ("a", "b"), ("b", "s"), ("a", "s")])


def bounded_search_member(generators, vector, bound=6):
    """Exhaustive small-coefficient search; certifies membership only."""
    if not generators:
        return all(x == 0 for x in vector)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(generators)):
        combo = [
            sum(c * gen[i] for c, gen in zip(coeffs, generators))
            for i in range(len(vector))
        ]
        if combo == list(vector):
            return True
    return False


def test_column_hnf_shape():
    basis, pivots = column_hnf(((2, 1), (1, 2)), 2)
    assert len(basis) == 2 and len(pivots) == 2
    rows = [r for r, _ in pivots]
    assert rows == sorted(rows)  # triangular, deterministic pivot order
    for r, j in pivots:
        assert basis[j][r] > 0
    basis, pivots = column_hnf(((0, 0),), 2)
    assert basis == () and pivots == ()


def test_membership_examples():
    lat = firing_lattice(C3, "s")
    assert lat.contains((0, 0))
    for gen in lat.generators:
        assert lat.contains(gen)
        assert lat.contains([-x for x in gen])
    with pytest.raises(ConfigurationError):
        lat.contains((1, 2, 3))


def test_membership_against_divisibility_oracle():
    # axis-aligned lattices have an exact membership rule: coordinatewise divisibility
    rng = random.Random(17)
    for _ in range(80):
        dim = rng.randint(1, 4)
        scales = [rng.randint(1, 5) for _ in range(dim)]
        gens = [
            tuple(scales[i] if j == i else 0 for j in range(dim)) for i in range(dim)
        ]
        lat = IntegerLattice.from_generators(gens, dim)
        for _ in range(10):
            probe = tuple(rng.randint(-8, 8) for _ in range(dim))
            assert lat.contains(probe) == all(x % k == 0 for x, k in zip(probe, scales))


def test_membership_against_gcd_oracle():
    rng = random.Random(23)
    for _ in range(80):
        gens = [(rng.randint(-9, 9),) for _ in range(rng.randint(1, 3))]
        lat = IntegerLattice.from_generators(gens, 1)
        g = math.gcd(*(abs(x) for x, in gens)) if gens else 0
        for probe in range(-12, 13):
            expected = probe == 0 if g == 0 else probe % g == 0
            assert lat.contains((probe,)) == expected


@settings(max_examples=80, deadline=None)
@given(
    gens=st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
        min_size=1,
        max_size=3,
    ),
    coeffs=st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
    probe=st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
)
def test_membership_closure_properties(gens, coeffs, probe):
    lat = IntegerLattice.from_generators(gens, 3)
    member = [
        sum(c * gen[i] for c, gen in zip(coeffs, gens)) for i in range(3)
    ]
    assert lat.contains(member)  # arbitrary integer combinations are members
    assert lat.contains([-x for x in member])
    assert lat.contains(probe) == lat.contains([-x for x in probe])  # negation closed
    if bounded_search_member(gens, list(probe)):
        assert lat.contains(probe)  # bound-6 search certifies membership


def test_eulerian_classes_are_singletons():
    for include_beta in (False, True):
        classes = equivalence_classes(K3, "s", include_beta)
        assert [len(c) for c in classes] == [1, 1, 1]
    for g in corpus()[:25]:
        s = g.vertices[0]
        classes = equivalence_classes(g, s, include_beta=False)
        assert all(len(c) == 1 for c in classes)
        assert len(classes) == len(enumerate_recurrents(g, s))


def test_beta_lies_in_eulerian_firing_lattice():
    from chipfiring import beta

    for g in corpus()[:25]:
        s = g.vertices[0]
        lat = firing_lattice(g, s)
        assert lat.contains(beta(g, s).chips)


def test_distinct_recurrents_are_inequivalent():
    # soundness of membership on real inputs: each class holds one recurrent
    for g in corpus()[:15]:
        s = g.vertices[0]
        lat = firing_lattice(g, s)
        rs = enumerate_recurrents(g, s)
        for c, d in itertools.combinations(rs.configs, 2):
            assert not lat.contains([a - b for a, b in zip(c.chips, d.chips)])


def test_class_representative_is_recurrent_and_equivalent():
    rng = random.Random(11)
    for g in small_corpus()[:25]:
        s = g.vertices[rng.randrange(g.n_vertices)]
        lat = firing_lattice(g, s)
        for c in itertools.islice(stable_cube(g, s), 12):
            rep = class_representative(g, s, c)
            assert is_recurrent(g, s, rep)
            assert lat.contains([a - b for a, b in zip(c.chips, rep.chips)])


def test_recurrents_maximize_chip_total_in_class():
    for g in small_corpus()[:30]:
        for s in g.vertices:
            for c in stable_cube(g, s):
                rep = class_representative(g, s, c)
                assert sum(c.chips) <= sum(rep.chips)


def test_definitional_test_matches_burning_on_eulerian():
    for g in small_corpus()[:12]:
        if g.n_arcs > 10:
            continue
        for s in g.vertices:
            for c in stable_cube(g, s):
                assert recurrent_definitional_test(g, s, c) == is_recurrent(g, s, c)


def test_definitional_test_on_non_eulerian():
    assert not is_eulerian(NON_EULERIAN)
    # saturated configuration stabilizes to a recurrent one
    saturated = Configuration.of(
        NON_EULERIAN,
        {v: NON_EULERIAN.outdeg(v) - 1 for v in ("a", "b")},
        sink="s",
    )
    stable, _ = stabilize(NON_EULERIAN, saturated)
    assert recurrent_definitional_test(NON_EULERIAN, "s", stable)
    assert recurrent_definitional_test(C3, "s", Configuration.zeros(C3, "s"))
    big = bidirected_complete(["a", "b", "c", "d", "e"])
    with pytest.raises(SizeCapError):
        recurrent_definitional_test(big, "a", Configuration.zeros(big, "a"))


def test_sink_vector_merges_classes_on_non_eulerian_host():
    # without the sink vector the two recurrents are inequivalent; with it the
    # classes merge, which is what makes the class-maxima statistic nontrivial
    plain = equivalence_classes(NON_EULERIAN, "s", include_beta=False)
    assert sorted(c.chips for cls in plain for c in cls) == [(0, 0), (1, 0)]
    assert [len(cls) for cls in plain] == [1, 1]
    merged = equivalence_classes(NON_EULERIAN, "s", include_beta=True)
    assert [len(cls) for cls in merged] == [2]
    # cross-check the merge by bounded coefficient search over the generators
    lat = firing_lattice(NON_EULERIAN, "s", include_beta=True)
    assert bounded_search_member(lat.generators, [1, 0])
    lat_plain = firing_lattice(NON_EULERIAN, "s", include_beta=False)
    assert not lat_plain.contains([1, 0])


def test_general_recurrents_match_oracle():
    pairs = 0
    for g in non_eulerian_corpus():
        for s in g.vertices:
            oracle = [c.chips for c in brute_recurrents(g, s)]
            assert list(_recurrent_vectors(g, s)) == oracle
            classes = equivalence_classes(g, s, include_beta=False)
            assert sorted(c.chips for cls in classes for c in cls) == oracle
            pairs += 1
    assert pairs == 265


def test_general_recurrents_beyond_oracle_size():
    # hosts with 5 or 6 vertices and up to 24 arcs: the class representative,
    # on the flooding path, is the reference
    rng = random.Random(5150)
    hosts = []
    while len(hosts) < 30:
        g = random_strongly_connected(rng, 6, 24, eulerian=False)
        if g.n_vertices >= 5:
            hosts.append(g)
    for g in hosts:
        for s in g.vertices:
            cube = stable_cube(g, s)
            fixed = [c.chips for c in cube if class_representative(g, s, c).chips == c.chips]
            vectors = _recurrent_vectors(g, s)
            assert list(vectors) == fixed
            assert len(vectors) == recurrent_count(g, s)
        report = conjecture1_check(g)
        assert set(report["sinks"]) == set(g.vertices) and not report["eulerian"]


def test_general_recurrents_example_beyond_old_caps():
    g = MultiDigraph.of(
        [("s", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "s"),
         ("a", "s"), ("b", "s"), ("c", "a"), ("d", "b")]
    )
    counts = {s: len(_recurrent_vectors(g, s)) for s in g.vertices}
    assert counts == {"s": 12, "a": 7, "b": 4, "c": 2, "d": 1}
    assert conjecture1_check(g)["sinks"] == {s: [5] for s in g.vertices}


def test_conjecture1_examples():
    report = conjecture1_check(K3)
    assert report["consistent"] and report["eulerian"]
    assert report["sinks"]["s"] == [3, 3, 4]
    report = conjecture1_check(C3)
    assert report["consistent"] and all(v == [1] for v in report["sinks"].values())
    with pytest.raises(GraphError):
        conjecture1_check(MultiDigraph.of([("a", "b")]))


def test_conjecture1_reduces_to_sum_multiset_on_eulerian():
    for g in small_corpus()[:10]:
        if g.n_arcs > 10:
            continue
        report = conjecture1_check(g)
        assert report["consistent"]
        for s in g.vertices:
            assert report["sinks"][s] == sorted(enumerate_recurrents(g, s).sums)


def test_conjecture1_completes_on_non_eulerian_corpus():
    for g in non_eulerian_corpus()[:30]:
        report = conjecture1_check(g)
        assert set(report["sinks"]) == set(g.vertices)
        assert isinstance(report["consistent"], bool)
        assert not report["eulerian"]
