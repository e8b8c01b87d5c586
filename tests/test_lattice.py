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
from chipfiring import lattice as lattice_module
from chipfiring.errors import ConfigurationError, InternalCheckError
from chipfiring.families import random_strongly_connected
from chipfiring.lattice import _representative
from chipfiring.oracles import brute_recurrents
from chipfiring.recurrent import _recurrent_vectors, bareiss_determinant

from support import (
    HermiteLattice,
    bidirected_complete,
    class_representative,
    column_hnf,
    corpus,
    determinant_count,
    directed_cycle,
    non_eulerian_corpus,
    recurrent_vectors,
    reference_representative,
    small_corpus,
    stable_cube,
)

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


def axis_generators(rng):
    """Scale k_i on axis i of a 1- to 4-dimensional lattice, with the scales;
    x lies in it iff k_i divides x_i for every i."""
    dim = rng.randint(1, 4)
    scales = [rng.randint(1, 5) for _ in range(dim)]
    gens = [tuple(scales[i] if j == i else 0 for j in range(dim)) for i in range(dim)]
    return gens, scales


def line_generators(rng):
    """One to three generators of a sublattice of Z, the multiples of their gcd."""
    return [(rng.randint(-9, 9),) for _ in range(rng.randint(1, 3))]


def dense_generators(rng):
    """One to four generators with entries in [-5, 5], like those of the closure
    property test but in dimension 1 to 4, with the dimension."""
    dim = rng.randint(1, 4)
    return [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(rng.randint(1, 4))], dim


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
        gens, scales = axis_generators(rng)
        dim = len(scales)
        lat = IntegerLattice.from_generators(gens, dim)
        for _ in range(10):
            probe = tuple(rng.randint(-8, 8) for _ in range(dim))
            assert lat.contains(probe) == all(x % k == 0 for x, k in zip(probe, scales))


def test_membership_against_gcd_oracle():
    rng = random.Random(23)
    for _ in range(80):
        gens = line_generators(rng)
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


def test_residue_is_a_canonical_coset_representative():
    rng = random.Random(29)
    same = differ = 0
    for trial in range(300):
        family = trial % 3
        if family == 0:
            gens, scales = axis_generators(rng)
            dim = len(scales)
        elif family == 1:
            gens, dim = line_generators(rng), 1
        else:
            gens, dim = dense_generators(rng)
        lat = IntegerLattice.from_generators(gens, dim)
        ref = HermiteLattice.of(gens, dim)
        for _ in range(8):
            x = tuple(rng.randint(-8, 8) for _ in range(dim))
            y = list(x)
            if rng.random() < 0.5:  # shift by a lattice member
                for gen in gens:
                    c = rng.randint(-3, 3)
                    y = [a + c * b for a, b in zip(y, gen)]
            else:
                y = [rng.randint(-8, 8) for _ in range(dim)]
            rx, ry = ref.residue(x), ref.residue(y)
            member = lat.contains([a - b for a, b in zip(x, y)])
            assert (rx == ry) == member
            same += member
            differ += not member
            assert ref.residue(rx) == rx
            assert lat.contains([a - b for a, b in zip(x, rx)])
            for row, j in ref.pivots:
                assert 0 <= rx[row] < ref.basis[j][row]
            # independent rules where the lattice has a closed form
            if family == 0:
                assert rx == tuple(a % k for a, k in zip(x, scales))
            elif family == 1:
                g = math.gcd(*(v for v, in gens))
                assert rx == ((x[0] % g,) if g else x)
    assert same > 300 and differ > 300


def spoiled_generators(rng):
    """Generators of the kinds the dense family leaves rare: rank-deficient (one
    is a combination of the others), more or fewer than the dimension, zero
    vectors and negative entries, in dimension 1 to 5."""
    dim = rng.randint(1, 5)
    gens = [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
    if gens and rng.random() < 0.5:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        gens.append(tuple(a * x + b * y for x, y in zip(gens[0], gens[-1])))
    if rng.random() < 0.3:
        gens.append((0,) * dim)
    if rng.random() < 0.3:
        gens.append(tuple(-rng.randint(1, 6) for _ in range(dim)))
    rng.shuffle(gens)
    return gens, dim


def test_smith_key_partitions_like_the_residue():
    # the coset key and the Hermite residue agree on which vectors share a coset;
    # U is unimodular, each d_i divides the next, and for a full-rank lattice the
    # factors multiply to the index, the product of the HNF pivots
    rng = random.Random(31)
    same = differ = deficient = 0
    for trial in range(400):
        family = trial % 4
        if family == 0:
            gens, scales = axis_generators(rng)
            dim = len(scales)
        elif family == 1:
            gens, dim = line_generators(rng), 1
        elif family == 2:
            gens, dim = dense_generators(rng)
        else:
            gens, dim = spoiled_generators(rng)
        lat = IntegerLattice.from_generators(gens, dim)
        ref = HermiteLattice.of(gens, dim)
        factors, rows = lat._smith
        assert len(factors) == len(ref.basis) and len(rows) == dim
        assert abs(bareiss_determinant(rows)) == 1
        assert all(d > 0 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        if len(factors) == dim:
            assert math.prod(factors) == math.prod(ref.basis[j][row] for row, j in ref.pivots)
        else:
            deficient += 1
        key = lat._coset_key
        for _ in range(8):
            x = tuple(rng.randint(-9, 9) for _ in range(dim))
            if rng.random() < 0.5:  # shift by a lattice member
                y = list(x)
                for gen in gens:
                    c = rng.randint(-3, 3)
                    y = [a + c * b for a, b in zip(y, gen)]
            else:
                y = [rng.randint(-9, 9) for _ in range(dim)]
            shared = ref.residue(x) == ref.residue(y)
            assert (key(x) == key(y)) == shared
            same += shared
            differ += not shared
    assert same > 300 and differ > 300 and deficient > 50


def test_membership_matches_the_hermite_residue():
    # contains reads the Smith coset key; the reference reads the Hermite
    # residue: they agree on random generator sets of every family, rank-deficient
    # ones included, and on the firing lattices of both corpora, with and without
    # the sink vector
    rng = random.Random(37)
    probes = members = 0
    for trial in range(400):
        family = trial % 4
        if family == 0:
            gens, scales = axis_generators(rng)
            dim = len(scales)
        elif family == 1:
            gens, dim = line_generators(rng), 1
        elif family == 2:
            gens, dim = dense_generators(rng)
        else:
            gens, dim = spoiled_generators(rng)
        lat = IntegerLattice.from_generators(gens, dim)
        ref = HermiteLattice.of(gens, dim)
        for _ in range(10):
            x = [rng.randint(-9, 9) for _ in range(dim)]
            if rng.random() < 0.5:  # shift to a lattice member
                for gen in gens:
                    c = rng.randint(-3, 3)
                    x = [a - c * b for a, b in zip(x, gen)]
                x = [a - b for a, b in zip(x, ref.residue(x))]
            assert lat.contains(x) == ref.contains(x)
            probes += 1
            members += ref.contains(x)
    lattices = 0
    for g in corpus() + non_eulerian_corpus():
        for s in g.vertices:
            for include_beta in (False, True):
                lat = firing_lattice(g, s, include_beta)
                ref = HermiteLattice.of(lat.generators, lat.dimension)
                for cell in itertools.islice(stable_cube(g, s), 6):
                    x = cell.chips
                    assert lat.contains(x) == ref.contains(x)
                    y = [a - b for a, b in zip(x, ref.residue(x))]
                    assert lat.contains(y) and ref.contains(y)
                    probes += 2
                lattices += 1
    assert lattices == 1956
    assert members > 1000 and probes - members > 1000


def test_classes_refuse_invariant_factors_off_the_determinant(monkeypatch):
    # the factors of an Eulerian host's firing lattice multiply to its
    # determinant, with or without the sink vector; one spoiled factor is refused
    for include_beta in (False, True):
        assert len(equivalence_classes(K3, "s", include_beta)) == 3
    real = lattice_module._smith_form

    def spoiled(basis, dimension):
        factors, rows = real(basis, dimension)
        return factors[:-1] + (2 * factors[-1],), rows

    monkeypatch.setattr(lattice_module, "_smith_form", spoiled)
    for include_beta in (False, True):
        with pytest.raises(InternalCheckError, match="determinant predicts 3"):
            equivalence_classes(K3, "s", include_beta)
    with pytest.raises(InternalCheckError):
        conjecture1_check(K3)


def pairwise_classes(g, s, include_beta):
    """The partition by pairwise membership against each class's first member,
    read from the reference Hermite residue."""
    lat = firing_lattice(g, s, include_beta)
    lat = HermiteLattice.of(lat.generators, lat.dimension)
    classes = []
    for vec in recurrent_vectors(g, s):
        for cls in classes:
            if lat.contains([a - b for a, b in zip(vec, cls[0])]):
                cls.append(vec)
                break
        else:
            classes.append([vec])
    return classes


def test_residue_classes_match_pairwise_partition():
    triples = merged = 0
    for g in corpus() + non_eulerian_corpus():
        for s in g.vertices:
            for include_beta in (False, True):
                classes = equivalence_classes(g, s, include_beta)
                assert [[c.chips for c in cls] for cls in classes] == pairwise_classes(
                    g, s, include_beta
                )
                triples += 1
                merged += any(len(cls) > 1 for cls in classes)
    assert triples == 1956
    assert merged > 0  # the corpora exercise classes with several members


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


def test_representative_matches_settling_cell_plus_m_chips():
    # every stable cell and one layer above the cube, on Eulerian hosts and on
    # non-Eulerian strongly connected ones (conjecture1 and max-sum use both)
    cells = 0
    for g in small_corpus()[:40] + non_eulerian_corpus()[:40]:
        for s in g.vertices:
            represent = _representative(g, s)
            sides = (range(g.outdeg(v) + 1) for v in g.vertices if v != s)
            for cell in itertools.product(*sides):
                assert represent(cell) == reference_representative(g, s, cell)
                cells += 1
    assert cells == 4_279


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
            assert list(recurrent_vectors(g, s)) == oracle
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
            vectors = recurrent_vectors(g, s)
            assert list(vectors) == fixed
            assert len(vectors) == determinant_count(g, s)
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
