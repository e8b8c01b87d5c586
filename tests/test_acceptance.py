"""Acceptance suite: one test per criterion, exact assertions throughout.

Run with ``pytest tests/test_acceptance.py -v``; each test prints its own
PASS line (visible with ``-s``) and the -v test names double as the
per-criterion verdict lines.
"""

import itertools
import time

from chipfiring import (
    Configuration,
    augment_sink,
    add,
    beta,
    check_sink_independence,
    conjecture1_check,
    delete_out_arcs,
    enumerate_recurrents,
    is_eulerian,
    remove_loops,
    stabilize,
    swap_number,
    theta,
    tutte_gen,
    undirected_tutte_oracle,
)
from chipfiring.checks import run_check
from chipfiring.lattice import firing_lattice
from chipfiring.oracles import brute_acyclic_sets, brute_arborescences

from support import (
    bidirected_complete,
    class_representative,
    corpus,
    data_graph,
    determinant_count,
    is_minimal,
    is_minimum,
    non_eulerian_corpus,
    parallel_pair,
    small_corpus,
    stable_cube,
    undirected_family,
)


def _report(criterion: str, detail: str) -> None:
    print(f"acceptance {criterion}: PASS ({detail})")


def test_criterion_1_reference_example():
    started = time.perf_counter()
    g = data_graph("demo5.txt")
    rs = enumerate_recurrents(g, "s")
    assert len(rs) == 6
    assert sorted(c.total() for c in rs.configs) == [2, 2, 3, 3, 3, 4]
    rs3 = enumerate_recurrents(g, "v3")
    assert sorted(c.total() for c in rs3.configs) == [1, 1, 2, 2, 2, 3]
    polys = {tutte_gen(g, s) for s in g.vertices}
    assert len(polys) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("criterion 1", f"reference example, {elapsed:.3f}s")


def test_criterion_2_sum_multiset_sink_independence():
    started = time.perf_counter()
    graphs = corpus()
    assert len(graphs) >= 200
    for g in graphs:
        common = check_sink_independence(g)  # asserts sums and levels agree
        assert common
        polys = {tutte_gen(g, s) for s in g.vertices}
        assert len(polys) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("criterion 2", f"{len(graphs)} graphs, {elapsed:.1f}s")


def test_criterion_3_swap_suite():
    checked = 0
    for g in corpus():
        recurrents = {s: enumerate_recurrents(g, s) for s in g.vertices}
        for s1, s2 in itertools.permutations(g.vertices, 2):
            rs = recurrents[s1]
            swaps = []
            for c in rs.configs:
                result = theta(g, s1, s2, c)
                swaps.append(result.swap_number)
                assert g.outdeg(s1) + c.total() == g.outdeg(s2) + result.image.total()
                assert swap_number(g, s2, s1, result.image) == result.swap_number
                back, _ = stabilize(
                    delete_out_arcs(g, s1),
                    augment_sink(result.image, result.swap_number),
                )
                assert back.chips == augment_sink(c, result.swap_number).chips
                if is_minimum(rs, c):
                    assert result.swap_number == 0
                checked += 1
            for (i, c), (j, d) in itertools.permutations(enumerate(rs.configs), 2):
                if c.leq(d):
                    assert swaps[i] <= swaps[j]
    _report("criterion 3", f"{checked} transported configurations")


def test_criterion_4_evaluation_oracles():
    for g in corpus():
        poly = tutte_gen(g, g.vertices[0])
        bare, n_loops = remove_loops(g)
        bare_poly = tutte_gen(bare, bare.vertices[0])
        for s in g.vertices:
            at_one = poly.eval(1)
            assert at_one == determinant_count(g, s)
            assert at_one == brute_arborescences(g, s)
            # the y=0 count identity is a loopless statement: a loop multiplies
            # the polynomial by y but never joins an acyclic arc set
            assert bare_poly.eval(0) == brute_acyclic_sets(g, s)
            if n_loops == 0:
                assert poly.eval(0) == brute_acyclic_sets(g, s)
            else:
                assert poly.eval(0) == 0
                assert poly == bare_poly.shift(n_loops)
    _report("criterion 4", f"{len(corpus())} graphs, all sinks")


def test_criterion_5_undirected_agreement():
    k3 = bidirected_complete(["a", "b", "c"])
    assert tutte_gen(k3, "a").to_text() == "2*y^0 + 1*y^1"
    banana = parallel_pair("u", "v", 2)
    assert tutte_gen(banana, "u").to_text() == "1*y^0 + 1*y^1"
    family = undirected_family()
    for g in family:
        assert tutte_gen(g, g.vertices[0]) == undirected_tutte_oracle(g)
    _report("criterion 5", f"{len(family)} undirected multigraphs")


def test_criterion_6_recursion_suite():
    from support import simple_undirected_connected

    # symmetric graphs exercise the undirected specialization of the
    # deletion-contraction identity on every applicable site
    undirected_sample = [g for g in simple_undirected_connected() if g.n_vertices <= 4][:12]
    sites = 0
    for g in list(corpus()) + undirected_sample:
        report = run_check("recursions", g)
        assert report.ok, report.lines
        sites += sum(1 for line in report.lines if line.endswith(": ok"))
    _report("criterion 6", f"{sites} sites verified")


def test_criterion_7_max_sum_property():
    cells = 0
    for g in small_corpus():
        if not is_eulerian(g):
            continue
        for s in g.vertices:
            lat = firing_lattice(g, s)
            for c in stable_cube(g, s):
                rep = class_representative(g, s, c)
                assert lat.contains([a - b for a, b in zip(c.chips, rep.chips)])
                assert sum(c.chips) <= sum(rep.chips)
                cells += 1
    _report("criterion 7", f"{cells} stable configurations")


def test_criterion_8_burning_uniqueness():
    runs = 0
    for g in corpus():
        for s in g.vertices:
            b = beta(g, s)
            for c in enumerate_recurrents(g, s).configs:
                _, record = stabilize(g, add(c, b))
                assert all(record.count(v) == 1 for v in c.domain)
                runs += 1
    _report("criterion 8", f"{runs} burning runs")


def test_criterion_9_conjecture_checker():
    eulerian_checked = 0
    for g in corpus()[:40]:
        report = conjecture1_check(g)  # asserts the Eulerian sum-multiset reduction internally
        assert report["consistent"] and report["eulerian"]
        for s in g.vertices:
            assert report["sinks"][s] == sorted(enumerate_recurrents(g, s).sums)
        eulerian_checked += 1
    completed = 0
    for g in non_eulerian_corpus():
        report = conjecture1_check(g)
        assert set(report["sinks"]) == set(g.vertices)
        assert isinstance(report["consistent"], bool)
        completed += 1
    assert completed >= 100
    demo = data_graph("swapdemo.txt")
    rs = enumerate_recurrents(demo, "v5")
    witness = Configuration.of(demo, {"v2": 2, "v3": 1}, sink="v5")
    assert is_minimal(rs, witness) and not is_minimum(rs, witness)
    assert swap_number(demo, "v5", "v4", witness) == 1
    _report(
        "criterion 9",
        f"{eulerian_checked} Eulerian + {completed} general reports, swap fixture",
    )
