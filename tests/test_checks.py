import hashlib
import re
import sys
from collections import Counter

import pytest

from chipfiring import (
    Configuration,
    MultiDigraph,
    bijection,
    dynamics,
    enumerate_recurrents,
    lattice,
    recurrent,
    tutte,
)
from chipfiring.checks import PROPERTIES, _covers, run_check
from chipfiring.cli import main
from chipfiring.errors import GraphError, InternalCheckError

from support import (
    DATA,
    bidirected_complete,
    corpus,
    data_graph,
    doubled_cycle,
    non_eulerian_corpus,
    parallel_pair,
    reference_burning_uniqueness,
    reference_covers,
    reference_theta,
)

K3 = bidirected_complete(["s", "a", "b"])
NON_EULERIAN = MultiDigraph.of([("s", "a"), ("a", "b"), ("b", "s"), ("a", "s")])


@pytest.mark.parametrize("prop", PROPERTIES)
def test_all_properties_pass_on_k3(prop):
    report = run_check(prop, K3)
    assert report.ok, report.lines


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        run_check("zzz", K3)


def test_sink_independence_report_lines():
    report = run_check("sink-independence", data_graph("demo5.txt"))
    assert report.ok
    assert any("raw chip totals (2, 2, 3, 3, 3, 4)" in line for line in report.lines)
    assert any("sum multiset: (4, 4, 5, 5, 5, 6)" in line for line in report.lines)
    assert any("level multiset: (0, 0, 1, 1, 1, 2)" in line for line in report.lines)


def test_theta_report_observations():
    report = run_check("theta", data_graph("swapdemo.txt"))
    assert report.ok
    assert any("max swap number over minimal configurations: 1" in l for l in report.lines)
    assert any("three-sink composition" in l for l in report.lines)


THETA_REPORTS = {
    "demo5.txt": [
        "max swap number observed: 5",
        "max swap number over minimal configurations: 0",
        "three-sink composition agreed on 18/36 cases",
    ],
    "swapdemo.txt": [
        "max swap number observed: 3",
        "max swap number over minimal configurations: 1",
        "three-sink composition agreed on 12/24 cases",
    ],
}


@pytest.mark.parametrize("name", sorted(THETA_REPORTS))
def test_theta_report_lines_pinned(name):
    report = run_check("theta", data_graph(name))
    assert report.ok
    assert report.lines == THETA_REPORTS[name]


def test_theta_matches_two_search_reference():
    for g in (*corpus()[:80], data_graph("demo5.txt"), data_graph("swapdemo.txt")):
        assert run_check("theta", g) == reference_theta(g)


def test_theta_searches_each_member_once_per_sink_pair(monkeypatch):
    g = data_graph("demo5.txt")
    real, set_ups, searches = bijection._swapper, [], []

    def counted(graph, s1, s2):
        swap = real(graph, s1, s2)
        set_ups.append((s1, s2))
        return lambda vec: searches.append(vec) or swap(vec)

    monkeypatch.setattr(bijection, "_swapper", counted)
    assert run_check("theta", g).ok
    n = g.n_vertices
    assert sorted(set_ups) == [(a, b) for a in range(n) for b in range(n) if a != b]
    assert len(searches) == (n - 1) * sum(len(enumerate_recurrents(g, s)) for s in g.vertices)


def _theta_under(monkeypatch, g, mutate):
    """The suite's and the reference's reports when the swap search from sink
    index 0 to 1 answers ``mutate(swap, vec)`` instead of ``swap(vec)``."""
    real = bijection._swapper

    def swapper(graph, s1, s2):
        swap = real(graph, s1, s2)
        return (lambda vec: mutate(swap, vec)) if (s1, s2) == (0, 1) else swap

    monkeypatch.setattr(bijection, "_swapper", swapper)
    return run_check("theta", g), reference_theta(g)


def _raising(chips: tuple[int, ...], by: int):
    """A mutation that reports ``by`` more for the member ``chips``, with the
    true final state."""

    def mutate(swap, vec):
        k, state = swap(vec)
        return k + by * (vec == chips), state

    return mutate


def test_theta_reports_a_raised_swap_number_like_the_reference(monkeypatch):
    g = data_graph("demo5.txt")
    top = enumerate_recurrents(g, g.vertices[0]).vectors[-1]  # the maximal member
    for report in _theta_under(monkeypatch, g, _raising(top, 1)):
        assert report.ok is False
        assert any(line.startswith("VIOLATION: swap symmetry broke for") for line in report.lines)


def test_theta_reports_non_monotone_swap_numbers_like_the_reference(monkeypatch):
    g = data_graph("demo5.txt")
    rs = enumerate_recurrents(g, g.vertices[0])
    # the first member has the least sum and lies below a covering member,
    # whose swap number it now exceeds
    covers, _ = _covers(rs.vectors, {vec: j for j, vec in enumerate(rs.vectors)})
    assert rs.sums[0] == min(rs.sums) and any(lo == 0 for lo, _ in covers)
    report, expected = _theta_under(monkeypatch, g, _raising(rs.vectors[0], len(rs)))
    assert not report.ok and not expected.ok
    monotone = [line for line in report.lines if "swap numbers not monotone" in line]
    # the suite names covering pairs only, one line for each that starts at the
    # raised member, the reference every comparable pair
    assert len(monotone) == sum(lo == 0 for lo, _ in reference_covers(rs.vectors)) > 1
    assert set(monotone) <= set(expected.lines)
    minimum = [line for line in report.lines if line.startswith("VIOLATION: minimum configuration")]
    assert minimum and set(minimum) <= set(expected.lines)


def test_theta_reports_a_failed_round_trip_like_the_reference(monkeypatch):
    # equal sums and swap numbers: sending the first member to the second's
    # image keeps the numbers symmetric but breaks the round trip and injectivity
    g = data_graph("demo5.txt")
    first, second = (0, 0, 2, 0), (0, 1, 1, 0)
    forward = bijection._swapper(g, 0, 1)
    assert sum(first) == sum(second) and forward(first)[0] == forward(second)[0]
    report, expected = _theta_under(
        monkeypatch, g, lambda swap, vec: swap(second if vec == first else vec)
    )
    violations = [line for line in report.lines if line.startswith("VIOLATION")]
    assert violations[:2] == [line for line in expected.lines if line.startswith("VIOLATION")] == [
        "VIOLATION: round trip did not return "
        "Configuration(sink='s', v1=0, v2=0, v3=2, v4=0) augmented by 0",
        "VIOLATION: swap map is not injective from sink s to v1",
    ]
    # the patched search is also the reverse pair's swap back, so the suite
    # names that pair's round trip too; the reference settles it separately
    assert violations[2:] == [
        "VIOLATION: round trip did not return "
        "Configuration(sink='v1', s=0, v2=0, v3=2, v4=0) augmented by 0"
    ]


MAX_SUM_EULERIAN = ["every stable configuration is bounded by its recurrent representative"]
MAX_SUM_NON_EULERIAN = [
    "non-Eulerian host: observed 0 stable configurations outweighing their representative "
    "(open question, not asserted)"
]


def test_max_sum_report_lines_pinned():
    for g in (K3, data_graph("demo5.txt")):
        report = run_check("max-sum", g)
        assert report.ok and report.lines == MAX_SUM_EULERIAN
    for g in non_eulerian_corpus()[:30]:
        report = run_check("max-sum", g)
        assert report.ok and report.lines == MAX_SUM_NON_EULERIAN


def test_max_sum_on_non_eulerian_is_observational():
    report = run_check("max-sum", NON_EULERIAN)
    assert report.ok  # open question: never asserted on non-Eulerian hosts
    assert any("open question" in line for line in report.lines)


def test_recursions_on_loopy_banana():
    g = parallel_pair("u", "v", 2)
    report = run_check("recursions", g)
    assert report.ok
    assert any(line.startswith("del_contract") for line in report.lines)
    assert any(line.startswith("mobius") for line in report.lines)
    assert any(line.startswith("closed form") for line in report.lines)


def _looped_banana(loops: int) -> MultiDigraph:
    """``a b / b a / a a loops``: two bridges with reverse arcs, many parallel loops."""
    return MultiDigraph.of([("a", "b"), ("b", "a")] + [("a", "a")] * loops)


# parallel copies, some with their reverse arc listed between them
PARALLEL_HOSTS = (
    _looped_banana(3),
    parallel_pair("u", "v", 3),
    doubled_cycle(["p", "q", "r"]),
    MultiDigraph.of([("a", "b"), ("b", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("b", "b")]),
    MultiDigraph.of([("y", "x"), ("x", "y"), ("z", "z"), ("x", "y"), ("y", "z"), ("z", "x")]),
)
ARC_LINE = re.compile(r"(VIOLATION: )?(\w+) at arc (\d+) \(")


@pytest.mark.parametrize("g", [_looped_banana(2000), parallel_pair("a", "b", 300)])
def test_recursions_check_each_distinct_arc_once(monkeypatch, g):
    calls = {"recursion_kind": 0, "_arc_identity": 0}
    for name in calls:

        def counted(*args, name=name, real=getattr(tutte, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(tutte, name, counted)
    report = run_check("recursions", g)
    assert report.ok
    distinct = len(set(g.arcs))
    assert calls == {"recursion_kind": distinct, "_arc_identity": distinct}
    indices = [int(m[3]) for m in map(ARC_LINE.match, report.lines) if m]
    assert indices == list(range(len(g.arcs)))  # one line per arc index, copies included


def test_recursions_verdicts_match_the_per_index_checker():
    for g in (*corpus(), *PARALLEL_HOSTS):
        lines = run_check("recursions", g).lines
        verdicts = {int(m[3]): (m[2], m[1] is None) for m in map(ARC_LINE.match, lines) if m}
        kinds = {i: tutte.recursion_kind(g, i) for i in range(len(g.arcs))}
        assert sorted(verdicts) == [i for i, kind in kinds.items() if kind is not None], g
        for i, (kind, ok) in verdicts.items():
            assert kind == kinds[i] and ok == tutte.check_recursion(g, kind, i), (g, i)


NOT_STRONG = MultiDigraph.of([("a", "b"), ("b", "a"), ("b", "c")])
EULERIAN_HOSTED = {
    "tutte_gen": lambda g: tutte.tutte_gen(g, "a"),
    "check_recursion": lambda g: tutte.check_recursion(g, "mobius", "a"),
    "pw_closed_form_check": lambda g: tutte.pw_closed_form_check(g, "a", ["b"]),
    "recursions suite": lambda g: run_check("recursions", g),
}


@pytest.mark.parametrize("host", [NON_EULERIAN, NOT_STRONG], ids=["unbalanced", "not-strong"])
@pytest.mark.parametrize("name", EULERIAN_HOSTED)
def test_eulerian_hypothesis_has_one_message(name, host):
    with pytest.raises(GraphError) as raised:
        EULERIAN_HOSTED[name](host)
    assert str(raised.value) == "operation requires an Eulerian graph"


def test_conjecture1_strong_connectivity_hypothesis_has_one_message():
    with pytest.raises(GraphError) as raised:
        lattice.conjecture1_check(NOT_STRONG)
    assert str(raised.value) == "operation requires a strongly connected graph"


# sha256 of `cfg check <input> --property P --verbose` stdout, recorded before
# the suites moved onto chip vectors; every report line is covered
VERBOSE_REPORT_DIGESTS = {
    "sink-independence": (
        "82b9b72c0dc1494718884ae6cdf7e7ea1d46d2f355982b3009493ba02da502d5",
        "9855e60d8703100b9fc0188898d0dcb30d97aea653590b20a06186fde4088939",
        "bbcb7cff6f51652afad16ee195b03c7d15fe28925b5a8c9424209ecb54021cba",
    ),
    "recursions": (
        "f508e8d86cf2b5c0eb31cbad8ac481e1fcf0ca56bcac2f68f35cafa93ca36298",
        "e54a6b7b8a29516c82e108d2f31733f113c0a3fc91e3dd25ab1679be5f303ab6",
        "30cc218b43f9fe6a073fbbe1c8fdc3e9d2d4144ecc4ddfd48a9c629341412172",
    ),
    "theta": (
        "0ef53a5f30655fa12fe9643ba9ba3ae27481146a6dce2508bb4b1bfb7638e8b8",
        "39a802f12422f864b78c10ac836f05d4301b15200283350e44cb0861b801263a",
        "5724737e5c6ea17e39c47d2e7adff5af9d2f089a61ae33c41d9b41728e14d8eb",
    ),
    "max-sum": (
        "3d16314c86b8e5cd1c7cba43256670e6b9fdfdc9bc6062ac14a3ca244f26a321",
        "a27b6a13955a61c38c1d86cedd1f4969f9c8b0d807436385abf7845496d3d3b7",
        "a172fab37b2547b82a8adf888406e6d004732199e46bdd29901e5a8a68cbf552",
    ),
    "burning-uniqueness": (
        "6ca29239ec71484b7cbd5750593adf35203cc2983d0e1479a715b30cd792591a",
        "7520fd8781816394857606dd14d59dd47593e1bf585081b706ab7ba2fcfa322c",
        "5fb67d0461333343f7d3566f8f7f3ce3adca01839b89233e34f8016be3d51172",
    ),
}
VERBOSE_REPORT_INPUTS = (
    ["tests/data/demo5.txt"],
    ["tests/data/swapdemo.txt"],
    ["--seed", "7", "--count", "25"],
)


@pytest.mark.parametrize("prop", PROPERTIES)
def test_verbose_reports_pinned(prop, capsys, monkeypatch):
    monkeypatch.chdir(DATA.parent.parent)  # the file names are part of the report
    for argv, digest in zip(VERBOSE_REPORT_INPUTS, VERBOSE_REPORT_DIGESTS[prop]):
        assert main(["check", *argv, "--property", prop, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (prop, argv)


def test_burning_uniqueness_kernel_matches_stabilize_reference():
    for g in (K3, data_graph("demo5.txt"), data_graph("swapdemo.txt"), *corpus()[:80]):
        assert run_check("burning-uniqueness", g) == reference_burning_uniqueness(g)


def test_burning_uniqueness_refuses_non_eulerian_hosts_like_the_reference(tmp_path, capsys):
    # the suite burns with one sink firing only because it runs on no other host
    message = "operation requires an Eulerian graph"
    for g in (NON_EULERIAN, *non_eulerian_corpus()):
        with pytest.raises(GraphError, match=message):
            run_check("burning-uniqueness", g)
        with pytest.raises(GraphError, match=message):
            reference_burning_uniqueness(g)
    path = tmp_path / "non_eulerian.txt"
    path.write_text("s a\na b\nb s\na s\n")
    assert main(["check", str(path), "--property", "burning-uniqueness"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def _settle_firing_twice(real, vertex: int, run: int):
    """``_settle`` that reports one extra firing at domain position ``vertex`` on
    its ``run``-th call."""
    calls = [0]

    def settle(chips, movers):
        counts = real(chips, movers)
        calls[0] += 1
        if calls[0] == run:
            counts[vertex] += 1
        return counts

    return settle


def test_burning_uniqueness_reports_a_double_firing_like_the_reference(monkeypatch):
    g = data_graph("demo5.txt")
    for s in g.vertices:
        enumerate_recurrents(g, s)  # enumerated before any _settle is patched
    real = dynamics._settle
    # the third run has sink s and fires v2 (domain position 1) twice
    monkeypatch.setattr(dynamics, "_settle", _settle_firing_twice(real, 1, 3))
    expected = reference_burning_uniqueness(g)
    monkeypatch.setattr(dynamics, "_settle", real)
    monkeypatch.setattr(recurrent, "_settle", _settle_firing_twice(real, 1, 3))
    report = run_check("burning-uniqueness", g)
    assert not report.ok and report == expected
    violations = [line for line in report.lines if line.startswith("VIOLATION")]
    assert len(violations) == 1
    assert violations[0].startswith("VIOLATION: burning run of Configuration(sink='s', ")
    assert violations[0].endswith(" fired {'v2': 2}")


def test_burning_uniqueness_refuses_a_run_that_does_not_return_its_member(monkeypatch):
    g = data_graph("demo5.txt")
    for s in g.vertices:
        enumerate_recurrents(g, s)  # enumerated before any _settle is patched
    real = recurrent._settle

    def settle_keeping_a_chip(chips, movers):
        counts = real(chips, movers)
        chips[-1] += 1
        return counts

    monkeypatch.setattr(recurrent, "_settle", settle_keeping_a_chip)
    with pytest.raises(InternalCheckError, match="did not return it"):
        run_check("burning-uniqueness", g)


def test_suites_compute_one_reduced_laplacian_per_game(monkeypatch):
    # fresh vertex names, so no game of these graphs is cached before the run
    graphs = [
        MultiDigraph.of([(f"r{t}", f"r{h}") for t, h in g.arcs], [f"r{v}" for v in g.vertices])
        for g in corpus()[:20]
    ]
    calls = Counter()
    real = recurrent.reduced_laplacian
    # every module's binding, so a build through an imported name is counted too
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "chipfiring" and vars(module).get("reduced_laplacian") is real:
            monkeypatch.setattr(
                module, "reduced_laplacian", lambda g, s: calls.update([(g, s)]) or real(g, s)
            )
    for g in graphs:
        for prop in PROPERTIES:
            assert run_check(prop, g).ok
    assert len(calls) > 100 and set(calls.values()) == {1}


@pytest.mark.parametrize("prop", PROPERTIES)
def test_passing_suites_build_no_configuration(prop, monkeypatch):
    graphs = corpus()[:40]
    built = []
    real = Configuration.__post_init__
    monkeypatch.setattr(Configuration, "__post_init__", lambda c: built.append(c) or real(c))
    for g in graphs:
        assert run_check(prop, g).ok
    assert built == []
