import pytest

from chipfiring import MultiDigraph
from chipfiring.checks import PROPERTIES, run_check
from chipfiring.families import bidirected_complete, parallel_pair

from support import data_graph, non_eulerian_corpus

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
