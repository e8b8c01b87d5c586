import itertools

import pytest

from chipfiring import (
    Configuration,
    ConfigurationError,
    augment_sink,
    check_sink_independence,
    enumerate_recurrents,
    restrict,
    stabilize,
    swap_number,
    theta,
)
from chipfiring.bijection import _swapper

from support import (
    bidirected_complete,
    configs,
    corpus,
    data_graph,
    delete_out_arcs,
    directed_cycle,
    is_minimal,
    is_minimum,
)

C3 = directed_cycle(["s", "a", "b"])
K3 = bidirected_complete(["s", "a", "b"])


def cfg(g, sink, **chips):
    return Configuration.of(g, chips, sink=sink)


def test_swap_number_examples():
    assert swap_number(C3, "s", "a", cfg(C3, "s")) == 0
    assert swap_number(K3, "s", "a", cfg(K3, "s", a=1)) == 0
    demo = data_graph("swapdemo.txt")
    rs = enumerate_recurrents(demo, "v5")
    c = cfg(demo, "v5", v2=2, v3=1)
    assert is_minimal(rs, c) and not is_minimum(rs, c)
    assert swap_number(demo, "v5", "v4", c) == 1


def test_swap_number_preconditions():
    with pytest.raises(ConfigurationError):
        swap_number(K3, "s", "s", cfg(K3, "s", a=1))
    with pytest.raises(ConfigurationError):
        swap_number(K3, "s", "a", cfg(K3, "s"))  # not recurrent
    with pytest.raises(ConfigurationError):
        theta(K3, "s", "s", cfg(K3, "s", a=1))
    with pytest.raises(ConfigurationError):
        theta(K3, "s", "a", cfg(K3, "s"))  # not recurrent


def _reference_swap(g, s1, s2, c):
    """The swap search on Configuration objects: add one chip to s1 and
    stabilize on the graph with s2's out-arcs deleted, until s2 holds
    outdeg(s2) + i chips."""
    host = delete_out_arcs(g, s2)
    state, _ = stabilize(host, augment_sink(c, 0))
    i = 0
    while state.chip(s2) != g.outdeg(s2) + i:
        i += 1
        chips = state.as_dict()
        chips[s1] += 1
        state, _ = stabilize(host, Configuration.of(g, chips))
    return i, state


def test_integer_swap_search_matches_reference_loop():
    searches = 0
    for g in corpus():
        for s1, s2 in itertools.permutations(g.vertices, 2):
            swap = _swapper(g, g.vertex_index(s1), g.vertex_index(s2))
            for c in configs(enumerate_recurrents(g, s1)):
                i, state = _reference_swap(g, s1, s2, c)
                assert swap(c.chips) == (i, list(restrict(state, s2).chips))
                searches += 1
    assert searches == 11_900


def test_theta_examples():
    result = theta(C3, "s", "a", cfg(C3, "s"))
    assert result.swap_number == 0 and result.image.total() == 0
    result = theta(K3, "s", "a", cfg(K3, "s", a=1))
    assert result.swap_number == 0
    assert result.image.as_dict() == {"s": 0, "b": 1}
    assert K3.outdeg("s") + 1 == K3.outdeg("a") + result.image.total()
    data = result.to_json_dict()
    assert data["source_sink"] == "s" and data["image"] == {"s": 0, "b": 1}


def test_check_sink_independence_examples():
    demo = data_graph("demo5.txt")
    common = check_sink_independence(demo)
    assert common == (4, 4, 5, 5, 5, 6)
    raw_s = sorted(c.total() for c in configs(enumerate_recurrents(demo, "s")))
    raw_v3 = sorted(c.total() for c in configs(enumerate_recurrents(demo, "v3")))
    assert raw_s == [2, 2, 3, 3, 3, 4]
    assert raw_v3 == [1, 1, 2, 2, 2, 3]
    assert check_sink_independence(K3) == (3, 3, 4)


def test_theta_suite_over_sample():
    for g in corpus()[:25]:
        recurrents = {s: enumerate_recurrents(g, s) for s in g.vertices}
        for s1, s2 in itertools.permutations(g.vertices, 2):
            rs = recurrents[s1]
            members = configs(rs)
            images = []
            swaps = []
            for c in members:
                result = theta(g, s1, s2, c)
                images.append(result.image.chips)
                swaps.append(result.swap_number)
                # sum preservation
                assert g.outdeg(s1) + c.total() == g.outdeg(s2) + result.image.total()
                # swap symmetry
                assert swap_number(g, s2, s1, result.image) == result.swap_number
                # exact round trip through the other sink game
                back, _ = stabilize(
                    delete_out_arcs(g, s1),
                    augment_sink(result.image, result.swap_number),
                )
                assert back.chips == augment_sink(c, result.swap_number).chips
                if is_minimum(rs, c):
                    assert result.swap_number == 0
            # injectivity onto the other recurrent set
            assert len(set(images)) == len(rs)
            assert set(images) <= set(recurrents[s2].decode())
            # pointwise monotonicity of swap numbers
            for (i, c), (j, d) in itertools.permutations(enumerate(members), 2):
                if c.leq(d):
                    assert swaps[i] <= swaps[j]
