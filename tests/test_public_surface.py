"""The names the package exports, pinned: a change to them is a contract change."""

import types

import chipfiring
from chipfiring import graph, recurrent

PUBLIC_NAMES = (
    "ChipFiringError", "Configuration", "ConfigurationError", "FiringError", "FiringRecord",
    "GraphError", "HypothesisError", "IntegerLattice", "InternalCheckError",
    "LaurentPolynomial", "MultiDigraph", "NonTerminationError", "PoleError",
    "PropertyViolationError", "RecurrentSet", "SettingError", "SizeCapError", "SwapResult",
    "add", "augment_sink", "beta", "check_recursion", "check_sink_independence",
    "conjecture1_check", "enumerate_recurrents", "equivalence_classes", "fire",
    "firing_lattice", "is_bridge", "is_eulerian", "is_firable", "is_recurrent",
    "is_undirected", "kappa", "level", "parse_config_literal", "parse_edge_list",
    "pw_closed_form_check", "recurrent_definitional_test", "restrict",
    "reverse_partner", "stabilize", "swap_number", "theta", "tutte_gen",
    "undirected_tutte_oracle",
)

# lemma helpers that only the tests call; they live in tests/support.py
TEST_ONLY = (
    "BridgeCut", "bridge_cut", "is_minimal", "is_minimum", "loop_lift",
    "support_after_sink_fire", "_require_member", "recurrent_count",
)
# the named graph rewrites; ``graph._rewrite`` makes every rewritten table, and
# tests/support.py holds the name-level reference it is compared against
NAMED_REWRITES = (
    "delete_out_arcs", "delete_arcs", "contract_arc", "contract_vertices",
    "remove_loops", "_contract", "_merged_name",
)


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(chipfiring).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert tuple(names) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 46


def test_test_only_helpers_are_not_in_the_package():
    for module in (chipfiring, recurrent, graph):
        for name in TEST_ONLY:
            assert not hasattr(module, name), (module.__name__, name)
    for module in (chipfiring, graph):
        for name in NAMED_REWRITES:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(recurrent.RecurrentSet, "index")
    # members are streamed by decode(); no decoded copy or per-member dict is kept
    assert not hasattr(recurrent.RecurrentSet, "configs")
    assert not hasattr(recurrent.RecurrentSet, "to_json_dict")
    assert not hasattr(graph.MultiDigraph, "reachable_from")
    assert "__contains__" not in vars(recurrent.RecurrentSet)
