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
    "conjecture1_check", "contract_arc", "contract_vertices", "delete_arcs",
    "delete_out_arcs", "enumerate_recurrents", "equivalence_classes", "fire",
    "firing_lattice", "is_bridge", "is_eulerian", "is_firable", "is_recurrent",
    "is_undirected", "kappa", "level", "parse_config_literal", "parse_edge_list",
    "pw_closed_form_check", "recurrent_definitional_test", "remove_loops", "restrict",
    "reverse_partner", "stabilize", "swap_number", "theta", "tutte_gen",
    "undirected_tutte_oracle",
)

# lemma helpers that only the tests call; they live in tests/support.py
TEST_ONLY = (
    "BridgeCut", "bridge_cut", "is_minimal", "is_minimum", "loop_lift",
    "support_after_sink_fire", "_require_member", "recurrent_count",
)


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(chipfiring).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert tuple(names) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 51


def test_test_only_helpers_are_not_in_the_package():
    for module in (chipfiring, recurrent, graph):
        for name in TEST_ONLY:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(recurrent.RecurrentSet, "index")
    assert "__contains__" not in vars(recurrent.RecurrentSet)
