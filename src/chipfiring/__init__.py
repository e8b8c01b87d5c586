"""Chip-firing games on Eulerian multidigraphs with exact arithmetic.

The package enumerates recurrent configurations of the sink game, checks the
sink independence of their sum statistic via the swap bijection, builds the
generating polynomial of levels (a one-variable Tutte generalization), and
verifies its recursive identities.  All arithmetic is exact: big integers,
integer lattices in Hermite normal form, and integer Laurent polynomials.
"""

from .bijection import SwapResult, check_sink_independence, swap_number, theta
from .dynamics import (
    Configuration,
    FiringRecord,
    add,
    augment_sink,
    beta,
    fire,
    is_firable,
    is_stable,
    parse_config_literal,
    restrict,
    stabilize,
)
from .errors import (
    ChipFiringError,
    ConfigurationError,
    FiringError,
    GraphError,
    HypothesisError,
    InternalCheckError,
    NonTerminationError,
    PoleError,
    PropertyViolationError,
    SettingError,
    SizeCapError,
)
from .graph import (
    BridgeCut,
    MultiDigraph,
    bridge_cut,
    contract_arc,
    contract_vertices,
    delete_arcs,
    delete_out_arcs,
    is_bridge,
    is_eulerian,
    is_undirected,
    parse_edge_list,
    remove_loops,
    reverse_partner,
)
from .lattice import (
    IntegerLattice,
    conjecture1_check,
    equivalence_classes,
    firing_lattice,
)
from .oracles import recurrent_definitional_test
from .polynomial import LaurentPolynomial
from .recurrent import (
    RecurrentSet,
    enumerate_recurrents,
    is_minimal,
    is_minimum,
    is_recurrent,
    kappa,
    level,
    loop_lift,
    support_after_sink_fire,
)
from .tutte import (
    arborescence_count,
    check_recursion,
    pw_closed_form_check,
    tutte_gen,
    undirected_tutte_oracle,
)

__version__ = "0.1.0"
