"""Chip-firing games on Eulerian multidigraphs with exact arithmetic.

The package enumerates recurrent configurations of the sink game, checks the
sink independence of their sum statistic by comparing the enumerated sum
multisets of every sink, transports members between sinks by the swap
bijection (which the ``theta`` suite checks), builds the generating polynomial
of levels (a one-variable Tutte generalization), and verifies its recursive
identities.  All arithmetic is exact: big integers, integer lattices in
Smith normal form (membership and class keys), and integer Laurent
polynomials.
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
    MultiDigraph,
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
from .oracles import recurrent_definitional_test, undirected_tutte_oracle
from .polynomial import LaurentPolynomial
from .recurrent import (
    RecurrentSet,
    enumerate_recurrents,
    is_recurrent,
    kappa,
    level,
)
from .tutte import check_recursion, pw_closed_form_check, tutte_gen

__version__ = "0.1.0"
