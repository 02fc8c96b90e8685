"""Qudit graph states over finite fields.

Exact GF(p^n) arithmetic, dense simulation of generalized-CNOT circuits,
canonicalization to the standard bipartite graph form, graph duality checks,
and 4-party maximal-entanglement constructions and verdicts.
"""

from .gf import Field, default_irreducible, irreducible_polynomials, is_irreducible, is_prime
from .kernels import BACKEND as KERNEL_BACKEND
from .simulator import (
    Gate,
    GateColumns,
    ResourceGuardError,
    StateVector,
    SupportState,
    bipartition_subsets,
    dump_state,
    fourier_matrix,
    gate_matrix,
    init_state,
    parse_state_dump,
    run_gates,
    sequence_matrix,
    spectrum,
)
from .rewrite import (
    Circuit,
    CircuitParseError,
    GraphState,
    SymbolicState,
    canonicalize,
    graph_from_json_dict,
    graph_from_symbolic,
    graph_to_dot,
    graph_to_json_dict,
    make_graph_state,
    parse_circuit,
    relations_suite,
    states_equal_symbolic,
)
from .duality import (
    DualityReport,
    check_conjugation_identity,
    conjugation_report,
    dual_graph,
    verify_dual_equivalence,
)
from .entangle import (
    BipartitionReport,
    MesConstruction,
    build_mes,
    compose_mes,
    mes_verdict,
    ring_square_state,
    square_state,
    symbolic_rdm_rank,
    tripartite_marginal_checks,
)
from .classify import classify

__version__ = "0.1.0"
