"""Graph duality: reversing every edge is a local-unitary move.

For a bipartite graph state, swapping the roles of the two vertex classes
and reversing all edges (keeping labels) yields a dual state.  The H/V
dressing, (H^dagger V) on every source and (V H) on every sink, turns a
generalized CNOT of label a into the reversed CNOT with digit map R M_a^T R,
where M_a is the n x n Z_p multiplication matrix and R the coefficient
reversal.  So it reverses label a exactly when M_a is persymmetric: always
over prime fields, but not for every (field, polynomial) choice - e.g.
GF(4) with x^2+x+1.  One array core decides that per label, exactly:
conjugation_report over the whole field and every polynomial,
verify_dual_equivalence (dual-check) over the labels of the given graph.
The dual pair also shares the local-unitary invariant signature (sorted
multiset of bipartite RDM spectra), compared densely within the one
tolerance simulator.DEFAULT_TOL = 1e-10.
Graph-state amplitudes are real (0 or d^(-k/2)), so simulator's
bipartite_spectra forms each RDM as the float64 Gram m m^T and runs a
real eigvalsh on it: the same matrices and spectra as in complex
arithmetic, at a fraction of the cost.
dressed_state applies the dressing to the dense state: the tests' oracle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from typing import Optional

import numpy as np

from .gf import Field, irreducible_polynomials
from .rewrite import GraphState
from .simulator import (
    DEFAULT_TOL,
    Gate,
    ResourceGuardError,
    StateVector,
    check_state_size,
    run_gates,
    signatures_match,
)


def dual_graph(g: GraphState) -> GraphState:
    """Swap vertex classes and reverse every edge, keeping labels: the block B becomes B^T."""
    return GraphState(g.field, g.o_wires, g.s_wires, g.block.T)


# ---------------------------------------------------------------------------
# Conjugation identity
# ---------------------------------------------------------------------------

CONJUGATION_LIMIT = 2 ** 17  # label checks (polynomials x labels) one conjugation_report may make


def _label_fragments(fld: Field, labels: np.ndarray) -> list[dict]:
    """Decide every label at once: the identity holds exactly when M_a is persymmetric, R M_a^T R = M_a.

    M_a is the Z_p multiplication matrix and R the coefficient reversal.  A
    failing label's counterexample is the first differing entry (i, j) with
    both Z_p values.
    """
    rhs = fld.mul_matrix(labels)
    lhs = rhs[:, ::-1, ::-1].swapaxes(1, 2)
    differs = (lhs != rhs).reshape(len(labels), fld.n * fld.n)  # -1 cannot be inferred from no labels
    i, j = np.divmod(differs.argmax(axis=1), fld.n)
    rows = np.arange(len(labels))
    cells = zip(i.tolist(), j.tolist(), lhs[rows, i, j].tolist(), rhs[rows, i, j].tolist())
    return [{"a": a, "holds": not bad, "counterexample": {"entry": [r, c], "lhs": lv, "rhs": rv} if bad else None}
            for a, bad, (r, c, lv, rv) in zip(labels.tolist(), differs.any(axis=1).tolist(), cells)]


def check_conjugation_identity(fld: Field, a: int) -> dict:
    """Decide exactly whether the H/V dressing reverses a two-wire CNOT of label a.

    The left-hand side is C_12(a) conjugated by (H^dagger V) on wire 1 and
    (V H) on wire 2, with H^dagger expanded as H * D(-1) as dressing_gates
    does; it equals C_21(a) exactly when M_a is persymmetric.  `a` must be
    nonzero.
    """
    if not 0 < a < fld.d:
        raise ValueError("label must be a nonzero field element")
    return _label_fragments(fld, np.array([a]))[0]


def _labels_report(fld: Field) -> dict:
    """Conjugation identity for every nonzero label under fld's polynomial."""
    per_element = _label_fragments(fld, np.arange(1, fld.d))
    return {
        "field": fld.descriptor(),
        "holds_all": all(f["holds"] for f in per_element),
        "per_element": per_element,
    }


def conjugation_report(fld: Field) -> dict:
    """Conjugation identity over all nonzero labels, per polynomial, decided exactly.

    If any label fails for the field's polynomial, every other monic
    irreducible polynomial of the same degree is checked as well, so the
    outcome is recorded per representation rather than presumed.  Each
    polynomial costs one O(d) table set and d - 1 label checks, for at most
    d/n polynomials (one on a prime field, where a 1 x 1 M_a always holds).
    Before enumerating anything the report raises ResourceGuardError when
    those d^2/n checks exceed CONJUGATION_LIMIT: GF(1024) (about 105k) takes
    about 0.7 s on 2 cores with numpy 2.4; GF(2048) and GF(23^2) are refused.
    """
    polys = 1 if fld.n == 1 else fld.d // fld.n
    if polys * fld.d > CONJUGATION_LIMIT:
        raise ResourceGuardError(f"conjugation report over GF({fld.d}) may check {polys} polynomials x "
                                 f"{fld.d} labels, above the {CONJUGATION_LIMIT} limit")
    report = _labels_report(fld)
    if not report["holds_all"]:
        report["alternative_polynomials"] = [
            _labels_report(Field(fld.p, fld.n, poly))
            for poly in irreducible_polynomials(fld.p, fld.n)
            if poly != fld.poly
        ]
    return report


# ---------------------------------------------------------------------------
# Dual-state equivalence
# ---------------------------------------------------------------------------

RDM_ROWS_LIMIT = 2 ** 10  # rows of the largest RDM one dual-check diagonalizes (2 x 35 of them at 8 wires)


@dataclass
class DualityReport:
    field_descriptor: str
    state_equivalence_holds: bool
    signature_match: bool
    max_deviation: float
    counterexample: Optional[dict] = None
    details: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        report = asdict(self)
        report["field"] = report.pop("field_descriptor")
        report["tolerance"] = DEFAULT_TOL
        report["decided_by"] = {"state_equivalence_holds": "persymmetry", "signature_match": "dense-spectrum"}
        return report


def dressing_gates(g: GraphState) -> list[Gate]:
    """Time-ordered local gates of the H/V dressing, which maps the graph state onto its dual where its labels hold.

    Source wires receive the operator H^dagger V and sink wires V H, with
    H^dagger expanded as H * D(-1).
    """
    fld = g.field
    minus_one = fld.neg(1)
    gates: list[Gate] = []
    for m in g.s_wires:
        gates.append(Gate("V", (m,)))
        if minus_one != 1:
            gates.append(Gate("D", (m,), minus_one))
        gates.append(Gate("H", (m,)))
    for n in g.o_wires:
        gates.append(Gate("H", (n,)))
        gates.append(Gate("V", (n,)))
    return gates


def dressed_state(g: GraphState) -> StateVector:
    """The dressing applied to g's dense state: the tests' oracle for the exact dressing verdict."""
    return run_gates(g.state(), dressing_gates(g))


def verify_dual_equivalence(g: GraphState) -> DualityReport:
    """Compare a graph state with its dual: the dressing exactly, the signature within DEFAULT_TOL.

    state_equivalence_holds reads the block's labels only.  The edge gates
    C_{s->o}(a) commute, the dressing maps the graph's initial register (|s>
    on the sources, |0> on the sinks) onto the dual's, and it conjugates
    each edge gate into the reversed CNOT with digit map R M_a^T R.  So the
    dressed state is the dual state exactly when that map is M_a for every
    label a in the block; the counterexample names the smallest failing
    label and its first differing entry.  signature_match, the verdict,
    compares the sorted multisets of bipartite RDM spectra within DEFAULT_TOL,
    and max_deviation is its deviation; a signature counterexample takes
    precedence.  The report's dict names that tolerance and the method
    behind each verdict (tolerance, decided_by).  Before building a state
    it raises ResourceGuardError above 8 qudits, past the 2^24 amplitude
    guard, or when the signature's largest RDM, d^(N//2) rows, exceeds
    RDM_ROWS_LIMIT (8 wires over GF(8): 4096).
    """
    if g.n > 8:
        raise ResourceGuardError("dual-state verification is limited to 8 qudits")
    check_state_size(g.field.d, g.n)
    if g.field.d ** (g.n // 2) > RDM_ROWS_LIMIT:
        raise ResourceGuardError(f"signature RDMs of {g.field.d}^{g.n // 2} rows exceed the {RDM_ROWS_LIMIT}-row limit")
    dual = dual_graph(g)
    labels = np.flatnonzero(np.bincount(g.block[g.block != 0]))  # ascending; np.unique would import numpy.ma
    failing = [f for f in _label_fragments(g.field, labels) if not f["holds"]]
    sig_ok, sig_dev = signatures_match(g.state().amps, dual.state().amps, g.field.d, g.n)

    counterexample = {"kind": "dressing", "label": failing[0]["a"], **failing[0]["counterexample"]} if failing else None
    if not sig_ok:
        counterexample = {"kind": "signature", "max_deviation": sig_dev}
    return DualityReport(
        field_descriptor=g.field.descriptor(),
        state_equivalence_holds=not failing,
        signature_match=sig_ok,
        max_deviation=sig_dev,
        counterexample=counterexample,
        details={
            "signature_deviation": sig_dev,
            "dual": {"S": list(dual.s_wires), "O": list(dual.o_wires)},
        },
    )
