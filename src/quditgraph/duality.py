"""Graph duality: reversing every edge is a local-unitary move.

For a bipartite graph state, swapping the roles of the two vertex classes
and reversing all edges (keeping labels) yields a dual state.  Over prime
fields the two are connected by an explicit local dressing built from the
Fourier gate H and the coefficient-reversal gate V: conjugating a
generalized CNOT by (H^dagger V) on the control and (V H) on the target
reverses its direction.

For extension fields that identity holds for label a exactly when the n x n
Z_p multiplication matrix M_a is persymmetric, which fails for some (field,
polynomial) choices - e.g. GF(4) with x^2+x+1.  conjugation_report *decides
exactly* that field-wide fact per element and polynomial.  dual-check reads
only the given graph: verify_dual_equivalence applies the dressing and
decides by the local-unitary invariant signature (sorted multiset of
bipartite RDM spectra), which matches for dual pairs regardless.
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
    differs = (lhs != rhs).reshape(len(labels), -1)
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
        return report


def dressing_gates(g: GraphState) -> list[Gate]:
    """Time-ordered local gates mapping the graph state onto its dual.

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


def verify_dual_equivalence(g: GraphState, tol: float = DEFAULT_TOL) -> DualityReport:
    """Compare a graph state against its dual, two ways.

    The explicit route applies the H/V dressing and tests equality up to a
    global phase.  The invariant route compares the sorted multiset of
    bipartite RDM spectra, which must agree for the dual pair even where the
    explicit dressing fails; it is the verdict (signature_match).  Before
    building a state it raises ResourceGuardError above 8 qudits, past the
    2^24 amplitude guard, or when the largest RDM of the signature, d^(N//2)
    rows, exceeds RDM_ROWS_LIMIT (8 wires over GF(8): 4096).
    """
    if g.n > 8:
        raise ResourceGuardError("dual-state verification is limited to 8 qudits")
    check_state_size(g.field.d, g.n)
    if g.field.d ** (g.n // 2) > RDM_ROWS_LIMIT:
        raise ResourceGuardError(f"signature RDMs of {g.field.d}^{g.n // 2} rows exceed the {RDM_ROWS_LIMIT}-row limit")
    state = g.state()
    dual = dual_graph(g)
    dual_state = dual.state()

    dressed = run_gates(state, dressing_gates(g))
    overlap = np.vdot(dual_state.amps, dressed.amps)
    equal = bool(abs(abs(overlap) - 1.0) <= tol)  # equal up to a global phase
    phase = overlap / abs(overlap) if abs(overlap) > 1e-14 else 1.0
    dressing_dev = float(np.max(np.abs(dressed.amps - phase * dual_state.amps)))

    sig_ok, sig_dev = signatures_match(state.amps, dual_state.amps, g.field.d, g.n, tol)

    counterexample = None
    if not equal:
        counterexample = {"kind": "dressing", "max_deviation": dressing_dev}
    if not sig_ok:
        counterexample = {"kind": "signature", "max_deviation": sig_dev}

    return DualityReport(
        field_descriptor=g.field.descriptor(),
        state_equivalence_holds=equal,
        signature_match=sig_ok,
        max_deviation=max(dressing_dev, sig_dev),
        counterexample=counterexample,
        details={
            "dressing_deviation": dressing_dev,
            "signature_deviation": sig_dev,
            "dual": {"S": list(dual.s_wires), "O": list(dual.o_wires)},
        },
    )
