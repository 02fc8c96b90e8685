"""Four-party maximal entanglement: constructions, verdicts, rank oracles.

A pure state of N qudits counts as maximally entangled when every
bipartition leaves the smaller side maximally mixed.  Two constructions
cover four parties:

* square_state: the four-qudit bipartite-square graph state over GF(d) with
  one edge label left free (the "twist").  It is maximally entangled exactly
  when the twist avoids 0 and 1.
* ring_square_state: the analogous state over the plain ring Z_d,
  d^-1 * sum |i, i-k, k, i+k>, defined for any integer d >= 2.  It is
  maximally entangled for odd d and never for even d.

Tensoring such states systemwise preserves the property, which yields a
construction for every dimension that is odd (ring(d)) or a multiple of
four, d = 2^m * o with o odd (square(GF(2^m)) times ring(o) when o > 1).
Each is an orthogonal array of d^2 kets, built as a SupportState of float64
amplitudes 1/d (d <= 64 by the 2^24 guard on d^4 amplitudes) and decided
from that exact support.
For d = 2 mod 4 none is implemented.  Such states do exist for every d = 2
mod 4 except 2: d = 2 is impossible (Higuchi and Sudbery, quant-ph/0005013);
d = 6 has a state that is not a permutation of basis kets (Rather et al.,
arXiv:2104.05122); every other such d has a pair of orthogonal Latin squares
(Bose, Shrikhande and Parker, 1960), whose orthogonal array
{(i, j, L1(i, j), L2(i, j))} is the support of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gf import Field
from .rewrite import SymbolicState, rank_exponents
from .simulator import (
    DEFAULT_TOL,
    ResourceGuardError,
    SupportState,
    bipartition_subsets,
    check_state_size,
    ket_index,
    ket_order,
    real_if_exact,
    reduced_density_raw,
    spectrum,
)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def square_state(fld: Field, twist: int) -> SupportState:
    """Four-qudit square-graph state with edge labels (1, 1, 1, twist).

    Amplitude d^-1 on the d^2 kets |i, i + twist*k, k, i + k> for i, k in the
    field: the support of rows [1, 1, 0, 1] and [0, twist, 1, 1], ascending as
    a dump lists them.  Any twist is accepted; mes_verdict flags 0 and 1.
    """
    if not 0 <= twist < fld.d:
        raise ValueError(f"twist {twist} out of range for order-{fld.d} field")
    return SymbolicState(fld, 4, [[1, 1, 0, 1], [0, twist, 1, 1]], np.zeros(4, dtype=np.int64)).support()


def ring_square_state(d: int) -> SupportState:
    """The Z_d square state d^-1 * sum |i, i-k, k, i+k> for any integer d >= 2."""
    if d < 2:
        raise ValueError("ring dimension must be at least 2")
    check_state_size(d, 4)
    i, k = np.indices((d, d)).reshape(2, -1)
    digits = np.stack([i, (i - k) % d, k, (i + k) % d])
    return SupportState(d, 4, digits[:, ket_order(d, digits)], np.full(i.size, 1.0 / d))


def compose_mes(states: Sequence[SupportState]) -> SupportState:
    """Systemwise tensor product of maximally entangled states.

    System q of the output is the tuple of the inputs' systems q, one
    mixed-radix digit.  A non-maximal input raises ValueError.
    """
    if not states:
        raise ValueError("need at least one state")
    for s in states:
        if not mes_verdict(s).verdict:
            raise ValueError("compose_mes inputs must be maximally entangled")
    if len(states) == 1:
        return states[0]
    n = states[0].n
    if any(s.n != n for s in states):
        raise ValueError("all states must have the same number of systems")
    d_total = math.prod(s.d for s in states)
    check_state_size(d_total, n)
    digits, amps = np.zeros((n, 1), dtype=np.int64), np.ones(1)
    for s in states:
        digits = (digits[:, :, None] * s.d + s.digits[:, None, :]).reshape(n, -1)
        amps = np.multiply.outer(amps, s.amps).reshape(-1)
    order = ket_order(d_total, digits)
    return SupportState(d_total, n, digits[:, order], amps[order])


@dataclass
class MesConstruction:
    d: int
    ok: bool
    state: Optional[SupportState]
    construction: str
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        return {"d": self.d, "ok": self.ok, "construction": self.construction, "reason": self.reason}


def _refusal(d: int) -> str:
    """Why build_mes has no state for a dimension d = 2 mod 4."""
    if d == 2:
        return ("no 4-party maximally entangled state of dimension 2 exists "
                "(Higuchi and Sudbery, quant-ph/0005013)")
    if d == 6:
        source = ("one that is not a permutation of basis kets is known "
                  "(Rather et al., arXiv:2104.05122)")
    else:
        source = (f"a pair of orthogonal Latin squares of order {d} gives one "
                  "(Bose, Shrikhande and Parker, 1960)")
    return (f"a 4-party maximally entangled state of dimension {d} exists: {source}; "
            "no construction for it is implemented here")


def build_mes(d: int) -> MesConstruction:
    """Construct a 4-party maximally entangled state of per-system dimension d.

    Odd d >= 3 uses the ring square state.  A multiple of four, d = 2^m * o
    with o odd, tensors a GF(2^m) square state (smallest admissible twist,
    element index 2) with the ring square state of o when o > 1.
    Dimensions of the form 2 mod 4 are refused, with the reason: none exists
    for d = 2, and for the others one exists but none is constructed here
    (the even ring construction fails).  Every other d passes the guard on
    d^4 amplitudes first (d <= 64); the state holds its d^2 kets.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if d % 4 == 2:
        return MesConstruction(d, False, None, "none", reason=_refusal(d))
    check_state_size(d, 4)
    if d % 2 == 1:
        return MesConstruction(d, True, ring_square_state(d), f"ring({d})")
    m = (d & -d).bit_length() - 1
    odd = d >> m
    parts = [square_state(Field(2, m), 2)]
    label = f"square(GF(2^{m}),twist=2)"
    if odd > 1:
        parts.append(ring_square_state(odd))
        label += f" x ring({odd})"
    return MesConstruction(d, True, compose_mes(parts), label)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass
class BipartitionRecord:
    subset: tuple[int, ...]
    rank: int
    flat: bool
    maximally_mixed: bool
    deviation: float
    method: str  # "diagonal" (exact marginal) or "spectrum" (dense eigvalsh)


@dataclass
class BipartitionReport:
    verdict: bool
    records: list[BipartitionRecord]

    @property
    def decided_by(self) -> str:
        if all(r.method == "diagonal" for r in self.records):
            return "diagonal-marginals"
        return "dense-spectrum"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "decided_by": self.decided_by,
            "tolerance": DEFAULT_TOL,
            "bipartitions": [
                {
                    "A": list(r.subset),
                    "rank": r.rank,
                    "flat": r.flat,
                    "maximally_mixed": r.maximally_mixed,
                    "deviation": r.deviation,
                    "method": r.method,
                }
                for r in self.records
            ],
        }


def _diagonal_marginal(weights: np.ndarray, digits: np.ndarray, d: int,
                       subset: Sequence[int]) -> Optional[np.ndarray]:
    """The marginal p(a) over the digits of subset, or None unless the RDM is diagonal.

    weights are |psi|^2 over the support kets and digits[q] holds digit q + 1
    of each.  The RDM is sum_b psi(a, b) psi*(a', b); when no two support
    kets share their complement digits b, no term has a != a', so the RDM is
    diagonal with diagonal p.
    """
    rest = (digits[q - 1] for q in range(1, len(digits) + 1) if q not in subset)
    b = np.sort(ket_index(rest, d))
    if np.any(b[1:] == b[:-1]):
        return None
    a = ket_index((digits[q - 1] for q in subset), d)
    return np.bincount(a, weights=weights, minlength=d ** len(subset))


def mes_verdict(state: SupportState) -> BipartitionReport:
    """Check every bipartition's smaller side against the maximally mixed state.

    For 4 parties the report covers the 4 singletons plus the 3 unordered
    two-against-two splits, each listed once from the side containing
    system 1.  Raises ValueError for fewer than two systems, which have no
    bipartition, and for a state whose norm is off 1 by more than
    DEFAULT_TOL = 1e-10, the one tolerance of every test below.

    A bipartition A|B is decided exactly when its RDM is provably diagonal:
    when the exact support S (the state's kets of nonzero amplitude, no
    threshold) maps injectively onto the digits of B.  Then no two kets of S
    meet in an off-diagonal term, the spectrum is the marginal p(a), the sum
    of |psi|^2 over the kets of S with A-digits a, and the record's method is
    "diagonal".  Otherwise (in particular when |S| > d^|B|, which rules
    injectivity out) the RDM is built from the guarded dense amplitudes
    (built once, real when every amplitude is exactly real) and its eigvalsh
    spectrum decides, with method "spectrum".  Both methods
    apply the same DEFAULT_TOL tests: rank counts eigenvalues above it, flat
    compares the nonzero ones, and the deviation from I/d^|A| is the largest
    over every RDM entry.  Every state build_mes makes, an orthogonal array
    of strength two, is decided from its d^2 kets with no dense array.
    """
    d, n = state.d, state.n
    if n < 2:
        raise ValueError(f"maximal entanglement needs at least 2 systems, got {n}")
    digits, amps = state.digits[:, state.amps != 0], state.amps[state.amps != 0]
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > DEFAULT_TOL:
        raise ValueError(f"state norm {norm!r} differs from 1 by more than the tolerance {DEFAULT_TOL!r}")
    weights = amps.real ** 2 + amps.imag ** 2
    records = []
    verdict = True
    dense = None  # the guarded dense amplitudes, real when exactly so, built at the first cut that needs them
    for subset in bipartition_subsets(n):
        dim = d ** len(subset)
        diag = _diagonal_marginal(weights, digits, d, subset)
        if diag is not None:
            # off-diagonal entries are exactly zero, as they are in I/dim
            dev = float(np.max(np.abs(diag - 1.0 / dim)))
            evals = np.sort(diag)[::-1]
            method = "diagonal"
        else:
            if dense is None:
                dense = real_if_exact(state.dense())
            rho = reduced_density_raw(dense, d, n, subset)
            dev = float(np.max(np.abs(rho - np.eye(dim) / dim)))
            evals = spectrum(rho)
            method = "spectrum"
        r = int(np.count_nonzero(evals > DEFAULT_TOL))
        nonzero = evals[:r] if r else evals[:1]
        flat = bool(nonzero.max() - nonzero.min() <= DEFAULT_TOL)
        mixed = dev <= DEFAULT_TOL
        verdict &= mixed
        records.append(BipartitionRecord(subset, r, flat, mixed, dev, method))
    return BipartitionReport(bool(verdict), records)


def symbolic_rdm_rank(sym: SymbolicState, subset: Sequence[int]) -> int:
    """Rank of a reduced density matrix straight from the coefficient matrix.

    The state is uniform over the row space of the matrix, whose standard
    form (SymbolicState.standard_form) is the GraphState [I_r | B] with the
    r pivot wires as the sources and the rest as the sinks.  The rank is d^e
    with e from rewrite.rank_exponents on its block B and the subset in the
    same wire order; offsets are local shifts and leave it unchanged.
    Cross-checked against dense ranks in the test suite.
    """
    keep = sorted(set(subset))
    if not keep or len(keep) == sym.n or any(not 1 <= q <= sym.n for q in keep):
        raise ValueError("subset must be a nonempty proper subset of the wires")
    graph, _ = sym.standard_form()
    position = {q: i + 1 for i, q in enumerate(graph.s_wires + graph.o_wires)}
    return sym.field.d ** int(rank_exponents(sym.field, graph.block[None], [[position[q] for q in keep]])[0, 0])


# ---------------------------------------------------------------------------
# Tripartite marginal checks
# ---------------------------------------------------------------------------

def tripartite_marginal_checks(d: int) -> dict:
    """Rank facts about tripartite states whose pair marginals are I/d^2.

    Part one: I/d^3, of rank d^3 >= d, is diagonal with weight d^-3 on each
    ket, so each pair marginal counts the kets of each pair of digits: the
    sum over the third axis of a (d, d, d) array of ones.  Part two, for
    every d that build_mes builds (d <= 64, else the reason it does not):
    tracing system 4 from its state leaves rho_ABC of rank d with the same
    marginals, read from one mes_verdict: pairs (1, 2) and (1, 3) and rank
    rho_ABC = rank rho_D from their own records, pair (2, 3) from its
    complement (1, 4).  Both sides of a cut of a pure state share their
    spectrum, and a flat full-rank spectrum on d^2 dimensions is I/d^2.
    """
    check_state_size(d, 3)
    ones = np.ones((d, d, d), dtype=np.uint8)  # one byte per ket: 16 MiB at d = 256
    marginals = (ones.sum(axis=axis).ravel() / d ** 3 for axis in (2, 1, 0))  # pairs (1, 2), (1, 3), (2, 3)
    trivial_dev = max(float(np.max(np.abs(m - 1.0 / d ** 2))) for m in marginals)
    report = {
        "d": d,
        "trivial": {
            "rank": d ** 3,
            "marginals_maximally_mixed": trivial_dev <= DEFAULT_TOL,
            "max_deviation": trivial_dev,
        },
    }
    try:
        built = build_mes(d)
    except ResourceGuardError as exc:
        built = MesConstruction(d, False, None, "none", reason=str(exc))
    if not built.ok:
        report["mes"] = {"available": False, "reason": built.reason}
        return report
    verdict = mes_verdict(built.state)
    records = {r.subset: r for r in verdict.records}
    pairs = [records[cut] for cut in ((1, 2), (1, 3), (1, 4))]  # (1, 4) stands for its complement (2, 3)
    report["mes"] = {
        "available": True,
        "construction": built.construction,
        "decided_by": verdict.decided_by,
        "rank": records[(4,)].rank,
        "rank_equals_d": records[(4,)].rank == d,
        "marginals_maximally_mixed": all(r.maximally_mixed for r in pairs),
        "max_deviation": max(r.deviation for r in pairs),
    }
    return report
