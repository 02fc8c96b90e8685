"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable.
"""

import time
from itertools import product

import numpy as np
import pytest

from quditgraph import (
    Field,
    SymbolicState,
    build_mes,
    canonicalize,
    check_conjugation_identity,
    classify,
    conjugation_report,
    dual_graph,
    make_graph_state,
    mes_verdict,
    relations_suite,
    ring_square_state,
    square_state,
    symbolic_rdm_rank,
    tripartite_marginal_checks,
)
from quditgraph.simulator import signatures_match

from util import field_for, ket_strings, random_c_circuit

TOL = 1e-10


def _report(num: int, text: str, started: float) -> None:
    print(f"\nACCEPTANCE {num:2d} PASS: {text} ({time.perf_counter() - started:.2f}s)")


# ---------------------------------------------------------------------------
# 1. GF(4) arithmetic tables
# ---------------------------------------------------------------------------

def test_criterion_01_gf4_tables():
    t0 = time.perf_counter()
    f4 = Field(2, 2, (1, 1, 1))
    add_expected = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    mul_expected = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
    a, b = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert np.array_equal(f4.add_arr(a, b), add_expected)
    assert np.array_equal(f4.mul_arr(a, b), mul_expected)
    _report(1, "GF(4) addition and multiplication tables match the reference (32 entries)", t0)


# ---------------------------------------------------------------------------
# 2. Commutation relation suite
# ---------------------------------------------------------------------------

def test_criterion_02_commutation_relations():
    t0 = time.perf_counter()
    for d in (2, 3, 4, 5):
        report = relations_suite(field_for(d))
        assert report["ok"], report
    for d in (7, 8, 9):
        report = relations_suite(field_for(d), seed=20240 + d)
        assert report["ok"], report
        assert sum(r["checked"] for r in report["relations"].values()) == 1000
    _report(2, "all rewrite rules hold as dense operators (d=2..5 exhaustive, d=7,8,9 at 1000 seeded tuples)", t0)


# ---------------------------------------------------------------------------
# 3. Canonical form against the dense oracle
# ---------------------------------------------------------------------------

def test_criterion_03_canonicalization_oracle():
    t0 = time.perf_counter()
    for d in (2, 3, 4, 5):
        fld = field_for(d)
        rng = np.random.default_rng(5150 + d)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n))
            circuit = random_c_circuit(fld, n, k, int(rng.integers(1, 31)), rng)
            _, graph = canonicalize(circuit)
            dev = np.max(np.abs(circuit.simulate().amps - graph.state().amps))
            assert dev < TOL
    _report(3, "200 random circuits per field reduce to graphs reproducing the state within 1e-10", t0)


# ---------------------------------------------------------------------------
# 4. Literal expansion of the twist-2 square state over GF(4)
# ---------------------------------------------------------------------------

def test_criterion_04_square_state_literal():
    t0 = time.perf_counter()
    expected = [
        "0000", "0211", "0322", "0133",
        "1101", "1310", "1223", "1032",
        "2202", "2013", "2120", "2331",
        "3303", "3112", "3021", "3230",
    ]
    sq = square_state(field_for(4), 2)
    assert sorted(ket_strings(sq.dense(), 4, 4)) == sorted(expected)
    dense = sq.dense()
    nz = np.abs(dense) > 1e-12
    assert np.allclose(dense[nz], 0.25, atol=1e-15)
    _report(4, "twist-2 square state over GF(4) reproduces the 16-term expansion at amplitude 1/4", t0)


# ---------------------------------------------------------------------------
# 5. Square-state twist criterion across fields
# ---------------------------------------------------------------------------

def test_criterion_05_square_state_twist_criterion():
    t0 = time.perf_counter()
    for d in (3, 4, 5, 7, 8, 9):
        fld = field_for(d)
        for twist in range(fld.d):
            verdict = mes_verdict(square_state(fld, twist)).verdict
            assert verdict == (twist not in (0, 1)), (d, twist)
    fld2 = field_for(2)
    for twist in range(fld2.d):
        assert not mes_verdict(square_state(fld2, twist)).verdict
    _report(5, "square state maximally entangled exactly for twists outside {0,1}; never for qubits", t0)


# ---------------------------------------------------------------------------
# 6. Ring square state parity law
# ---------------------------------------------------------------------------

def test_criterion_06_ring_parity():
    t0 = time.perf_counter()
    for d in (3, 5, 7, 9, 11, 13, 15):
        assert mes_verdict(ring_square_state(d)).verdict, d
    for d in (2, 4, 6, 8):
        assert not mes_verdict(ring_square_state(d)).verdict, d
    _report(6, "ring square state passes for odd d in 3..15 and fails for even d in 2..8", t0)


# ---------------------------------------------------------------------------
# 7. Composite construction at d = 12, refusal at d = 6
# ---------------------------------------------------------------------------

def test_criterion_07_composite_dimension_12():
    t0 = time.perf_counter()
    built = build_mes(12)
    assert built.ok
    assert built.state.d == 12 and built.state.amps.size == 12 ** 2  # the support: an orthogonal array of d^2 kets
    report = mes_verdict(built.state)
    assert report.verdict
    assert len(report.records) == 7
    assert all(r.maximally_mixed for r in report.records)
    refused = build_mes(6)
    assert not refused.ok and refused.state is None
    _report(7, "d=12 composite passes all 7 subset checks within 1e-9; d=6 is refused", t0)


# ---------------------------------------------------------------------------
# 8. Duality: conjugation identity and invariant signatures
# ---------------------------------------------------------------------------

def test_criterion_08a_conjugation_identity_prime_fields():
    t0 = time.perf_counter()
    for p in (2, 3, 5, 7):
        fld = field_for(p)
        for a in range(1, p):
            frag = check_conjugation_identity(fld, a)
            assert frag["holds"], (p, a)
    _report(8, "(a) conjugation identity holds for all labels over the prime fields d=2,3,5,7", t0)


def test_criterion_08b_conjugation_identity_extension_fields():
    t0 = time.perf_counter()
    for d in (4, 8):
        report = conjugation_report(field_for(d))
        polys = [report] + report.get("alternative_polynomials", [])
        for sub in polys:
            for frag in sub["per_element"]:
                assert isinstance(frag["holds"], bool)
                assert frag["holds"] == (frag["counterexample"] is None)
        # recorded finding: the identity fails beyond the unit label for
        # every irreducible polynomial of GF(4) and GF(8)
        assert all(not sub["holds_all"] for sub in polys)
    _report(8, "(b) definitive per-polynomial reports recorded for GF(4) and GF(8)", t0)


def test_criterion_08c_dual_signatures_small_graphs():
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        fld = field_for(d)
        for n in (2, 3, 4):
            for k in range(1, n):
                s_wires = list(range(1, k + 1))
                o_wires = list(range(k + 1, n + 1))
                pairs = [(i, j) for i in s_wires for j in o_wires]
                for labels in product(range(d), repeat=len(pairs)):
                    g = make_graph_state(fld, s_wires, o_wires,
                                         [(i, j, b) for (i, j), b in zip(pairs, labels)])
                    dual = dual_graph(g)
                    ok, dev = signatures_match(g.state().amps, dual.state().amps, d, n)
                    assert ok, (d, n, k, labels, dev)
    _report(8, "(c) graph and dual share the invariant signature for every graph with N<=4, d<=4", t0)


# ---------------------------------------------------------------------------
# 9. Classification counts
# ---------------------------------------------------------------------------

def test_criterion_09_classification_counts():
    t0 = time.perf_counter()
    expected = {2: 1, 3: 1, 4: 2, 5: 2}
    for d in (2, 3):
        fld = field_for(d)
        for n, count in expected.items():
            report = classify(fld, n)
            assert report["count"] == count, (d, n, report["count"])
    _report(9, "class counts are 1,1,2,2 for N=2..5 over d=2 and d=3", t0)


# ---------------------------------------------------------------------------
# 10. Tripartite marginal rank facts
# ---------------------------------------------------------------------------

def test_criterion_10_tripartite_rank_checks():
    t0 = time.perf_counter()
    for d in (3, 4, 5):
        report = tripartite_marginal_checks(d)
        assert report["trivial"]["marginals_maximally_mixed"]
        assert report["trivial"]["rank"] == d ** 3 >= d
        assert report["mes"]["rank_equals_d"], report
        assert report["mes"]["marginals_maximally_mixed"]
        assert report["mes"]["max_deviation"] < TOL
    trivial_only = tripartite_marginal_checks(2)
    assert trivial_only["trivial"]["marginals_maximally_mixed"]
    _report(10, "tracing one system from each construction leaves rank d with I/d^2 marginals", t0)


# ---------------------------------------------------------------------------
# 11. Symbolic rank oracle against dense ranks
# ---------------------------------------------------------------------------

def test_criterion_11_symbolic_vs_dense_rank():
    t0 = time.perf_counter()
    for d in (2, 3, 4, 5):
        fld = field_for(d)
        rng = np.random.default_rng(9090 + d)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n))
            circuit = random_c_circuit(fld, n, k, int(rng.integers(0, 26)), rng)
            size = int(rng.integers(1, n))
            subset = tuple(sorted(rng.permutation(n)[:size] + 1))
            sym = SymbolicState.from_circuit(circuit)
            amps = circuit.simulate().amps
            a_axes = [q - 1 for q in subset]
            b_axes = [q for q in range(n) if q + 1 not in subset]
            m = amps.reshape([d] * n).transpose(a_axes + b_axes).reshape(d ** len(subset), -1)
            dense_rank = np.linalg.matrix_rank(m, tol=1e-10)
            assert symbolic_rdm_rank(sym, subset) == dense_rank, (d, subset)
    _report(11, "symbolic RDM rank equals dense rank on 500 seeded (circuit, subset) pairs per field", t0)
