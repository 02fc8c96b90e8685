from itertools import product

import numpy as np
import pytest

from quditgraph import (
    Circuit,
    Field,
    Gate,
    ResourceGuardError,
    check_conjugation_identity,
    conjugation_report,
    dual_graph,
    init_state,
    irreducible_polynomials,
    make_graph_state,
    run_gates,
    verify_dual_equivalence,
)
from quditgraph.duality import dressed_state, dressing_gates
from quditgraph import simulator
from quditgraph.simulator import SIGNATURE_DIGITS, bipartite_spectra, bipartition_subsets, signatures_match

from util import dense_conjugation_holds, field_for, states_equal_up_to_phase

# ---------------------------------------------------------------------------
# Dual graph construction
# ---------------------------------------------------------------------------

def test_dual_of_two_vertex_graph():
    fld = field_for(3)
    g = make_graph_state(fld, [1], [2], [(1, 2, 1)])
    d = dual_graph(g)
    assert d.s_wires == (2,) and d.o_wires == (1,)
    assert d.edges == ((2, 1, 1),)


def test_dual_is_involution():
    fld = field_for(4)
    g = make_graph_state(fld, [1, 3], [2, 4], [(1, 2, 1), (1, 4, 3), (3, 2, 2)])
    assert dual_graph(dual_graph(g)) == g


def test_dual_square_reverses_all_edges():
    fld = field_for(4)
    square = make_graph_state(fld, [1, 3], [2, 4], [(1, 2, 1), (1, 4, 1), (3, 4, 1), (3, 2, 2)])
    d = dual_graph(square)
    assert set(d.edges) == {(2, 1, 1), (4, 1, 1), (4, 3, 1), (2, 3, 2)}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 9])
def test_dual_is_the_transposed_block(d):
    # the oracle reverses every edge of the list and rebuilds the graph from it
    fld = field_for(d)
    rng = np.random.default_rng(2200 + d)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        wires = rng.permutation(np.arange(1, n + 1)).tolist()
        k = int(rng.integers(0, n + 1))
        s_wires, o_wires = wires[:k], wires[k:]
        edges = [(i, j, int(rng.integers(d))) for i in s_wires for j in o_wires if rng.random() < 0.6]
        g = make_graph_state(fld, s_wires, o_wires, edges)
        dual = dual_graph(g)
        assert dual == make_graph_state(fld, g.o_wires, g.s_wires, [(j, i, b) for i, j, b in g.edges])
        assert dual.edges == tuple(sorted((j, i, b) for i, j, b in g.edges))
        assert np.array_equal(dual.block, g.block.T) and not dual.block.flags.writeable
        assert dual_graph(dual) == g


# ---------------------------------------------------------------------------
# Conjugation identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_conjugation_identity_prime_fields(p):
    fld = field_for(p)
    for a in range(1, p):
        frag = check_conjugation_identity(fld, a)
        assert frag["holds"], frag
        assert frag["counterexample"] is None


def test_conjugation_identity_gf4_measured():
    # coefficient reversal does not map the power basis of x^2+x+1 onto a
    # scaled dual basis, so the dressing identity fails beyond the unit label
    rep = conjugation_report(field_for(4))
    outcomes = {f["a"]: f["holds"] for f in rep["per_element"]}
    assert outcomes == {1: True, 2: False, 3: False}
    assert not rep["holds_all"]
    for frag in rep["per_element"]:
        assert frag["holds"] == (frag["counterexample"] is None)
    # GF(4) has a single irreducible quadratic, so no alternatives to sweep
    assert rep["alternative_polynomials"] == []


def test_conjugation_identity_gf8_reported_per_polynomial():
    rep = conjugation_report(field_for(8))
    assert not rep["holds_all"]
    alts = rep["alternative_polynomials"]
    assert len(alts) == 1  # exactly one other irreducible cubic
    for sub in [rep] + alts:
        for frag in sub["per_element"]:
            assert isinstance(frag["holds"], bool)
            assert frag["holds"] == (frag["counterexample"] is None)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9, 16])
def test_exact_conjugation_check_agrees_with_dense_oracle(d):
    p, n = field_for(d).p, field_for(d).n
    for poly in irreducible_polynomials(p, n):
        fld = Field(p, n, poly)
        rep = conjugation_report(fld)
        for frag in rep["per_element"]:
            assert frag["holds"] == dense_conjugation_holds(fld, frag["a"]), (poly, frag)
            assert frag == check_conjugation_identity(fld, frag["a"])


def test_conjugation_counterexample_is_first_differing_entry():
    fld = field_for(8)
    for a in range(1, 8):
        frag = check_conjugation_identity(fld, a)
        m = fld.mul_matrix(a)
        lhs = m[::-1, ::-1].T
        bad = [(i, j) for i in range(3) for j in range(3) if lhs[i, j] != m[i, j]]
        if not bad:
            assert frag["holds"] and frag["counterexample"] is None
            continue
        i, j = bad[0]
        assert frag["counterexample"] == {"entry": [i, j], "lhs": int(lhs[i, j]), "rhs": int(m[i, j])}


def test_conjugation_holds_exactly_for_binomial_polynomials():
    # the expected outcome is read off the polynomial alone: the identity
    # holds for every label exactly when the modulus is a binomial x^n - c
    # (every middle coefficient zero)
    extension_fields = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 8) if p ** n < 170]
    checked = 0
    for p, n in extension_fields:
        for poly in irreducible_polynomials(p, n):
            fld = Field(p, n, poly)
            holds_all = all(check_conjugation_identity(fld, a)["holds"] for a in range(1, fld.d))
            assert holds_all == (not any(poly[1:n])), poly
            checked += 1
    assert checked == 272
    for p in (2, 3, 5, 7, 167):
        assert conjugation_report(field_for(p))["holds_all"]


def test_conjugation_holds_on_gf9_with_x2_plus_1():
    fld = Field.from_descriptor("3 2 1")
    assert fld.poly == (1, 0, 1)
    rep = conjugation_report(fld)
    assert rep["holds_all"] and "alternative_polynomials" not in rep
    assert all(dense_conjugation_holds(fld, a) for a in range(1, 9))


def test_conjugation_report_guard_at_both_sides_of_its_bound(monkeypatch):
    # GF(1024): at most 102 polynomials x 1024 labels, under 2^17
    rep = conjugation_report(field_for(1024))
    assert not rep["holds_all"] and len(rep["alternative_polynomials"]) == 98

    def boom(*args):
        raise AssertionError("polynomials enumerated before the guard")

    monkeypatch.setattr("quditgraph.duality.irreducible_polynomials", boom)
    for q in (2048, 529, 1 << 16):
        with pytest.raises(ResourceGuardError):
            conjugation_report(field_for(q))
    # a prime field checks one polynomial only, so GF(65521) is answered
    assert conjugation_report(field_for(65521))["holds_all"]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_fourier_reversal_swap_the_register_states(d):
    # V H |0> = |s> and H^dagger V |s> = |0>
    fld = field_for(d)
    zero = init_state(fld, 1, ["0"])
    uniform = init_state(fld, 1, ["s"])
    vh = run_gates(zero, [Gate("H", (1,)), Gate("V", (1,))])
    assert states_equal_up_to_phase(vh, uniform)
    gates = [Gate("V", (1,))]
    if fld.neg(1) != 1:
        gates.append(Gate("D", (1,), fld.neg(1)))
    gates.append(Gate("H", (1,)))
    hv = run_gates(uniform, gates)
    assert states_equal_up_to_phase(hv, zero)


def test_conjugation_requires_nonzero_label():
    with pytest.raises(ValueError):
        check_conjugation_identity(field_for(3), 0)


# ---------------------------------------------------------------------------
# Dual state equivalence
# ---------------------------------------------------------------------------

def test_dual_equivalence_two_vertex_d3():
    fld = field_for(3)
    g = make_graph_state(fld, [1], [2], [(1, 2, 1)])
    rep = verify_dual_equivalence(g)
    assert rep.state_equivalence_holds and rep.signature_match
    assert rep.counterexample is None
    assert rep.max_deviation < 1e-10


def test_dual_equivalence_ghz_qubits():
    fld = field_for(2)
    g = make_graph_state(fld, [1], [2, 3], [(1, 2, 1), (1, 3, 1)])
    rep = verify_dual_equivalence(g)
    assert rep.state_equivalence_holds and rep.signature_match


def test_dual_equivalence_gf4_square_signature_only():
    fld = field_for(4)
    g = make_graph_state(fld, [1, 3], [2, 4], [(1, 2, 1), (1, 4, 1), (3, 4, 1), (3, 2, 2)])
    rep = verify_dual_equivalence(g)
    assert rep.signature_match
    assert not rep.state_equivalence_holds  # explicit dressing fails over GF(4)
    # label 1 holds, so label 2 is the smallest failing one: R M_2^T R and M_2 differ first at (0, 0)
    assert rep.counterexample == {"kind": "dressing", "label": 2, "entry": [0, 0], "lhs": 1, "rhs": 0}
    assert rep.max_deviation == rep.details["signature_deviation"] < 1e-10


def _random_graph(fld, rng, max_wires):
    n = int(rng.integers(2, max_wires + 1))
    wires = rng.permutation(np.arange(1, n + 1)).tolist()
    k = int(rng.integers(0, n + 1))
    s_wires, o_wires = wires[:k], wires[k:]
    return make_graph_state(fld, s_wires, o_wires, [(i, j, int(rng.integers(fld.d))) for i in s_wires for j in o_wires])


def test_exact_dressing_verdict_agrees_with_dense_oracle():
    # the dressing applied to the dense state is compared with the dual's state;
    # the exact verdict reads only the block's labels
    outcomes = []
    for d in (2, 3, 4, 5, 7, 8, 9, 16):
        p, n = field_for(d).p, field_for(d).n
        rng = np.random.default_rng(2400 + d)
        for poly in irreducible_polynomials(p, n):
            fld = Field(p, n, poly)
            one_edge = [make_graph_state(fld, [1], [2], [(1, 2, a)]) for a in range(1, d)]  # every label alone
            for g in one_edge + [_random_graph(fld, rng, 3 if d == 16 else 4) for _ in range(12)]:
                dense = states_equal_up_to_phase(dressed_state(g), dual_graph(g).state())
                assert verify_dual_equivalence(g).state_equivalence_holds == dense, (fld.poly, g.edges)
                outcomes.append(dense)
    assert set(outcomes) == {True, False}


@pytest.mark.parametrize("s_wires, o_wires", [([1], [2, 3]), ([], [1, 2]), ([1, 2], [])])
def test_edgeless_graph_holds(s_wires, o_wires):
    g = make_graph_state(field_for(4), s_wires, o_wires, [])
    rep = verify_dual_equivalence(g)
    assert rep.state_equivalence_holds and rep.signature_match and rep.counterexample is None
    assert states_equal_up_to_phase(dressed_state(g), dual_graph(g).state())


def test_dressing_verdict_builds_no_dressed_state(monkeypatch):
    def boom(*args):
        raise AssertionError("the dressing verdict ran the dense dressing")

    monkeypatch.setattr("quditgraph.duality.run_gates", boom)
    fld = field_for(8)
    holds = verify_dual_equivalence(make_graph_state(fld, [1], [2, 3], [(1, 2, 1), (1, 3, 1)]))
    fails = verify_dual_equivalence(make_graph_state(fld, [1, 2], [3], [(1, 3, 1), (2, 3, 3)]))
    assert holds.state_equivalence_holds and not fails.state_equivalence_holds
    assert fails.counterexample["kind"] == "dressing" and fails.counterexample["label"] == 3


@pytest.mark.parametrize("d", [2, 3])
def test_signatures_match_for_all_small_graphs(d):
    fld = field_for(d)
    for n in (2, 3, 4):
        for k in range(1, n):
            s_wires = list(range(1, k + 1))
            o_wires = list(range(k + 1, n + 1))
            pairs = [(i, j) for i in s_wires for j in o_wires]
            for labels in product(range(d), repeat=len(pairs)):
                g = make_graph_state(fld, s_wires, o_wires,
                                     [(i, j, b) for (i, j), b in zip(pairs, labels)])
                rep = verify_dual_equivalence(g)
                assert rep.signature_match, (n, k, labels)


@pytest.mark.parametrize("d", [4, 5])
def test_signatures_match_randomized_larger_fields(d):
    fld = field_for(d)
    rng = np.random.default_rng(900 + d)
    for _ in range(500):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        s_wires = list(range(1, k + 1))
        o_wires = list(range(k + 1, n + 1))
        edges = [(i, j, int(rng.integers(d))) for i in s_wires for j in o_wires]
        g = make_graph_state(fld, s_wires, o_wires, edges)
        ok, dev = signatures_match(g.state().amps, dual_graph(g).state().amps, d, n)
        assert ok, (d, n, edges, dev)


def oracle_spectra(amps, d, n):
    """Every cut's spectrum from the complex Hermitian Gram, eigvalsh(m @ m.conj().T), in bipartite_spectra's order."""
    specs = []
    for subset in bipartition_subsets(n):
        rest = [q for q in range(1, n + 1) if q not in subset]
        axes = [q - 1 for q in (*subset, *rest)]
        m = np.asarray(amps, dtype=np.complex128).reshape([d] * n).transpose(axes).reshape(d ** len(subset), -1)
        specs.append(np.linalg.eigvalsh(m @ m.conj().T)[::-1])
    specs.sort(key=lambda s: tuple(np.round(s, SIGNATURE_DIGITS)))
    return specs


def gram_dtypes(monkeypatch):
    """Record the dtype of every RDM reduced_density_raw returns."""
    seen = []
    raw = simulator.reduced_density_raw

    def spy(*args):
        rho = raw(*args)
        seen.append(rho.dtype)
        return rho

    monkeypatch.setattr(simulator, "reduced_density_raw", spy)
    return seen


def assert_spectra_match_oracle(amps, d, n):
    got, want = bipartite_spectra(amps, d, n), oracle_spectra(amps, d, n)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_graph_signatures_take_the_real_gram_and_match_the_complex_oracle(d, monkeypatch):
    fld = field_for(d)
    rng = np.random.default_rng(700 + d)
    seen = gram_dtypes(monkeypatch)
    for _ in range(6):
        n = int(rng.integers(2, 6 if d < 7 else 5))
        k = int(rng.integers(1, n))
        edges = [(i, j, int(rng.integers(d))) for i in range(1, k + 1) for j in range(k + 1, n + 1)]
        g = make_graph_state(fld, list(range(1, k + 1)), list(range(k + 1, n + 1)), edges)
        amps, dual_amps = g.state().amps, dual_graph(g).state().amps
        assert_spectra_match_oracle(amps, d, n)
        assert_spectra_match_oracle(dual_amps, d, n)
        oracle_dev = max(float(np.max(np.abs(a - b)))
                         for a, b in zip(oracle_spectra(amps, d, n), oracle_spectra(dual_amps, d, n)))
        ok, dev = signatures_match(amps, dual_amps, d, n)
        assert ok and abs(dev - oracle_dev) <= 1e-12, (d, n, edges, dev, oracle_dev)
    assert seen and set(seen) == {np.dtype(np.float64)}


def test_complex_amplitudes_keep_the_complex_gram(monkeypatch):
    # the H after the CNOTs gives |x, y, x, 2x> the phase omega^(xy) over GF(3); the real part alone has other spectra
    gates = [Gate("C", (1, 2), 1), Gate("C", (1, 3), 1), Gate("C", (1, 4), 2), Gate("H", (2,))]
    amps = Circuit(field_for(3), 4, "s000", gates).simulate().amps
    assert np.max(np.abs(amps.imag)) > 0.1
    seen = gram_dtypes(monkeypatch)
    assert_spectra_match_oracle(amps, 3, 4)
    assert seen and set(seen) == {np.dtype(np.complex128)}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_explicit_dressing_works_on_prime_fields(d):
    fld = field_for(d)
    rng = np.random.default_rng(41 + d)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        s_wires = list(range(1, k + 1))
        o_wires = list(range(k + 1, n + 1))
        edges = [(i, j, int(rng.integers(d))) for i in s_wires for j in o_wires]
        g = make_graph_state(fld, s_wires, o_wires, edges)
        rep = verify_dual_equivalence(g)
        assert rep.state_equivalence_holds and rep.signature_match


def test_dressing_gates_time_order():
    fld = field_for(3)
    g = make_graph_state(fld, [1], [2], [(1, 2, 1)])
    kinds = [(gt.kind, gt.wires[0]) for gt in dressing_gates(g)]
    assert kinds == [("V", 1), ("D", 1), ("H", 1), ("H", 2), ("V", 2)]


def test_report_serialization():
    fld = field_for(3)
    g = make_graph_state(fld, [1], [2], [(1, 2, 2)])
    data = verify_dual_equivalence(g).to_dict()
    assert set(data) == {
        "field", "state_equivalence_holds", "signature_match",
        "max_deviation", "counterexample", "details", "tolerance", "decided_by",
    }
    assert data["tolerance"] == 1e-10
    assert data["decided_by"] == {"state_equivalence_holds": "persymmetry", "signature_match": "dense-spectrum"}
    assert data["max_deviation"] >= 0.0
    assert set(data["details"]) == {"signature_deviation", "dual"}


def test_dual_equivalence_wire_guard():
    fld = field_for(2)
    g = make_graph_state(fld, [1], list(range(2, 10)), [(1, j, 1) for j in range(2, 10)])
    with pytest.raises(ResourceGuardError):
        verify_dual_equivalence(g)
