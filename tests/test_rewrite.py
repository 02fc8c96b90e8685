import json
import re
from pathlib import Path

import numpy as np
import pytest

from quditgraph import (
    Circuit,
    CircuitParseError,
    Gate,
    GraphState,
    ResourceGuardError,
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
from quditgraph import simulator
from quditgraph.rewrite import (
    RELATIONS,
    _rref_eliminate,
    affine_maps_equal,
    affine_update,
    mat_rref,
    packs_in_bytes,
    pulls_back_to_register,
    relations_cases,
)
from quditgraph.simulator import sequence_source_map

from util import (
    dense_amps_scatter,
    dense_verification,
    field_for,
    ket_strings,
    negate_last,
    random_c_circuit,
    random_cadw_circuit,
    random_gate,
    rule_lhs,
    rule_rhs,
    scalar_matmul,
    scalar_rref,
    serialize_circuit,
    spoiled,
)

# ---------------------------------------------------------------------------
# Symbolic tracking
# ---------------------------------------------------------------------------

def test_symbolic_cnot_column_update():
    fld = field_for(3)
    sym = SymbolicState.from_pattern(fld, ("s", "0"))
    assert np.array_equal(sym.matrix, [[1, 0]])
    sym.apply([Gate("C", (1, 2), 1)])
    assert np.array_equal(sym.matrix, [[1, 1]])


def test_symbolic_cnot_merge_matches_single_gate():
    fld = field_for(4)
    for a in range(fld.d):
        for b in range(fld.d):
            s1 = SymbolicState.from_pattern(fld, ("s", "0"))
            s1.apply([Gate("C", (1, 2), a)]).apply([Gate("C", (1, 2), b)])
            s2 = SymbolicState.from_pattern(fld, ("s", "0"))
            s2.apply([Gate("C", (1, 2), fld.add(a, b))])
            assert np.array_equal(s1.matrix, s2.matrix)


def test_symbolic_example_circuit_matches_dense_support():
    fld = field_for(4)
    gates = (
        Gate("C", (1, 3), 1), Gate("C", (1, 4), 1), Gate("C", (2, 3), 1),
        Gate("C", (2, 4), 2), Gate("C", (3, 1), 3),
    )
    circ = Circuit(fld, 4, ("s", "s", "0", "0"), gates)
    sym = SymbolicState.from_circuit(circ)
    dense = circ.simulate()
    assert ket_strings(sym.dense_amps(), 4, 4) == ket_strings(dense.amps, 4, 4)
    nz = np.abs(dense.amps) > 1e-12
    assert np.allclose(dense.amps[nz], 0.25)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 9, 27, 131, 512])
def test_symbolic_semantics_match_dense_simulation(d):
    # GF(9) and up are tracked by affine_update itself, so the dense simulation is their independent oracle
    fld = field_for(d)
    rng = np.random.default_rng(100 + d)
    max_n = max(n for n in range(2, 6) if d ** n <= 1 << 22)  # under the 2^24 dense guard, with room to spare
    for _ in range(200 if d <= 9 else 24):
        n = int(rng.integers(2, max_n + 1))
        k = int(rng.integers(1, n))
        circ = random_cadw_circuit(fld, n, k, int(rng.integers(1, 31)), rng)
        sym = SymbolicState.from_circuit(circ)
        assert len(mat_rref(fld, sym.matrix)[1]) == circ.k  # unitary gates keep full rank
        assert np.max(np.abs(sym.dense_amps() - circ.simulate().amps)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_support_lists_the_affine_kets(d):
    # support().dense() against the wire-by-wire scatter; the kets come ascending and distinct
    fld = field_for(d)
    rng = np.random.default_rng(300 + d)
    for _ in range(60):
        n = int(rng.integers(2, 6 if d < 7 else 5))
        k = int(rng.integers(1, n))
        sym = SymbolicState.from_circuit(random_cadw_circuit(fld, n, k, int(rng.integers(1, 31)), rng))
        support = sym.support()
        assert np.array_equal(support.dense(), dense_amps_scatter(sym))
        assert np.array_equal(sym.dense_amps(), dense_amps_scatter(sym))
        index = np.ravel_multi_index(tuple(support.digits), (d,) * n)
        assert support.amps.size == d ** k and np.all(np.diff(index) > 0)
        assert np.all(support.amps == d ** (-k / 2))
    with pytest.raises(ResourceGuardError, match="ket guard"):  # the ket guard on d^k, before any ket is listed
        SymbolicState.from_pattern(fld, ("s",) * 40).support()
    wide = SymbolicState.from_pattern(fld, ("s",) + ("0",) * 24)  # past the d^n guard, d kets
    assert wide.support().digits.shape == (25, d)
    with pytest.raises(ResourceGuardError, match="2\\^24 guard"):  # dense_amps keeps the d^n guard
        wide.dense_amps()


def test_support_of_dependent_rows_sums_repeated_kets():
    # rows [1, 1] and [2, 2] reach each of |00>, |11>, |22> from three u, each at amplitude 1/3
    sym = SymbolicState(field_for(3), 2, np.array([[1, 1], [2, 2]]), np.zeros(2, dtype=np.int64))
    support = sym.support()
    assert support.amps.size == 9
    assert np.array_equal(support.digits, np.repeat([[0, 1, 2], [0, 1, 2]], 3, axis=1))
    assert np.array_equal(sym.dense_amps(), dense_amps_scatter(sym))
    assert np.allclose(sym.dense_amps(), np.eye(3).reshape(-1))


def affine_oracle(start: SymbolicState, gates) -> SymbolicState:
    """A copy of start with affine_update applied to its rows one gate at a time, in time order."""
    sym = start.copy()
    for gate in gates:
        affine_update(sym.field, sym._rows, gate.kind, gate.wires, gate.param)
    return sym


def gate_by_gate(circ: Circuit) -> SymbolicState:
    return affine_oracle(SymbolicState.from_pattern(circ.field, circ.init), circ.gates)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 9, 257])
def test_apply_in_time_order_matches_gate_by_gate(d):
    fld = field_for(d)
    rng = np.random.default_rng(d)
    for n, k, n_gates in [(2, 1, 10), (4, 2, 40), (6, 3, 80), (9, 4, 200)]:
        circ = random_cadw_circuit(fld, n, k, n_gates, rng)
        one_by_one = gate_by_gate(circ)._rows
        assert np.array_equal(SymbolicState.from_pattern(fld, circ.init).apply(circ.gates)._rows, one_by_one)
        assert np.array_equal(SymbolicState.from_circuit(circ)._rows, one_by_one)


BYTE_FIELDS = [2, 3, 4, 7, 8, 127, 256]  # tracked on byte-packed columns
UNPACKED_FIELDS = [9, 131, 512]  # tracked by one affine_update per gate


@pytest.mark.parametrize("d", BYTE_FIELDS + UNPACKED_FIELDS)
def test_apply_matches_the_affine_update_oracle(d):
    fld = field_for(d)
    assert packs_in_bytes(fld) == (d in BYTE_FIELDS)
    rng = np.random.default_rng(500 + d)
    # 200 wires and 120 superposition wires: 121 rows, past one 64-byte word per packed column
    for n, k, n_gates in [(2, 1, 20), (5, 2, 100), (9, 4, 400), (200, 120, 2000)]:
        circ = random_cadw_circuit(fld, n, k, n_gates, rng)
        assert np.array_equal(SymbolicState.from_circuit(circ)._rows, gate_by_gate(circ)._rows)
        # start rows that are dependent (a scaled and a repeated copy) with nonzero offsets
        basis = rng.integers(0, d, size=(k, n))
        rows = np.concatenate([basis, fld.mul_arr(int(rng.integers(1, d)), basis[:2]), basis[:1]])
        start = SymbolicState(fld, n, rows, rng.integers(0, d, size=n))
        assert np.array_equal(start.copy().apply(circ.columns)._rows, affine_oracle(start, circ.gates)._rows)


@pytest.mark.parametrize("d", [2, 3, 4, 9, 131])
def test_affine_update_adds_the_control_column_for_label_one(d):
    # a scalar 1, as int or numpy integer, takes the addition alone; a 0-d or (batch, 1) array
    # of ones still multiplies, so it is the oracle, and labels other than 1 are untouched
    fld = field_for(d)
    rng = np.random.default_rng(d)
    stack = rng.integers(0, d, size=(3, 4, 6))
    for param in (1, np.int64(1), 2 % d, d - 1):
        for wires in ((1, 2), (6, 3)):
            got, want = stack.copy(), stack.copy()
            affine_update(fld, got, "C", wires, param)
            affine_update(fld, want, "C", wires, np.array(param))
            assert np.array_equal(got, want), (param, wires)
    got = stack.copy()
    affine_update(fld, got, "C", (2, 5), np.ones((3, 1), dtype=np.int64))
    affine_update(fld, stack, "C", (2, 5), 1)
    assert np.array_equal(got, stack)


@pytest.mark.parametrize("bad, message", [
    (Gate("C", (1, 4), 1), "wire 4 out of range 1..3"),
    (Gate("D", (2,), 0), r"D\(0\) is not unitary"),
    (Gate("A", (3,), 3), "parameter 3 out of range for order-3 field"),
    (Gate("H", (2,)), "^H gate has no affine representation"),
    (Gate("V", (3,)), "^V gate has no affine representation"),
])
def test_apply_refuses_a_gate_list_before_any_column_changes(bad, message):
    fld = field_for(3)
    start = SymbolicState.from_pattern(fld, ("s", "s", "0"))
    sym = start.copy()
    with pytest.raises(ValueError, match=message):
        sym.apply([Gate("C", (1, 3), 1), Gate("A", (2,), 2), bad, Gate("W", (1, 2))])
    assert np.array_equal(sym._rows, start._rows)
    assert np.array_equal(sym.apply([])._rows, start._rows)


@pytest.mark.parametrize("d", [2, 7, 9])
@pytest.mark.parametrize("bad", [
    Gate("C", (1, 4), 1), Gate("D", (2,), 0), Gate("A", (3,), 9), Gate("H", (2,)), Gate("V", (3,)),
])
def test_packed_apply_refuses_a_gate_list_before_any_column_changes(d, bad):
    # the byte path (GF(2), GF(7)) and the per-gate path (GF(9)), from dependent rows with nonzero
    # offsets; the first non-affine gate is the one named
    fld = field_for(d)
    assert packs_in_bytes(fld) == (d != 9)
    rng = np.random.default_rng(d)
    start = SymbolicState(fld, 3, rng.integers(0, d, size=(3, 3)), rng.integers(1, d, size=3))
    sym = start.copy()
    message = {"C": "wire 4 out of range 1..3", "D": r"D\(0\) is not unitary",
               "A": f"parameter 9 out of range for order-{d} field"}.get(bad.kind, f"^{bad.kind} gate has no affine")
    with pytest.raises(ValueError, match=message):
        sym.apply([Gate("C", (1, 3), d - 1), Gate("A", (2,), 1), Gate("D", (3,), d - 1), bad, Gate("W", (1, 2)),
                   Gate("H" if bad.kind == "V" else "V", (1,))])
    assert np.array_equal(sym._rows, start._rows)


def test_from_circuit_names_the_first_non_affine_gate():
    fld = field_for(3)
    for gates, kind in [([Gate("C", (1, 2), 1), Gate("V", (2,)), Gate("H", (1,))], "V"),
                        ([Gate("H", (2,)), Gate("V", (1,))], "H")]:
        with pytest.raises(ValueError, match=f"^{kind} gate has no affine representation"):
            SymbolicState.from_circuit(Circuit(fld, 2, ("s", "0"), gates))


def test_symbolic_rejects_fourier_and_reversal():
    sym = SymbolicState.from_pattern(field_for(2), ("s", "0"))
    with pytest.raises(ValueError):
        sym.apply([Gate("H", (1,))])
    with pytest.raises(ValueError):
        sym.apply([Gate("V", (1,))])
    with pytest.raises(ValueError):
        sym.copy().apply([Gate("D", (1,), 0)])


def test_circuit_and_apply_each_check_the_gates_once(monkeypatch):
    # Circuit checks all its gates at once on construction, and apply checks its gate list once
    calls = []
    real = simulator.check_gates
    monkeypatch.setattr(simulator, "check_gates", lambda fld, n, cols: calls.append(len(cols)) or real(fld, n, cols))
    fld = field_for(5)
    circ = random_cadw_circuit(fld, 4, 2, 30, np.random.default_rng(5))
    assert calls == [30]
    sym = SymbolicState.from_circuit(circ)
    assert calls == [30, 30]
    assert np.max(np.abs(sym.dense_amps() - circ.simulate().amps)) < 1e-12
    with pytest.raises(ValueError):
        sym.apply([Gate("C", (1, 2), 1), Gate("C", (1, 5), 1)])
    assert calls == [30, 30, 2]


def test_states_equal_symbolic_examples():
    fld = field_for(3)
    row = lambda vals: SymbolicState(fld, 2, np.array([vals]), np.zeros(2))
    assert states_equal_symbolic(row([1, 1]), row([2, 2]))
    assert not states_equal_symbolic(row([1, 1]), row([1, 0]))
    # dependent rows: each ket is reached three times, so k = 2 differs from k = 1 on the same span
    two = SymbolicState(fld, 2, [[1, 1], [2, 2]], [0, 0])
    assert states_equal_symbolic(two, SymbolicState(fld, 2, [[2, 2], [1, 1]], [1, 1]))
    assert not states_equal_symbolic(two, SymbolicState(fld, 2, [[2, 2], [1, 1]], [1, 2]))
    assert not states_equal_symbolic(row([1, 1]), two)


def test_states_equal_symbolic_offsets():
    fld = field_for(3)
    base = SymbolicState(fld, 2, np.array([[1, 1]]), np.array([0, 0]))
    shifted_inside = SymbolicState(fld, 2, np.array([[1, 1]]), np.array([2, 2]))
    shifted_outside = SymbolicState(fld, 2, np.array([[1, 1]]), np.array([0, 2]))
    assert states_equal_symbolic(base, shifted_inside)  # (2,2) lies in the row space
    assert not states_equal_symbolic(base, shifted_outside)
    assert np.max(np.abs(base.dense_amps() - shifted_inside.dense_amps())) < 1e-15


def random_invertible(fld, k: int, rng) -> np.ndarray:
    while True:
        g = rng.integers(0, fld.d, size=(k, k))
        if len(scalar_rref(fld, g)[1]) == k:
            return g


def row_space_shift(sym: SymbolicState, rng) -> np.ndarray:
    """A random element uM of the row space, from scalar Field calls."""
    return scalar_matmul(sym.field, rng.integers(0, sym.field.d, size=(1, sym.k)), sym.matrix)[0]


def shifted(sym: SymbolicState, rows: np.ndarray, shift: np.ndarray) -> SymbolicState:
    """The state of coefficient rows `rows` and offset sym.offsets + shift."""
    return SymbolicState(sym.field, sym.n, rows, sym.field.add_arr(sym.offsets, shift))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_states_equal_symbolic_matches_dense_equality(d):
    # the oracle is exact equality of the dense amplitude vectors, with no row reduction
    fld = field_for(d)
    rng = np.random.default_rng(700 + d)
    verdicts = []

    def check(s1, s2):
        want = np.array_equal(s1.dense_amps(), s2.dense_amps())
        assert states_equal_symbolic(s1, s2) == want
        assert states_equal_symbolic(s2, s1) == want
        verdicts.append(want)

    for _ in range(40):
        n = int(rng.integers(2, 6 if d < 7 else 5))
        k = int(rng.integers(1, n))
        sym = SymbolicState.from_circuit(random_cadw_circuit(fld, n, k, int(rng.integers(1, 21)), rng))
        mixed = scalar_matmul(fld, random_invertible(fld, k, rng), sym.matrix)
        check(sym, shifted(sym, mixed, row_space_shift(sym, rng)))  # equal
        check(sym, shifted(sym, mixed, rng.integers(0, d, size=n)))  # a shift inside or outside
        other = random_cadw_circuit(fld, n, k, int(rng.integers(1, 21)), rng)
        check(sym, SymbolicState(fld, n, SymbolicState.from_circuit(other).matrix, sym.offsets))
        # dependent rows: k + 1 rows in the span of r <= k independent ones, against row operations
        # on them and against other k + 1 rows in that span
        r = int(rng.integers(1, k + 1))
        basis = sym.matrix[:r]
        rows = scalar_matmul(fld, rng.integers(0, d, size=(k + 1, r)), basis)
        deps = SymbolicState(fld, n, rows, sym.offsets)
        check(deps, shifted(deps, scalar_matmul(fld, random_invertible(fld, k + 1, rng), rows),
                            row_space_shift(deps, rng)))
        check(deps, SymbolicState(fld, n, scalar_matmul(fld, rng.integers(0, d, size=(k + 1, r)), basis), deps.offsets))
        check(deps, SymbolicState(fld, n, sym.matrix, sym.offsets))  # a different k
    assert 40 <= sum(verdicts) <= len(verdicts) - 40  # both verdicts occur often


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_standard_form_is_invariant_and_matches_oracles(d):
    fld = field_for(d)
    rng = np.random.default_rng(800 + d)
    for trial in range(30):
        n = int(rng.integers(2, 6 if d < 7 else 5))
        k = int(rng.integers(1, n))
        make = random_c_circuit if trial % 2 else random_cadw_circuit
        sym = SymbolicState.from_circuit(make(fld, n, k, int(rng.integers(1, 21)), rng))
        graph, residual = sym.standard_form()
        pivots = [w - 1 for w in graph.s_wires]
        want, want_pivots = scalar_rref(fld, sym.matrix)
        sinks = [c for c in range(n) if c not in want_pivots]
        assert pivots == want_pivots
        assert graph.o_wires == tuple(c + 1 for c in sinks)
        assert np.array_equal(graph.block, want[: len(pivots), sinks])
        # the residual is the one ket of the support that is zero on every pivot wire
        digits = sym.support().digits
        at_zero = digits[:, ~digits[pivots].any(axis=0)]
        assert at_zero.shape[1] == 1 and np.array_equal(at_zero[sinks, 0], residual)
        if make is random_c_circuit:
            assert not residual.any()
        for _ in range(3):  # row operations and shifts inside the row space leave it unchanged
            mixed = scalar_matmul(fld, random_invertible(fld, k, rng), sym.matrix)
            other = shifted(sym, mixed, row_space_shift(sym, rng)).standard_form()
            assert other[0] == graph  # the same wires and block
            assert np.array_equal(other[1], residual)


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def test_canonicalize_single_cnot_is_two_vertex_graph():
    fld = field_for(3)
    circ = Circuit(fld, 2, ("s", "0"), (Gate("C", (1, 2), 1),))
    perm, graph = canonicalize(circ)
    assert perm == (1, 2)
    assert graph.s_wires == (1,) and graph.o_wires == (2,)
    assert graph.edges == ((1, 2, 1),)


def test_canonicalize_star_graph():
    fld = field_for(2)
    circ = Circuit(fld, 3, ("s", "0", "0"), (Gate("C", (1, 2), 1), Gate("C", (1, 3), 1)))
    _, graph = canonicalize(circ)
    assert graph.s_wires == (1,)
    assert graph.edges == ((1, 2, 1), (1, 3, 1))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_canonicalize_random_circuits_against_dense_oracle(d):
    fld = field_for(d)
    rng = np.random.default_rng(17 + d)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        circ = random_c_circuit(fld, n, k, 20, rng)
        _, graph = canonicalize(circ)
        assert np.max(np.abs(circ.simulate().amps - graph.state().amps)) < 1e-10


def test_canonicalize_idempotent():
    fld = field_for(3)
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        circ = random_c_circuit(fld, n, k, 15, rng)
        _, graph = canonicalize(circ)
        perm2, graph2 = canonicalize(graph.to_circuit())
        assert graph2 == graph
        assert perm2 == graph.s_wires + graph.o_wires


def test_canonicalize_sources_first_graph_unchanged():
    fld = field_for(4)
    graph = make_graph_state(fld, [1, 2], [3, 4], [(1, 3, 2), (2, 4, 3), (1, 4, 1)])
    _, got = canonicalize(graph.to_circuit())
    assert got == graph


def test_canonicalize_errors():
    fld = field_for(2)
    with pytest.raises(ValueError):
        canonicalize(Circuit(fld, 2, ("s", "s"), ()))
    with pytest.raises(ValueError):
        canonicalize(Circuit(fld, 2, ("0", "0"), ()))
    with pytest.raises(ValueError):
        canonicalize(Circuit(fld, 2, ("s", "0"), (Gate("H", (1,)),)))


# ---------------------------------------------------------------------------
# The pull-back check of normalize --verify
# ---------------------------------------------------------------------------

def label_changed(graph: GraphState, r: int, c: int) -> GraphState:
    block = graph.block.copy()
    block[r, c] = (block[r, c] + 1) % graph.field.d
    return GraphState(graph.field, graph.s_wires, graph.o_wires, block)


def source_and_sink_swapped(graph: GraphState, r: int, c: int) -> GraphState:
    s_wires, o_wires = list(graph.s_wires), list(graph.o_wires)
    s_wires[r], o_wires[c] = o_wires[c], s_wires[r]
    return GraphState(graph.field, tuple(s_wires), tuple(o_wires), graph.block)


def source_row_dropped(graph: GraphState, r: int) -> GraphState:
    """The graph without source r's row: that wire becomes an edgeless sink, k - 1 sources are left."""
    gone = graph.s_wires[r]
    return make_graph_state(graph.field, set(graph.s_wires) - {gone}, {*graph.o_wires, gone},
                            [edge for edge in graph.edges if edge[0] != gone])


def under_dense_guard(circ: Circuit) -> bool:
    return circ.field.d ** circ.n_qudits <= 1 << 24


@pytest.mark.parametrize("name", ["gf2", "gf3", "gf4", "gf9", "sinks", "layout", "wide48", "wide96"])
def test_pull_back_matches_the_dense_oracle_on_the_golden_circuits(name):
    circ = parse_circuit((NORMALIZE_DATA / f"{name}.qc").read_bytes().decode())
    graph = canonicalize(circ)[1]
    wrong = label_changed(graph, 0, 0)
    assert pulls_back_to_register(circ, graph) is True
    assert pulls_back_to_register(circ, wrong) is False
    if under_dense_guard(circ):
        assert dense_verification(circ, graph)["equal"] is True
        assert dense_verification(circ, wrong)["equal"] is False
    else:
        assert name.startswith("wide")


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9, 131])
def test_pull_back_matches_the_dense_oracle_on_random_c_circuits(d):
    # GF(9) and GF(131) do not pack into bytes; the rest are tracked on packed columns
    fld = field_for(d)
    rng = np.random.default_rng(3200 + d)
    max_n = max(n for n in range(2, 7) if d ** n <= 1 << 24)
    rejected = 0
    for _ in range(40 if d < 131 else 8):
        n = int(rng.integers(2, max_n + 1))
        k = int(rng.integers(1, n))
        circ = random_c_circuit(fld, n, k, int(rng.integers(1, 3 * n)), rng)
        graph = canonicalize(circ)[1]
        other = canonicalize(Circuit(fld, n, circ.init, random_c_circuit(fld, n, k, 3 * n, rng).columns))[1]
        r, c = int(rng.integers(k)), int(rng.integers(n - k))
        candidates = [graph, label_changed(graph, r, c), source_and_sink_swapped(graph, r, c),
                      source_row_dropped(graph, r), other]
        for candidate in candidates:
            equal = pulls_back_to_register(circ, candidate)
            assert equal == dense_verification(circ, candidate)["equal"], (circ, candidate.edges)
            rejected += not equal
        assert pulls_back_to_register(circ, graph)
    assert rejected > 0


@pytest.mark.parametrize("name", ["gf3", "gf9", "sinks", "wide96"])
def test_pull_back_rejects_a_label_a_swap_a_dropped_row_and_another_circuit(name):
    circ = parse_circuit((NORMALIZE_DATA / f"{name}.qc").read_text())
    graph = canonicalize(circ)[1]
    rng = np.random.default_rng(len(name))
    gates = random_c_circuit(circ.field, circ.n_qudits, circ.k, 4 * circ.n_qudits, rng).columns
    other = canonicalize(Circuit(circ.field, circ.n_qudits, circ.init, gates))[1]
    assert other != graph
    (r, c), = np.argwhere(graph.block != 0)[:1]  # an edge, so that the swap moves a label
    wrong = [label_changed(graph, 0, 0), source_and_sink_swapped(graph, r, c), source_row_dropped(graph, 0), other]
    for candidate in wrong:
        assert pulls_back_to_register(circ, candidate) is False
        if under_dense_guard(circ):
            assert dense_verification(circ, candidate)["equal"] is False


@pytest.mark.parametrize("d", [2, 3, 4, 7, 9, 131])
def test_pull_back_inverts_a_d_and_w_gates(d):
    # an A/D/C/W circuit's state is its standard-form graph exactly when the residual shifts are zero
    fld = field_for(d)
    rng = np.random.default_rng(3300 + d)
    max_n = max(n for n in range(2, 6) if d ** n <= 1 << 22)
    seen = set()
    for _ in range(60 if d < 131 else 10):
        n = int(rng.integers(2, max_n + 1))
        circ = random_cadw_circuit(fld, n, int(rng.integers(1, n)), int(rng.integers(1, 16)), rng)
        graph, residual = SymbolicState.from_circuit(circ).standard_form()
        equal = pulls_back_to_register(circ, graph)
        assert equal == (not residual.any()) == dense_verification(circ, graph)["equal"]
        seen.add(equal)
    assert seen == {True, False}


def test_pull_back_answers_false_for_another_field_or_wire_count_and_refuses_h_and_v():
    circ = Circuit(field_for(3), 2, ("s", "0"), (Gate("C", (1, 2), 1),))
    graph = canonicalize(circ)[1]
    assert not pulls_back_to_register(circ, make_graph_state(field_for(5), [1], [2], [(1, 2, 1)]))
    assert not pulls_back_to_register(circ, make_graph_state(field_for(3), [1], [2, 3], [(1, 2, 1)]))
    for kind in ("H", "V"):
        with pytest.raises(ValueError, match=f"{kind} gate has no affine representation"):
            pulls_back_to_register(Circuit(circ.field, 2, circ.init, (Gate("C", (1, 2), 1), Gate(kind, (2,)))), graph)


def test_cancelling_gates_produce_edgeless_graph():
    fld = field_for(3)
    circ = Circuit(fld, 2, ("s", "0"), (Gate("C", (1, 2), 1), Gate("C", (1, 2), 2)))
    _, graph = canonicalize(circ)
    assert graph.edges == ()


def test_standard_form_gates_commute():
    fld = field_for(3)
    graph = make_graph_state(fld, [1, 2], [3, 4], [(1, 3, 1), (1, 4, 2), (2, 3, 2), (2, 4, 1)])
    circ = graph.to_circuit()
    ref = circ.simulate().amps
    rng = np.random.default_rng(4)
    for _ in range(5):
        shuffled = Circuit(fld, 4, circ.init, tuple(rng.permutation(np.array(circ.gates, dtype=object))))
        assert np.max(np.abs(shuffled.simulate().amps - ref)) < 1e-12


# ---------------------------------------------------------------------------
# Pairwise rewrite rules
# ---------------------------------------------------------------------------

def test_commute_pair_scale_past_add():
    fld = field_for(4)
    relation = RELATIONS["scale_add_exchange"]
    assert rule_lhs(relation, 2, 3) == [Gate("D", (1,), 2), Gate("A", (1,), 3)]
    assert rule_rhs(fld, relation, 2, 3) == [Gate("A", (1,), 1), Gate("D", (1,), 2)]  # 2*3 = 1 in GF(4)


def test_commute_pair_opposed_cnots_degenerate_branch():
    fld = field_for(3)
    relation = RELATIONS["cnot_opposed_pair"]
    assert rule_lhs(relation, 1, 2) == [Gate("C", (1, 2), 1), Gate("C", (2, 1), 2)]  # 1 + 1*2 = 0 in GF(3)
    assert rule_rhs(fld, relation, 1, 2) == [Gate("W", (1, 2)), Gate("D", (1,), 1), Gate("D", (2,), 2),
                                             Gate("C", (1, 2), 2)]


def lhs_shape(gates) -> tuple:
    """The kinds of a gate pair with its wires renamed 0, 1, ... in order of first use: what a rule's lhs fixes."""
    names = {}
    return tuple((g.kind, tuple(names.setdefault(w, len(names)) for w in g.wires)) for g in gates)


RULE_SHAPES = {lhs_shape(rule_lhs(relation, 0, 0)) for relation in RELATIONS.values()}


def test_commute_pair_disjoint_swap():
    # gates on disjoint wires need no rule: every rule's lhs shares a wire, and each such pair swaps densely
    fld = field_for(2)
    assert all(set(g1.wires) & set(g2.wires) for g1, g2 in (rule_lhs(r, 0, 0) for r in RELATIONS.values()))
    for g1, g2 in [(Gate("C", (1, 2), 1), Gate("C", (3, 4), 1)), (Gate("H", (1,)), Gate("V", (2,))),
                   (Gate("W", (1, 3)), Gate("C", (4, 2), 1)), (Gate("A", (2,), 1), Gate("D", (1,), 1))]:
        assert np.allclose(simulator.sequence_matrix(fld, 4, [g1, g2]), simulator.sequence_matrix(fld, 4, [g2, g1]))


def test_commute_pair_no_rule_raises():
    # the table holds no rule for these products on a shared wire, on any wires
    for g1, g2 in [(Gate("A", (1,), 1), Gate("C", (1, 2), 1)),  # an A after a C: only C * A has a rule
                   (Gate("D", (1,), 2), Gate("C", (1, 2), 1)),  # and only C * D
                   (Gate("A", (2,), 1), Gate("D", (2,), 2)), (Gate("C", (1, 2), 1), Gate("W", (2, 3))),
                   (Gate("W", (1, 2)), Gate("W", (1, 2))), (Gate("H", (1,)), Gate("A", (1,), 1)),
                   (Gate("D", (3,), 1), Gate("V", (3,)))]:
        assert set(g1.wires) & set(g2.wires) and lhs_shape([g1, g2]) not in RULE_SHAPES, (g1, g2)
    assert lhs_shape([Gate("C", (3, 1), 1), Gate("A", (3,), 2)]) in RULE_SHAPES  # cnot_control_add on moved wires


@pytest.mark.parametrize("g1, g2", [(Gate("A", (1,), 3), Gate("A", (1,), 0)), (Gate("C", (2, 1), 1), Gate("D", (1,), -1))])
def test_commute_pair_rejects_a_parameter_outside_the_field(g1, g2):
    # the one gate-list check, which every reader of a product runs first, names the parameter
    for check in (simulator.validate_gates, simulator.sequence_source_map, simulator.sequence_matrix):
        with pytest.raises(ValueError, match="out of range for order-3 field"):
            check(field_for(3), 2, [g1, g2])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9, 16])
def test_commute_pair_reads_the_rule_table(d):
    # each rule's two sides as gates, their wires 1..3 moved onto any 3 of 5 wires (of 4 past order 9), are
    # equal products on the fewest wires that hold them, by the dense gather maps: every case up to order 5,
    # every tenth of the 1000 seeded ones past it
    fld = field_for(d)
    rng = np.random.default_rng(400 + d)
    names = list(RELATIONS)
    cases = list(zip(*(column.tolist() for column in relations_cases(fld, seed=d))))
    for r, x, y in cases if d <= 5 else cases[::10]:
        relation = RELATIONS[names[r]]
        wire_of = dict(zip((1, 2, 3), (rng.permutation(5 if d <= 9 else 4)[:3] + 1).tolist()))
        lhs, rhs = rule_lhs(relation, x, y, wire_of), rule_rhs(fld, relation, x, y, wire_of)
        n_wires = max(wire_of[w] for w in range(1, relation.n_wires + 1))
        assert np.array_equal(sequence_source_map(fld, n_wires, lhs), sequence_source_map(fld, n_wires, rhs)), \
            (names[r], x, y, wire_of)


def test_commute_pair_relabelled_wires():
    fld = field_for(5)
    # cnot_chain with its wires 1, 2, 3 on 4, 3, 1: C(3,1)*C(4,3) -> C(4,1)[ab] C(4,3) C(3,1)
    chain, wire_of = RELATIONS["cnot_chain"], {1: 4, 2: 3, 3: 1}
    assert rule_lhs(chain, 4, 2, wire_of) == [Gate("C", (3, 1), 2), Gate("C", (4, 3), 4)]
    assert rule_rhs(fld, chain, 4, 2, wire_of) == [Gate("C", (4, 1), 3), Gate("C", (4, 3), 4), Gate("C", (3, 1), 2)]
    # cnot_target_scale on control 3, target 1: D(b) C(a / b)
    scale, wire_of = RELATIONS["cnot_target_scale"], {1: 3, 2: 1}
    assert rule_lhs(scale, 4, 2, wire_of) == [Gate("C", (3, 1), 4), Gate("D", (1,), 2)]
    assert rule_rhs(fld, scale, 4, 2, wire_of) == [Gate("D", (1,), 2), Gate("C", (3, 1), 2)]
    # cnot_opposed_pair with 1 + ab = 0 on wires 3 and 1: the swap form
    opposed = RELATIONS["cnot_opposed_pair"]
    assert rule_lhs(opposed, 2, 2, wire_of) == [Gate("C", (3, 1), 2), Gate("C", (1, 3), 2)]
    assert rule_rhs(fld, opposed, 2, 2, wire_of) == \
        [Gate("W", (3, 1)), Gate("D", (3,), 2), Gate("D", (1,), 2), Gate("C", (3, 1), 3)]


def batch_of_one(gates) -> list[tuple]:
    """A gate list as one side of affine_maps_equal with a batch of one pair."""
    return [(g.kind, g.wires, None if g.param is None else np.array([[g.param]])) for g in gates]


def rule_instance(fld, n_wires, rng):
    """(lhs, rhs) gates of a random rule on at most n_wires wires, at random parameters and on random distinct wires."""
    fitting = [r for r in RELATIONS.values() if r.n_wires <= n_wires]
    relation = fitting[rng.integers(len(fitting))]
    a, b = (int(rng.integers(lo, fld.d)) for lo in relation.lo)
    wire_of = dict(zip((1, 2, 3), (rng.permutation(n_wires) + 1).tolist()))
    return rule_lhs(relation, a, b, wire_of), rule_rhs(fld, relation, a, b, wire_of)


@pytest.mark.parametrize("d", [2, 3])
def test_all_relations_hold_as_dense_operators(d):
    report = relations_suite(field_for(d))
    assert report["ok"], report


def test_relations_suite_reports_corrupted_rule(monkeypatch):
    fld = field_for(3)

    def plus_one(f, factors):
        return [(kind, wires, f.add_arr(param, 1)) for kind, wires, param in factors]

    # cnot_merge gives C(a + b + 1) unless a = b = 0
    monkeypatch.setitem(RELATIONS, "cnot_merge", spoiled(RELATIONS["cnot_merge"], plus_one, lambda f, a, b: (a | b) != 0))
    report = relations_suite(fld)
    assert not report["ok"]
    bad = report["relations"]["cnot_merge"]
    assert bad["first_failure"] is not None
    assert bad["first_failure"]["max_deviation"] > 0.5
    assert report["relations"]["cnot_chain"]["ok"]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_compare_sequences_exact_and_dense(d):
    fld = field_for(d)

    def equal(n_wires, lhs, rhs):
        return bool(affine_maps_equal(fld, n_wires, 1, batch_of_one(lhs), batch_of_one(rhs))[0])

    # A/D/C/W products compare exactly through their affine maps
    assert equal(2, [Gate("C", (1, 2), 1)], [Gate("C", (1, 2), 1)])
    assert not equal(2, [Gate("C", (1, 2), 1)], [Gate("C", (2, 1), 1)])
    # H and V are not affine maps of the field; the dense oracle decides products holding them
    for other in (Gate("H", (1,)), Gate("V", (1,))):
        with pytest.raises(ValueError, match="no affine representation"):
            equal(1, [other], [Gate("D", (1,), 1)])
    # both sides are validated at once, lhs first: an H in lhs still raises before a bad rhs parameter
    with pytest.raises(ValueError, match="no affine representation"):
        equal(1, [Gate("H", (1,))], [Gate("A", (1,), d)])
    with pytest.raises(ValueError, match=f"parameter {d} out of range"):
        equal(1, [Gate("A", (1,), d)], [Gate("H", (1,))])
    with pytest.raises(ValueError, match=f"parameter {d} out of range"):
        equal(1, [Gate("A", (1,), 0)], [Gate("A", (1,), d), Gate("H", (1,))])


def perturbed(fld, ops, rng):
    """ops with one parameter moved to another admissible value, or None if none can move."""
    movable = [i for i, g in enumerate(ops) if g.param is not None and fld.d - (g.kind == "D") > 1]
    if not movable:
        return None
    i = movable[rng.integers(len(movable))]
    g = ops[i]
    lo = int(g.kind == "D")
    param = lo + (g.param - lo + 1 + int(rng.integers(fld.d - lo - 1))) % (fld.d - lo)
    return ops[:i] + [Gate(g.kind, g.wires, param)] + ops[i + 1:]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9, 16])
def test_compare_sequences_matches_source_map_oracle(d):
    # the affine verdict must equal equality of the dense gather maps: a rule's two sides, on random distinct
    # wires and followed by the same random gates, give an equal product, one moved parameter an unequal one
    rng = np.random.default_rng(100 + d)
    fld = field_for(d)
    verdicts = []
    for n_wires in (1, 2, 3):
        for _ in range(12):
            lhs, rewritten = rule_instance(fld, n_wires, rng)
            tail = [random_gate(fld, n_wires, rng, "ADCW") for _ in range(int(rng.integers(3)))]
            lhs, rhs = lhs + tail, rewritten + tail
            for other in (rhs, perturbed(fld, rhs, rng)):
                if other is None:
                    continue
                want = np.array_equal(sequence_source_map(fld, n_wires, lhs), sequence_source_map(fld, n_wires, other))
                assert want or other is not rhs, (lhs, rhs)  # the table's rewrite holds on any wires
                got = affine_maps_equal(fld, n_wires, 1, batch_of_one(lhs), batch_of_one(other))
                assert got.tolist() == [want], (lhs, other)
                verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9, 16])
def test_affine_maps_equal_batch_matches_source_map_oracle(d):
    # one stack of pairs of one shape, decided per pair like the dense gather maps
    rng = np.random.default_rng(200 + d)
    fld = field_for(d)
    for n_wires in (1, 2, 3):
        ops = [random_gate(fld, n_wires, rng, "ADCW") for _ in range(4)]
        batch = 12
        lhs_params = np.array([[g.param for g in random_like(fld, ops, rng)] for _ in range(batch)], dtype=object)
        rhs_params = lhs_params.copy()
        rhs_params[batch // 2:] = [[g.param for g in random_like(fld, ops, rng)] for _ in range(batch - batch // 2)]

        def side(params):
            return [(g.kind, g.wires, None if g.param is None else params[:, [j]].astype(np.int64))
                    for j, g in enumerate(ops)]

        got = affine_maps_equal(fld, n_wires, batch, side(lhs_params), side(rhs_params))
        for i in range(batch):
            lhs = [Gate(g.kind, g.wires, lhs_params[i, j]) for j, g in enumerate(ops)]
            rhs = [Gate(g.kind, g.wires, rhs_params[i, j]) for j, g in enumerate(ops)]
            want = np.array_equal(sequence_source_map(fld, n_wires, lhs), sequence_source_map(fld, n_wires, rhs))
            assert got[i] == want, (lhs, rhs)
        assert got[: batch // 2].all()


def random_like(fld, ops, rng):
    """ops with every parameter redrawn from its domain."""
    return [g if g.param is None else Gate(g.kind, g.wires, int(rng.integers(g.kind == "D", fld.d))) for g in ops]


def opposed_branch(u_zero):
    """The cnot_opposed_pair entry with the last factor of one form (u = 1 + ab = 0, or u != 0) moved by 1."""
    def last_plus_one(f, factors):
        kind, wires, param = factors[-1]
        return factors[:-1] + [(kind, wires, f.add_arr(param, 1))]
    return spoiled(RELATIONS["cnot_opposed_pair"], last_plus_one,
                   lambda f, a, b: (f.add_arr(1, f.mul_arr(a, b)) == 0) == u_zero)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cnot_opposed_pair_checks_both_right_hand_shapes(d, monkeypatch):
    fld = field_for(d)
    relation = RELATIONS["cnot_opposed_pair"]
    shapes = set()
    for a in range(relation.lo[0], d):
        for b in range(relation.lo[1], d):
            shapes.add(tuple((g.kind, g.wires) for g in rule_rhs(fld, relation, a, b)))
    assert len(shapes) == 2
    # a fault in either shape fails the rule at a case of that shape, and nothing else
    for u_zero in (True, False):
        monkeypatch.setitem(RELATIONS, "cnot_opposed_pair", opposed_branch(u_zero))
        report = relations_suite(fld)
        monkeypatch.setitem(RELATIONS, "cnot_opposed_pair", relation)
        assert {name for name, r in report["relations"].items() if not r["ok"]} == {"cnot_opposed_pair"}
        first = next((a, b) for a in range(d) for b in range(d) if (fld.add(1, fld.mul(a, b)) == 0) == u_zero)
        assert report["relations"]["cnot_opposed_pair"]["first_failure"]["params"] == first


def set_last_param(value):
    return lambda f, factors: factors[:-1] + [(*factors[-1][:2], value(f))]


# (change of a right-hand side, error message).  The change applies at the
# case a = b = d - 1 of every rule, the last one of each rule.  The changed
# case is a form of its own, decided after the rule's other cases, so its
# bad value must be found by the check of its form's factor columns.
BAD_FACTORS = {
    "H": (lambda f, factors: factors + [("H", (1,), None)], "H gate has no affine representation"),
    "V": (lambda f, factors: factors + [("V", (1,), None)], "V gate has no affine representation"),
    "D0": (lambda f, factors: [(kind, wires, 0 if kind == "D" else param) for kind, wires, param in factors],
           "D(0) is not unitary"),
    "param-d": (set_last_param(lambda f: f.d), "parameter {d} out of range for order-{d} field"),
    "param-negative": (set_last_param(lambda f: -1), "parameter -1 out of range for order-{d} field"),
}


@pytest.mark.parametrize("bad", sorted(BAD_FACTORS))
@pytest.mark.parametrize("d", [3, 4])
def test_relations_suite_rejects_a_bad_factor_in_any_case(d, bad, monkeypatch):
    change, message = BAD_FACTORS[bad]
    message = f"^{re.escape(message.format(d=d))}$"
    fld = field_for(d)
    for name, relation in list(RELATIONS.items()):
        monkeypatch.setitem(RELATIONS, name, spoiled(relation, change, lambda f, a, b: (a == f.d - 1) & (b == f.d - 1)))
    with pytest.raises(ValueError, match=message):
        relations_suite(fld)
    # the spoiled entry's case a = b = d - 1, read from the table and checked on its own, raises the same error
    relation = RELATIONS["scale_scale_merge"]
    lhs, rhs = rule_lhs(relation, d - 1, d - 1), rule_rhs(fld, relation, d - 1, d - 1)
    with pytest.raises(ValueError, match=message):
        affine_maps_equal(fld, 1, 1, batch_of_one(lhs), batch_of_one(rhs))


def test_relations_suite_raises_for_the_rule_drawn_first(monkeypatch):
    # two bad rules: the one drawn first raises, though the other comes first in the table
    fld = field_for(7)
    names = list(RELATIONS)
    drawn_first = names[relations_cases(fld, 1)[0][0]]
    assert names.index(drawn_first) > 0
    monkeypatch.setitem(RELATIONS, names[0], spoiled(RELATIONS[names[0]], lambda f, factors: factors + [("H", (1,), None)]))
    monkeypatch.setitem(RELATIONS, drawn_first,
                        spoiled(RELATIONS[drawn_first], lambda f, factors: factors + [("V", (1,), None)]))
    with pytest.raises(ValueError, match="^V gate has no affine representation$"):
        relations_suite(fld, seed=1)


def test_relations_random_mode_seeded(monkeypatch):
    from quditgraph import rewrite

    monkeypatch.setattr(rewrite, "RELATIONS_SAMPLES", 60)
    fld = field_for(7)
    r1 = relations_suite(fld, seed=5)
    r2 = relations_suite(fld, seed=5)
    assert r1 == r2
    assert r1["ok"] and r1["mode"] == "random[60]"


def test_relations_suite_mode_follows_the_field():
    # exhaustive up to d = 5, 13 d^2 cases at most; random past it, GF(64) included
    for d, mode, cases in [(2, "exhaustive", None), (5, "exhaustive", None), (7, "random[1000]", 1000),
                           (64, "random[1000]", 1000)]:
        fld = field_for(d)
        report = relations_suite(fld)
        want = cases or sum((d - lo_a) * (d - lo_b) for lo_a, lo_b in (r.lo for r in RELATIONS.values()))
        assert report["mode"] == mode and report["ok"], report
        assert sum(r["checked"] for r in report["relations"].values()) == want


def dense_relations_report(fld, seed):
    """relations_suite's report rebuilt draw by draw: rule_lhs and rule_rhs as gates, decided by the dense gather maps."""
    names = list(RELATIONS)
    results = {name: {"checked": 0, "first_failure": None} for name in names}
    for r, a, b in zip(*(column.tolist() for column in relations_cases(fld, seed))):
        name = names[r]
        n_wires = RELATIONS[name].n_wires
        lhs, rhs = rule_lhs(RELATIONS[name], a, b), rule_rhs(fld, RELATIONS[name], a, b)
        entry = results[name]
        entry["checked"] += 1
        same = np.array_equal(sequence_source_map(fld, n_wires, lhs), sequence_source_map(fld, n_wires, rhs))
        if not same and entry["first_failure"] is None:
            entry["first_failure"] = {"params": (a, b), "max_deviation": 1.0}
    for entry in results.values():
        entry["ok"] = entry["checked"] > 0 and entry["first_failure"] is None
    return {"field": fld.descriptor(), "mode": "exhaustive" if fld.d <= 5 else "random[1000]",
            "decided_by": "affine-rows", "relations": results, "ok": all(r["ok"] for r in results.values())}


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("seed, flip, golden", [(1, False, "relations_seed1"), (2, False, "relations_seed2"),
                                               (3, False, "relations_seed3"), (1, True, "relations_sign_flip_seed1")],
                         ids=["1-commute_pair-relations_seed1", "2-commute_pair-relations_seed2",
                              "3-commute_pair-relations_seed3", "1-sign_flipped-relations_sign_flip_seed1"])
def test_relations_goldens_match_the_dense_case_by_case_check(seed, flip, golden, monkeypatch):
    # the golden files of relations-test are the batched suite's output; the dense oracle certifies them.
    # flip negates the new CNOT of the reverse chain, in the entry that the suite and rule_rhs both read
    if flip:
        monkeypatch.setitem(RELATIONS, "cnot_chain_reverse", spoiled(RELATIONS["cnot_chain_reverse"], negate_last))
    reports = []
    for d in (2, 3, 4, 5, 7, 8, 9):
        fld = field_for(d)
        want = dense_relations_report(fld, seed)
        assert relations_suite(fld, seed=seed) == want, fld.descriptor()
        reports.append(want)
    assert json.loads(json.dumps(reports)) == json.loads((GOLDEN / f"{golden}.json").read_text())


@pytest.mark.parametrize("d", [7, 8, 9, 64, 257])
def test_relations_cases_draw_within_each_rule_domain(d):
    fld = field_for(d)
    names = list(RELATIONS)
    lo = np.array([relation.lo for relation in RELATIONS.values()])
    for seed in (0, 1, 2):
        rule, a, b = relations_cases(fld, seed)
        assert rule.shape == a.shape == b.shape == (1000,)
        assert rule.dtype == a.dtype == b.dtype == np.int64
        assert ((lo[rule, 0] <= a) & (a < d) & (lo[rule, 1] <= b) & (b < d)).all()
        assert set(rule.tolist()) == set(range(len(names)))
        report = relations_suite(fld, seed=seed)
        assert sum(r["checked"] for r in report["relations"].values()) == 1000
        assert report["relations"] == {name: {"checked": rule.tolist().count(r), "first_failure": None, "ok": True}
                                       for r, name in enumerate(names)}
        assert all(type(r["checked"]) is int for r in report["relations"].values())


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_relations_cases_list_every_case_rule_by_rule(d):
    # exhaustive mode: table order, a slowest, each admissible pair once
    fld = field_for(d)
    want = [(r, a, b) for r, relation in enumerate(RELATIONS.values())
            for a in range(relation.lo[0], d) for b in range(relation.lo[1], d)]
    rule, a, b = relations_cases(fld, seed=7)
    assert list(zip(rule.tolist(), a.tolist(), b.tolist())) == want


def test_relations_random_mode_depends_on_the_seed_alone():
    fld = field_for(8)
    assert np.array_equal(relations_cases(fld, 4), relations_cases(fld, 4))
    assert relations_suite(fld, seed=4) == relations_suite(fld, seed=4)
    assert not np.array_equal(relations_cases(fld, 4), relations_cases(fld, 5))
    assert relations_suite(fld, seed=4) != relations_suite(fld, seed=5)


@pytest.mark.parametrize("d", [3, 7, 9])
def test_relations_suite_rewrites_each_rule_once(d, monkeypatch):
    # one rhs call per rule, over the rule's draws in draw order, a case drawn twice passed twice
    fld = field_for(d)
    calls = []
    for name, relation in list(RELATIONS.items()):
        def recording(f, a, b, name=name, rhs=relation.rhs):
            calls.append((name, a.tolist(), b.tolist()))
            return rhs(f, a, b)
        monkeypatch.setitem(RELATIONS, name, relation._replace(rhs=recording))
    report = relations_suite(fld, seed=1)
    cases = list(zip(*(column.tolist() for column in relations_cases(fld, 1))))
    assert report["ok"] and sum(r["checked"] for r in report["relations"].values()) == len(cases)
    assert calls == [(name, [a for i, a, _ in cases if i == r], [b for i, _, b in cases if i == r])
                     for r, name in enumerate(RELATIONS)]
    assert (len(set(cases)) < len(cases)) == (d > 5)


def test_relations_first_failure_is_the_earliest_draw_of_a_repeated_case(monkeypatch):
    # x and y of one rule both fail; x is drawn first and again after y, so the report names x
    fld = field_for(7)
    cases = list(zip(*(column.tolist() for column in relations_cases(fld, 1))))
    first, last = {}, {}
    for i, case in enumerate(cases):
        first.setdefault(case, i)
        last[case] = i
    x, y = next((x, y) for x in first for y in first if x[0] == y[0] and first[x] < first[y] < last[x])
    name = list(RELATIONS)[x[0]]
    faulty = [a * fld.d + b for _, a, b in (x, y)]
    monkeypatch.setitem(RELATIONS, name, spoiled(RELATIONS[name], lambda f, factors: factors + [("A", (1,), 1)],
                                                 lambda f, a, b: np.isin(a * f.d + b, faulty)))
    report = relations_suite(fld, seed=1)
    assert {name for name, r in report["relations"].items() if not r["ok"]} == {name}
    assert report["relations"][name]["first_failure"] == {"params": x[1:], "max_deviation": 1.0}


def test_random_rewrites_preserve_the_state():
    # rule left-hand sides on random distinct wires spliced into random circuits; putting each rule's
    # right-hand side in its place leaves the state unchanged, symbolically and densely
    fld = field_for(3)
    rng = np.random.default_rng(31)
    for trial in range(10):
        circ = random_c_circuit(fld, 4, 2, 10, rng)
        chunks = [([g], [g]) for g in circ.gates]
        for _ in range(20):
            lhs, rhs = rule_instance(fld, 4, rng)
            # an operator product acts last factor first, so in time order each side runs reversed
            chunks.insert(int(rng.integers(len(chunks) + 1)), (lhs[::-1], rhs[::-1]))
        before, after = (Circuit(fld, 4, circ.init, tuple(g for chunk in chunks for g in chunk[side]))
                         for side in (0, 1))
        assert before.gates != after.gates
        assert states_equal_symbolic(SymbolicState.from_circuit(after), SymbolicState.from_circuit(before))
        assert np.max(np.abs(after.simulate().amps - before.simulate().amps)) < 1e-10


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

EXAMPLE_CIRCUIT = """\
# four-wire example
field 2 2 3
qudits 4
init s s 0 0
C 1 3 1
C 1 4 1
C 2 3 1
C 2 4 2
C 3 1 3
"""


def test_parse_and_serialize_round_trip():
    circ = parse_circuit(EXAMPLE_CIRCUIT)
    assert circ.field.descriptor() == "2 2 3"
    assert circ.n_qudits == 4 and circ.k == 2
    assert len(circ.gates) == 5
    again = parse_circuit(serialize_circuit(circ))
    assert again == circ


def test_parse_reports_line_numbers():
    bad = EXAMPLE_CIRCUIT.replace("C 2 4 2", "C 2 4")
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(bad)
    assert err.value.line == 8
    with pytest.raises(CircuitParseError):
        parse_circuit("field 2 1\nqudits 2\n")  # missing init


@pytest.mark.parametrize("text, line, message", [
    ("field 2 1\nqudits 3\ninit s 0 0\nC 1 2 1\nC 1 5 1\n", 5, "wire 5 out of range 1..3"),
    ("field 3 1\nqudits 3\ninit s 0 0\n# comment\nC 1 2 1\n\nD 2 0\n", 7, "D(0) is not unitary"),
    ("field 3 1\nqudits 3\ninit s 0 x\nC 1 2 1\n", 3, "init entries must be 's' or '0', got 'x'"),
])
def test_parse_names_the_line_of_a_rejected_gate_or_init(text, line, message):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("line", [
    "X 1", "C 1 2", "C 1 2 1 1", "W 1", "W 1 2 1", "A 1", "D 1 2 1", "H", "H 1 1", "V 1 2",
])
def test_parse_rejects_unknown_kinds_and_argument_counts(line):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(f"field 3 1\nqudits 2\ninit s 0\n{line}\n")
    assert err.value.line == 4


def test_parse_reads_every_kind_from_the_arity_table():
    text = "field 3 1\nqudits 2\ninit s 0\nA 1 2\nD 2 2\nC 1 2 1\nH 1\nV 2\nW 1 2\n"
    assert parse_circuit(text).gates == (
        Gate("A", (1,), 2), Gate("D", (2,), 2), Gate("C", (1, 2), 1),
        Gate("H", (1,)), Gate("V", (2,)), Gate("W", (1, 2)),
    )


def test_parse_all_gate_kinds():
    text = "field 3 1 0\nqudits 3\ninit s 0 0\nC 1 2 2\nA 1 1\nD 2 2\nH 3\nV 1\nW 2 3\n"
    circ = parse_circuit(text)
    assert [g.kind for g in circ.gates] == ["C", "A", "D", "H", "V", "W"]


NORMALIZE_DATA = Path(__file__).parent / "data" / "normalize"


def test_parse_layout_file_equals_its_plain_twin():
    # CRLF breaks, tabs, a form feed, blank lines, comments and no final break
    text = (NORMALIZE_DATA / "layout.qc").read_bytes().decode()
    assert "\r\n" in text and "\t" in text and "\x0c" in text and not text.endswith("\n")
    assert parse_circuit(text) == parse_circuit((NORMALIZE_DATA / "gf3.qc").read_text())


# lines 1-9: a comment, a blank line, the header with a trailing comment and a
# form feed, a comment line and a gate; the line under test is line 10
LAYOUT_HEADER = ["# a comment", "", "field 3 1", "qudits 3   # wires", "\x0cinit s 0 0", "# gates", "\t", "C 1 2 1 # ok"]


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0b", "\x1e", "\x85", "\u2028"])
@pytest.mark.parametrize("bad, line, message", [
    ("X 1 2", 10, "unknown gate 'X'"),
    ("C 1 2", 10, "C gate takes 3 argument(s)"),
    ("C 1 x 1", 10, "invalid literal for int() with base 10: 'x'"),
    ("C 1 4 1", 10, "wire 4 out of range 1..3"),
    ("D 2 0 # é", 10, "D(0) is not unitary"),
    (None, 6, "init entries must be 's' or '0', got 'x'"),
])
def test_parse_errors_keep_their_lines_under_every_line_break(brk, bad, line, message):
    lines = [*LAYOUT_HEADER, bad or "C 1 3 2", "A 1 1"]
    if bad is None:
        lines[4] = "\x0cinit s 0 x"
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(brk.join(lines) + brk)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize("bad, message", [
    ("C 1 2 +1", "argument '+1' is not an ASCII decimal integer"),
    ("C 1 2 1_0", "argument '1_0' is not an ASCII decimal integer"),
    ("A -1 -", "invalid literal for int() with base 10: '-'"),
    ("A 1 --1", "invalid literal for int() with base 10: '--1'"),
    ("C 1 2 \u0663", "non-ASCII character '\u0663' outside a comment"),  # the Arabic-Indic digit 3
    ("C 1\xa02 1", "non-ASCII character '\\xa0' outside a comment"),
    ("C 1 2\u30001", "non-ASCII character '\\u3000' outside a comment"),
    ("C\x001 2 1", "unknown gate 'C\\x001'"),
])
def test_parse_reads_gate_arguments_as_ascii_decimal_only(bad, message):
    text = "field 3 1\r\nqudits 3\r\ninit s 0 0\r\n# é in a comment is fine\r\nC 1 2 1\r\n" + bad + "\r\n"
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert str(err.value) == f"line 6: {message}"


def reference_gates(text: str):
    """The gate list of a circuit text read line by line with str.splitlines, or ("error", line)."""
    lines = text.splitlines()
    header = [i for i, raw in enumerate(lines) if raw.split("#", 1)[0].strip()][:3]
    gates, numbers = [], []
    for line_no, raw in enumerate(lines[header[-1] + 1 :], start=header[-1] + 2):
        line = raw.split("#", 1)[0]
        parts = line.split()
        if not line.isascii() or parts and (parts[0] not in simulator.GATE_ARITY
                                            or len(parts) != 1 + sum(simulator.GATE_ARITY[parts[0]])):
            return "error", line_no
        try:
            values = [simulator._ascii_int(token) for token in parts[1:]]
        except ValueError:
            return "error", line_no
        if parts:
            n_wires = simulator.GATE_ARITY[parts[0]][0]
            gates.append(Gate(parts[0], tuple(values[:n_wires]), values[n_wires] if len(values) > n_wires else None))
            numbers.append(line_no)
    return gates, numbers


def test_parse_matches_a_line_by_line_reference():
    # seeded edits of a small circuit: every kind of break, blank and comment
    # lines, odd tokens; the bulk scan and the line-by-line reading must agree
    rng = np.random.default_rng(7)
    pieces = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ", "\t", "\x1f", "#", "# c\n", "-",
              "+", "_", "0", "7", "12", "-3", "00000000000000000000000000002", str(2 ** 63), "\xa0", "\u0663",
              "x", "C", "A", "H", "W", "\x00", "1.5", "C 1 2 1\n", "A 3 2\n", "H 2\n", "W 1 3\n", "D 2 0\n"]
    base = "field 3 1\nqudits 3\ninit s 0 s\nC 1 2 1\nA 3 2 # shift\n\nH 2\nW 1 3\nD 2 2\nC 3 1 2\n"
    outcomes = set()
    for _ in range(1500):
        text = base
        for _ in range(rng.integers(1, 5)):
            at = int(rng.integers(base.index("C 1 2 1"), len(text) + 1))
            if rng.random() < 0.7:
                text = text[:at] + pieces[rng.integers(len(pieces))] + text[at:]
            else:
                text = text[:at] + text[at + int(rng.integers(1, 4)):]
        want = reference_gates(text)
        try:
            got = parse_circuit(text)
        except CircuitParseError as exc:
            if want[0] != "error":
                gates, numbers = want
                with pytest.raises(simulator.GateError) as rejected:
                    Circuit(field_for(3), 3, ("s", "0", "s"), gates)
                want = ("error", numbers[rejected.value.index])
            assert exc.line == want[1], text
            outcomes.add("error")
            continue
        assert want[0] != "error", text
        assert got.gates == tuple(want[0]), text
        outcomes.add("ok")
    assert outcomes == {"ok", "error"}


def test_graph_json_round_trip():
    fld = field_for(4)
    graph = make_graph_state(fld, [1, 3], [2, 4], [(1, 2, 1), (1, 4, 1), (3, 4, 1), (3, 2, 2)])
    data = graph_to_json_dict(graph)
    assert data["S"] == [1, 3] and data["O"] == [2, 4]
    assert graph_from_json_dict(data) == graph


def test_graph_dot_output():
    fld = field_for(3)
    graph = make_graph_state(fld, [1], [2], [(1, 2, 2)])
    dot = graph_to_dot(graph)
    assert "doublecircle" in dot and "q1 -> q2" in dot and 'label="2"' in dot


def test_zero_labels_dropped():
    fld = field_for(3)
    graph = make_graph_state(fld, [1], [2, 3], [(1, 2, 0), (1, 3, 1)])
    assert graph.edges == ((1, 3, 1),)


def test_graph_invariants_enforced():
    fld = field_for(3)
    with pytest.raises(ValueError, match="overlap"):
        GraphState(fld, (1,), (1, 2), np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="cover"):
        GraphState(fld, (1,), (3,), np.zeros((1, 1), dtype=np.int64))
    # a block has no entry for an edge out of a sink; the edge list is refused
    with pytest.raises(ValueError, match="does not run from a source to a sink"):
        make_graph_state(fld, (1,), (2,), ((2, 1, 1),))


@pytest.mark.parametrize("s_wires, o_wires, edges, message", [
    ([1], [1, 2], [(1, 2, 1), (1, 2, 2)], "source and sink wire sets overlap"),
    ([1], [3], [(3, 1, 5)], "wires must cover 1..N"),
    ([1, 1], [2], [], "wires must cover 1..N"),
    ([1], [2, 3], [(2, 1, 1), (1, 3, 1), (1, 3, 2)], "an edge between the same source and sink is listed twice"),
    ([1], [2], [(2, 1, 1)], "edge (2, 1) does not run from a source to a sink wire"),
    ([1], [2], [(2, 1, 5)], "edge (2, 1) does not run from a source to a sink wire"),
    ([1], [2], [(1, 5, 1)], "edge (1, 5) does not run from a source to a sink wire"),
    ([1], [2, 3], [(1, 3, 7), (1, 2, -1)], "edge label -1 must be a nonzero field element"),
    ([1], [2, 3], [(2, 1, 1), (1, 2, 7)], "edge label 7 must be a nonzero field element"),
    ([1], [2], [(1, 2, 3)], "edge label 3 must be a nonzero field element"),
    ([1], [2], [(1, 2, -1)], "edge label -1 must be a nonzero field element"),
    ([1], [2], [(1, 2, 10 ** 30)], f"edge label {10 ** 30} must be a nonzero field element"),
], ids=["overlap", "gap", "repeated-wire", "repeated-pair", "direction", "direction-before-label", "missing-wire",
        "sorted-order", "sorted-order-label-first", "label-d", "label-minus-one", "label-10e30"])
def test_make_graph_state_errors_in_order(s_wires, o_wires, edges, message):
    # over GF(3): the wires first, then a repeated pair, then each edge in sorted order, its direction before its label
    with pytest.raises(ValueError) as info:
        make_graph_state(field_for(3), s_wires, o_wires, edges)
    assert str(info.value) == message


def test_make_graph_state_sorts_wires_and_drops_zero_labels():
    fld = field_for(3)
    graph = make_graph_state(fld, iter([2, 1]), iter([4, 3]), [(2, 3, 1), (1, 4, 2), (1, 3, 0), (4, 1, 0)])
    assert (graph.s_wires, graph.o_wires) == ((1, 2), (3, 4))
    assert graph.edges == ((1, 4, 2), (2, 3, 1))
    assert np.array_equal(graph.block, [[0, 2], [1, 0]])
    assert all(type(v) is int for edge in graph.edges for v in edge)


def test_graph_block_is_checked_and_read_only():
    fld = field_for(3)
    with pytest.raises(ValueError, match=r"label block of shape \(2, 1\), expected \(1, 2\)"):
        GraphState(fld, (1,), (2, 3), np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(ValueError, match=r"label block of shape \(1,\), expected \(1, 1\)"):
        GraphState(fld, (1,), (2,), [1])
    for bad in (3, -1):
        with pytest.raises(ValueError, match="out of range for order-3 field"):
            GraphState(fld, (1,), (2, 3), [[1, bad]])
    block = np.array([[1, 2]])
    graph = GraphState(fld, (1,), (2, 3), block)
    block[0, 0] = 0  # the graph holds its own copy
    assert graph.edges == ((1, 2, 1), (1, 3, 2)) and graph.block.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        graph.block[0, 0] = 2
    assert graph == make_graph_state(fld, [1], [2, 3], [(1, 3, 2), (1, 2, 1)])
    assert graph != GraphState(fld, (1,), (2, 3), [[1, 1]]) and graph != GraphState(field_for(5), (1,), (2, 3), block)
    assert graph != GraphState(fld, (2,), (1, 3), [[1, 2]])
    with pytest.raises(TypeError):
        hash(graph)


def test_graph_block_must_hold_integers():
    # a float or bool block is refused, not truncated to int64
    fld = field_for(3)
    for bad, dtype in (([[1.5]], "float64"), ([[1.0]], "float64"), ([[True]], "bool"), (np.ones((1, 1), np.float32), "float32"),
                       ([["1"]], "<U1"), ([[10 ** 30]], "object")):
        with pytest.raises(ValueError) as info:
            GraphState(fld, (1,), (2,), bad)
        assert str(info.value) == f"label block must hold integers, got dtype {dtype}"
    with pytest.raises(ValueError) as info:  # checked before the int64 copy, which would wrap it
        GraphState(fld, (1,), (2,), np.array([[2 ** 63 + 1]], dtype=np.uint64))
    assert str(info.value) == f"element index {2 ** 63 + 1} out of range for order-3 field"
    for good in ([[2]], np.array([[2]], dtype=np.uint8), np.array([[2]], dtype=np.int32)):
        graph = GraphState(fld, (1,), (2,), good)
        assert graph.edges == ((1, 2, 2),) and graph.block.dtype == np.int64


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 9])
def test_standard_form_graph_is_graph_from_symbolic(d):
    fld = field_for(d)
    rng = np.random.default_rng(1300 + d)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        make = random_c_circuit if trial % 2 else random_cadw_circuit
        sym = SymbolicState.from_circuit(make(fld, n, k, int(rng.integers(1, 25)), rng))
        graph, residual = sym.standard_form()
        got, shifts = graph_from_symbolic(sym)
        assert graph == got
        assert shifts == {j: int(v) for j, v in zip(graph.o_wires, residual) if v}
        assert states_equal_symbolic(graph.to_symbolic(), SymbolicState(fld, n, sym.matrix, np.zeros(n, dtype=np.int64)))


@pytest.mark.parametrize("labels", [(1, 2), (1, 1)])
def test_graph_rejects_repeated_edge(labels):
    # matrix() keeps one label per (source, sink), so a second edge would be dropped unseen
    fld = field_for(3)
    with pytest.raises(ValueError, match="listed twice"):
        make_graph_state(fld, [1], [2, 3], [(1, 2, labels[0]), (1, 3, 1), (1, 2, labels[1])])
    # a zero label is no edge, so it cannot repeat one
    assert make_graph_state(fld, [1], [2], [(1, 2, 0), (1, 2, 2)]).edges == ((1, 2, 2),)


# ---------------------------------------------------------------------------
# Field linear algebra
# ---------------------------------------------------------------------------

def test_rref_basics():
    fld = field_for(3)
    m = np.array([[2, 2, 1], [1, 1, 0]])
    r, pivots = mat_rref(fld, m)
    assert pivots == [0, 2]
    assert np.array_equal(r, [[1, 1, 0], [0, 0, 1]])
    assert len(mat_rref(fld, np.array([[2, 2, 1], [1, 1, 2]]))[1]) == 1  # second row = 2 * first


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9, 127, 131, 256, 257, 512])
def test_rref_stack_matches_scalar_oracle(d):
    # rows packed in bytes up to GF(256) and GF(127); _eliminate over GF(9), GF(131), GF(257) and GF(512)
    fld = field_for(d)
    assert packs_in_bytes(fld) == (d not in (9, 131, 257, 512))
    rng = np.random.default_rng(d)
    mats = [np.zeros(shape, dtype=np.int64) for shape in [(0, 4), (3, 0), (0, 3), (2, 0), (0, 0), (3, 5)]]
    for rows, cols in [(3, 5), (4, 4), (5, 3), (1, 6), (6, 1)]:
        for rank in range(1, min(rows, cols) + 1):  # a rank-r product has rank at most r
            coeffs = rng.integers(0, d, size=(rows, rank))
            basis = rng.integers(0, d, size=(rank, cols))
            mats.append(scalar_matmul(fld, coeffs, basis))
    for rows, cols in [(1, 1), (2, 7), (12, 30), (30, 12)]:
        mats.append(rng.integers(0, d, size=(rows, cols)))
        # rank-deficient: a scaled copy and a repeated copy of other rows, shuffled in
        basis = rng.integers(0, d, size=(max(rows - 2, 1), cols))
        dependent = np.concatenate([basis, fld.mul_arr(int(rng.integers(1, d)), basis[:1]), basis[-1:]])
        mats.append(dependent[rng.permutation(len(dependent))])
    for mat in mats:
        before = mat.copy()
        got, pivots = mat_rref(fld, mat)
        assert np.array_equal(mat, before)  # the input is not modified
        want, want_pivots = scalar_rref(fld, mat)
        assert got.dtype == np.int64 and got.shape == mat.shape and np.array_equal(got, want)
        assert pivots == want_pivots
        assert np.array_equal(got, _rref_eliminate(fld, mat)[0])


@pytest.mark.parametrize("d", [2, 3, 256])
def test_rref_packed_matches_eliminate_past_one_machine_word(d):
    # rows of 300 bytes, and more rows than columns
    fld = field_for(d)
    rng = np.random.default_rng(d)
    for rows, cols in [(150, 300), (300, 150)]:
        mat = rng.integers(0, d, size=(rows, cols))
        mat[rows // 2 :] = fld.mul_arr(mat[: rows - rows // 2], 1 + rng.integers(0, d - 1, size=(rows - rows // 2, 1)))
        got, pivots = mat_rref(fld, mat)
        want, want_pivots = _rref_eliminate(fld, mat)
        assert np.array_equal(got, want) and pivots == want_pivots
        assert len(pivots) <= rows - rows // 2


def test_entries_range_checked_at_entry_points():
    fld = field_for(3)
    for bad in ([[5, 1]], [[-1, 1]]):
        with pytest.raises(ValueError, match="out of range"):
            mat_rref(fld, np.array(bad))
        with pytest.raises(ValueError, match="out of range"):
            SymbolicState(fld, 2, bad, [0, 0])
    with pytest.raises(ValueError, match="out of range"):
        SymbolicState(fld, 2, [[1, 1]], [0, 3])
    for not_a_matrix in (np.array([1, 2]), np.zeros((1, 2, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match="expects a \\(rows, cols\\) matrix"):
            mat_rref(fld, not_a_matrix)


def test_canonicalize_untabulated_field_matches_scalar_oracle():
    fld = field_for(257)
    rng = np.random.default_rng(257)
    n = 6
    circ = random_c_circuit(fld, n, 3, 30, rng)
    # oracle: the coefficient matrix tracked and reduced with scalar Field calls
    mat = SymbolicState.from_pattern(fld, circ.init).matrix.tolist()
    for g in circ.gates:
        m, t = g.control - 1, g.target - 1
        for row in mat:
            row[t] = fld.add(row[t], fld.mul(g.param, row[m]))
    rref, pivots = scalar_rref(fld, mat)
    sinks = [c for c in range(n) if c not in pivots]
    edges = sorted((pivots[r] + 1, j + 1, int(rref[r, j])) for r in range(len(pivots)) for j in sinks if rref[r, j])
    _, graph = canonicalize(circ)
    assert graph.s_wires == tuple(c + 1 for c in pivots)
    assert list(graph.edges) == edges
