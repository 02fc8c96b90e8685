import functools
import math
import re
import time
from itertools import chain

import numpy as np
import pytest

from quditgraph import (
    Field,
    Gate,
    ResourceGuardError,
    SymbolicState,
    build_mes,
    dump_state,
    fourier_matrix,
    gate_matrix,
    init_state,
    parse_state_dump,
    run_gates,
    sequence_matrix,
    spectrum,
    square_state,
)
from quditgraph import simulator
from quditgraph.simulator import (
    KIND_C,
    GateColumns,
    GateError,
    StateVector,
    _run_raw,
    bipartition_subsets,
    int_column,
    parse_state,
    reduced_density_raw,
    sequence_source_map,
    validate_gates,
)

from util import (
    dump_state_loop,
    field_for,
    parse_state_loop,
    oracle_gate_matrix,
    oracle_sequence_matrix,
    random_cadw_circuit,
    random_gate,
    rank,
    states_equal_up_to_phase,
    support_of,
)

# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_init_single_superposition_qubit():
    st = init_state(field_for(2), 1, ["s"])
    assert np.allclose(st.amps, [1 / math.sqrt(2)] * 2)


def test_init_superposition_zero_f4():
    st = init_state(field_for(4), 2, ["s", "0"])
    expected = np.zeros(16)
    expected[[0, 4, 8, 12]] = 0.5
    assert np.allclose(st.amps, expected)


def test_init_all_zero_f3():
    st = init_state(field_for(3), 2, ["0", "0"])
    assert st.amps[0] == 1 and np.count_nonzero(st.amps) == 1


def test_init_guard():
    with pytest.raises(ResourceGuardError):
        init_state(field_for(2), 25, ["0"] * 25)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
def test_init_state_is_the_tensor_product(d):
    # the product's support, each ket at the exact d^(-k/2) rather than k rounded 1/sqrt(d) factors multiplied
    rng = np.random.default_rng(d)
    zero, uniform = np.eye(d)[0], np.full(d, 1 / math.sqrt(d))
    for n in (1, 2, 3, 4):
        for pattern in (["s"] * n, ["0"] * n, list(rng.choice(["s", "0"], size=n))):
            product = np.ones(1)
            for token in pattern:
                product = np.kron(product, uniform if token == "s" else zero)
            amps = init_state(field_for(d), n, pattern).amps
            assert np.array_equal(amps, (product != 0) * d ** (-pattern.count("s") / 2)), pattern
            assert np.allclose(amps, product, rtol=1e-15, atol=0), pattern


def test_init_rejects_bad_patterns():
    with pytest.raises(ValueError, match="pattern length"):
        init_state(field_for(3), 2, ["s"])
    with pytest.raises(ValueError, match="must be 's' or '0'"):
        init_state(field_for(3), 2, ["s", "1"])


def test_dense_states_over_large_fields():
    # one GF(65521) qudit is a small state, but its d x d Fourier matrix is 64 GiB
    fld = field_for(65521)
    st = init_state(fld, 1, ["s"])
    assert np.allclose(st.amps, 1 / math.sqrt(fld.d))
    assert np.array_equal(run_gates(st, [Gate("D", (1,), 3)]).amps, st.amps)
    with pytest.raises(ResourceGuardError):
        run_gates(st, [Gate("H", (1,))])
    with pytest.raises(ResourceGuardError):
        sequence_source_map(fld, 2, [Gate("C", (1, 2), 1)])


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def test_cnot_builds_generalized_bell():
    for d in (2, 3, 4, 5):
        fld = field_for(d)
        st = run_gates(init_state(fld, 2, ["s", "0"]), [Gate("C", (1, 2), 1)])
        expect = np.zeros(d * d, dtype=complex)
        for i in range(d):
            expect[i * d + i] = 1 / math.sqrt(d)
        assert np.allclose(st.amps, expect)


def test_identity_parameters_do_nothing():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        fld = field_for(d)
        amps = rng.standard_normal(d ** 2) + 1j * rng.standard_normal(d ** 2)
        amps /= np.linalg.norm(amps)
        st = StateVector(fld, 2, amps)
        for g in (Gate("A", (1,), 0), Gate("D", (2,), 1), Gate("C", (1, 2), 0)):
            assert np.allclose(run_gates(st, [g]).amps, amps)


def test_fourier_maps_zero_to_uniform():
    for d in (2, 3, 4, 5, 7, 8, 9):
        fld = field_for(d)
        st = run_gates(init_state(fld, 1, ["0"]), [Gate("H", (1,))])
        assert np.allclose(st.amps, np.full(d, 1 / math.sqrt(d)))


def test_fourier_is_qubit_hadamard():
    h = fourier_matrix(field_for(2))
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_fourier_unitary(d):
    h = fourier_matrix(field_for(d))
    assert np.max(np.abs(h @ h.conj().T - np.eye(d))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 9, 257, 1024])
def test_fourier_matrix_gathers_the_direct_powers_bit_for_bit(d):
    # the p-entry table of omega powers, indexed by the dot products, gives
    # exactly the entries of raising omega per entry; over characteristic 2
    # omega is -1 exactly, so the table is the real +-d^(-1/2)
    fld = field_for(d)
    dots = fld.digits @ fld.digits.T % fld.p
    if fld.p == 2:
        direct = np.where(dots == 0, 1.0, -1.0) / math.sqrt(d)
    else:
        direct = np.exp(2j * np.pi / fld.p) ** dots / math.sqrt(d)
    h = fourier_matrix(fld)
    assert h.dtype == direct.dtype and np.array_equal(h, direct)


@pytest.mark.parametrize("d, n, kinds", [(2, 10, "ADHVCW"), (4, 5, "ADHVCW"), (8, 4, "ADHVCW"),
                                         (3, 6, "ADVCW"), (5, 4, "ADVCW"), (7, 3, "ADVCW"), (9, 3, "ADVCW")])
def test_real_lane_matches_the_complex_run_bit_for_bit(d, n, kinds):
    # every gate over characteristic 2, and every gate but H over odd p, keeps
    # float64 amplitudes float64; the same run on a complex128 copy gives
    # exactly the same real parts and imaginary parts that are exactly 0
    fld = field_for(d)
    rng = np.random.default_rng(60 + d)
    for _ in range(4):
        cols = validate_gates(fld, n, [random_gate(fld, n, rng, kinds) for _ in range(3 * n)])
        amps = rng.standard_normal(d ** n)
        real = _run_raw(fld, n, cols, amps.copy())
        full = _run_raw(fld, n, cols, amps.astype(np.complex128))
        assert real.dtype == np.float64 and full.dtype == np.complex128
        assert np.array_equal(real, full.real) and not full.imag.any()
    assert init_state(fld, n, ["s"] * n).amps.dtype == np.float64


@pytest.mark.parametrize("d", [3, 5])
def test_odd_p_fourier_promotes_the_real_state_to_complex(d):
    # H over odd p is the only gate with complex entries: the run promotes the
    # float64 register once and matches the dense operator of the gate list
    fld = field_for(d)
    rng = np.random.default_rng(70 + d)
    start = init_state(fld, 3, ["s", "0", "0"])
    for _ in range(4):
        gates = [random_gate(fld, 3, rng) for _ in range(8)] + [Gate("H", (2,)), Gate("C", (2, 3), 1)]
        state = run_gates(start, gates)
        assert start.amps.dtype == np.float64 and state.amps.dtype == np.complex128
        want = sequence_matrix(fld, 3, gates[::-1]) @ start.amps
        assert np.max(np.abs(state.amps - want)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_shift_fixes_uniform_superposition(d):
    fld = field_for(d)
    st = init_state(fld, 1, ["s"])
    for a in range(fld.d):
        assert np.allclose(run_gates(st, [Gate("A", (1,), a)]).amps, st.amps)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cnot_on_superposition_factorizes(d):
    # C_mn(a_k)|s, a_j> equals A_n(a_j) D_n(a_k) applied to the Bell state
    fld = field_for(d)
    bell = run_gates(init_state(fld, 2, ["s", "0"]), [Gate("C", (1, 2), 1)])
    for aj in range(fld.d):
        prepared = init_state(fld, 2, ["s", "0"])
        if aj:
            prepared = run_gates(prepared, [Gate("A", (2,), aj)])
        for ak in range(1, fld.d):
            lhs = run_gates(prepared, [Gate("C", (1, 2), ak)])
            rhs = run_gates(bell, [Gate("D", (2,), ak), Gate("A", (2,), aj)])
            assert np.max(np.abs(lhs.amps - rhs.amps)) < 1e-12


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        fld = field_for(d)
        circ = random_cadw_circuit(fld, 4, 2, 25, rng)
        st = circ.simulate()
        gates = [Gate("H", (1,)), Gate("V", (2,)), Gate("H", (3,))]
        st = run_gates(st, gates)
        assert abs(st.norm() - 1) < 1e-10


def test_gate_lists_are_validated_once(monkeypatch):
    calls = []
    real = simulator.check_gates
    monkeypatch.setattr(simulator, "check_gates", lambda fld, n, cols: calls.append(len(cols)) or real(fld, n, cols))
    fld = field_for(3)
    gates = [Gate("C", (1, 2), 1), Gate("H", (2,)), Gate("A", (1,), 2), Gate("W", (1, 2)), Gate("V", (1,))]
    run_gates(init_state(fld, 2, ["s", "0"]), gates)
    sequence_source_map(fld, 2, [g for g in gates if g.kind != "H"])
    sequence_matrix(fld, 2, gates)
    assert calls == [5, 4, 5]
    with pytest.raises(ValueError, match="parameter 3 out of range"):
        run_gates(init_state(fld, 2, ["s", "0"]), gates + [Gate("C", (2, 1), 3)])


@pytest.mark.parametrize("d", [2, 3, 4, 9])
def test_gate_lists_and_their_columns_give_equal_results(d):
    # a Gate list and its GateColumns are one gate list: validate_gates passes columns through
    fld = field_for(d)
    rng = np.random.default_rng(50 + d)
    for n in (1, 2, 3):
        gates = [random_gate(fld, n, rng) for _ in range(12)]
        cols = GateColumns.from_gates(gates)
        assert GateColumns.from_gates(cols) is cols
        assert validate_gates(fld, n, gates) == validate_gates(fld, n, cols) == cols
        state = init_state(fld, n, ["s"] + ["0"] * (n - 1))
        assert np.array_equal(run_gates(state, gates).amps, run_gates(state, cols).amps)
        assert np.array_equal(sequence_matrix(fld, n, gates), sequence_matrix(fld, n, cols))
        permutations = [g for g in gates if g.kind != "H"]
        assert np.array_equal(sequence_source_map(fld, n, permutations),
                              sequence_source_map(fld, n, GateColumns.from_gates(permutations)))


def test_gate_errors_name_the_first_bad_gate():
    fld = field_for(5)
    cases = [
        ([Gate("C", (1, 2), 1), Gate("A", (4,), 1), Gate("D", (1,), 0)], 1, "wire 4 out of range 1..3"),
        ([Gate("C", (3, 4), 1)], 0, "wire 4 out of range 1..3"),
        ([Gate("W", (2, 2))], 0, "wires of a two-qudit gate must be distinct: (2, 2)"),
        ([Gate("A", (1,), 4), Gate("D", (1,), 0)], 1, "D(0) is not unitary"),
        ([Gate("C", (1, 2), 5)], 0, "parameter 5 out of range for order-5 field"),
        ([Gate("A", (1,), 1), Gate("X", (1,))], 1, "unknown gate kind 'X'"),
        ([Gate("C", (1,), 1)], 0, "C gate takes 2 wire(s), got (1,)"),
        ([Gate("D", (1,))], 0, "D gate requires a field parameter"),
        ([Gate("H", (1,), 1)], 0, "H gate takes no parameter"),
        ([Gate("C", (1, 2), 10 ** 30)], 0, f"parameter {10 ** 30} out of range for order-5 field"),
    ]
    # hand-built columns: a kind code past GATE_KINDS, or a negative one that would index from the end
    for code in (-2, 6):
        cases.append((GateColumns(np.array([KIND_C, code]), np.array([1, 2]), np.array([2, 0]), np.array([1, 0])), 1,
                      f"unknown gate kind code {code}"))
    for gates, index, message in cases:
        with pytest.raises(GateError) as err:
            validate_gates(fld, 3, gates)
        assert (err.value.index, str(err.value)) == (index, message)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_gates(init_state(fld, 3, ["s", "0", "0"]), gates)


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, -2 ** 63 - 1])
def test_columns_keep_values_past_int64_exact(big):
    # beside small ints, a value past int64 turns its column into exact Python ints, not floats
    cols = GateColumns.from_gates([Gate("C", (1, 2), 1), Gate("C", (1, 2), big), Gate("A", (2,), 2)])
    assert cols.param.dtype == object and cols.param.tolist() == [1, big, 2]
    assert cols.wire1.dtype == np.int64 and cols.wire1.tolist() == [1, 1, 2]
    assert int_column([1, 2]).dtype == np.int64 and int_column([]).dtype == np.int64
    with pytest.raises(GateError) as err:
        validate_gates(field_for(3), 2, cols)
    assert (err.value.index, str(err.value)) == (1, f"parameter {big} out of range for order-3 field")
    # the wire checks come before the parameter's, whatever the width of the values
    wired = GateColumns.from_gates([Gate("C", (1, 2), 1), Gate("C", (big, 2), big)])
    with pytest.raises(GateError) as err:
        validate_gates(field_for(3), 2, wired)
    assert (err.value.index, str(err.value)) == (1, f"wire {big} out of range 1..2")


def test_fourier_matrix_is_built_once_per_field_and_read_only():
    fld = field_for(7)
    h = fourier_matrix(fld)
    assert fourier_matrix(field_for(7)) is h
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0, 0] = 0
    with pytest.raises(ResourceGuardError):  # the guard is not cached away
        fourier_matrix(field_for(8192))


def test_gate_validation_errors():
    fld = field_for(3)
    st = init_state(fld, 2, ["s", "0"])
    with pytest.raises(ValueError):
        run_gates(st, [Gate("D", (1,), 0)])
    with pytest.raises(ValueError):
        run_gates(st, [Gate("A", (3,), 1)])
    with pytest.raises(ValueError):
        run_gates(st, [Gate("C", (1, 1), 1)])
    with pytest.raises(ValueError):
        run_gates(st, [Gate("C", (1, 2), 5)])
    with pytest.raises(ValueError):
        validate_gates(fld, 2, [Gate("H", (1,), 1)])


# ---------------------------------------------------------------------------
# Dense operators
# ---------------------------------------------------------------------------

def test_sequence_source_map_matches_matrix_product():
    rng = np.random.default_rng(5)
    fld = field_for(3)
    for _ in range(20):
        ops = []
        for _ in range(4):
            kind = ["A", "D", "C", "W", "V"][rng.integers(5)]
            if kind in ("C", "W"):
                m, t = rng.permutation(2)[:2] + 1
                param = int(rng.integers(3)) if kind == "C" else None
                ops.append(Gate(kind, (int(m), int(t)), param))
            elif kind == "D":
                ops.append(Gate("D", (int(rng.integers(2)) + 1,), int(rng.integers(1, 3))))
            elif kind == "A":
                ops.append(Gate("A", (int(rng.integers(2)) + 1,), int(rng.integers(3))))
            else:
                ops.append(Gate("V", (int(rng.integers(2)) + 1,)))
        via_src = np.eye(9)[sequence_source_map(fld, 2, ops)]
        via_mats = np.eye(9, dtype=complex)
        for g in ops:
            via_mats = via_mats @ gate_matrix(fld, 2, g)
        assert np.max(np.abs(via_src - via_mats)) < 1e-12


def test_sequence_matrix_with_fourier():
    fld = field_for(2)
    # H on each wire conjugates the CNOT into the opposite-direction CNOT
    ops = [Gate("H", (1,)), Gate("H", (2,)), Gate("C", (1, 2), 1), Gate("H", (1,)), Gate("H", (2,))]
    got = sequence_matrix(fld, 2, ops)
    want = oracle_sequence_matrix(fld, 2, [Gate("C", (2, 1), 1)])
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fourier_squared_is_negation(d):
    fld = field_for(d)
    # H^2 sends |x> to |-x>, which is D(-1)
    h2 = sequence_matrix(fld, 1, [Gate("H", (1,)), Gate("H", (1,))])
    assert np.max(np.abs(h2 - oracle_sequence_matrix(fld, 1, [Gate("D", (1,), fld.neg(1))]))) < 1e-12
    h = sequence_matrix(fld, 1, [Gate("H", (1,))])
    assert np.max(np.abs(h - oracle_sequence_matrix(fld, 1, [Gate("D", (1,), 1)]))) > 0.1


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 9, 16])
def test_sequence_matrix_matches_kronecker_oracle(d):
    rng = np.random.default_rng(d)
    fld = field_for(d)
    for n_wires in (1, 2, 3):
        if d ** n_wires > 729:  # the oracle multiplies d^n x d^n matrices once per gate
            continue
        for _ in range(3):
            ops = [random_gate(fld, n_wires, rng) for _ in range(6)]
            got = sequence_matrix(fld, n_wires, ops)
            assert np.max(np.abs(got - oracle_sequence_matrix(fld, n_wires, ops))) < 1e-12, ops
            g = ops[0]
            assert np.max(np.abs(gate_matrix(fld, n_wires, g) - oracle_gate_matrix(fld, n_wires, g))) < 1e-12, g


def test_sequence_matrix_validates_against_its_wires():
    fld = field_for(3)
    # the kernels run on 2 * n_wires wires; a gate must still fit the n_wires register
    with pytest.raises(ValueError):
        sequence_matrix(fld, 2, [Gate("H", (3,))])
    with pytest.raises(ValueError):
        gate_matrix(fld, 1, Gate("W", (1, 2)))


# ---------------------------------------------------------------------------
# Reduced density matrices
# ---------------------------------------------------------------------------

def test_bell_marginal_is_maximally_mixed():
    for d in (2, 3):
        fld = field_for(d)
        bell = run_gates(init_state(fld, 2, ["s", "0"]), [Gate("C", (1, 2), 1)])
        dm = reduced_density_raw(bell.amps, bell.d, bell.n, [1])
        assert np.max(np.abs(dm - np.eye(d) / d)) < 1e-12
        assert np.allclose(spectrum(dm), [1 / d] * d)
        assert rank(dm) == d


def test_product_state_marginal_is_pure():
    st = init_state(field_for(3), 2, ["0", "0"])
    dm = reduced_density_raw(st.amps, st.d, st.n, [1])
    assert rank(dm) == 1
    assert abs(dm[0, 0] - 1) < 1e-12


def test_square_state_pair_marginal_f4():
    sq = square_state(field_for(4), 2)
    dm = reduced_density_raw(sq.dense(), 4, 4, [1, 2])
    assert np.max(np.abs(dm - np.eye(16) / 16)) < 1e-12


def test_density_matrix_invariants():
    rng = np.random.default_rng(2)
    circ = random_cadw_circuit(field_for(3), 4, 2, 15, rng)
    st = circ.simulate()
    for subset in bipartition_subsets(4):
        dm = reduced_density_raw(st.amps, st.d, st.n, subset)
        assert np.max(np.abs(dm - dm.conj().T)) < 1e-12
        assert abs(np.trace(dm).real - 1) < 1e-10
        assert spectrum(dm).min() > -1e-10


@pytest.mark.parametrize("d, n", [(2, 5), (3, 4), (5, 3)])
def test_real_amplitudes_give_the_real_gram(d, n):
    # the float64 m m^T of real amps is the complex Hermitian Gram m m^dagger of the same amps
    amps = np.random.default_rng(d).standard_normal(d ** n)
    amps /= np.linalg.norm(amps)
    for subset in bipartition_subsets(n):
        real = reduced_density_raw(amps, d, n, subset)
        gram = reduced_density_raw(amps.astype(np.complex128), d, n, subset)
        assert real.dtype == np.float64 and gram.dtype == np.complex128
        assert np.max(np.abs(real - gram)) <= 1e-15


def test_reduced_density_subset_errors():
    st = init_state(field_for(2), 2, ["s", "0"])
    with pytest.raises(ValueError):
        reduced_density_raw(st.amps, st.d, st.n, [])
    with pytest.raises(ValueError):
        reduced_density_raw(st.amps, st.d, st.n, [1, 2])


def test_rank_of_maximally_mixed():
    for d in (2, 3, 4):
        dm = np.eye(d) / d
        assert rank(dm) == d


def test_bipartition_subsets_count():
    assert bipartition_subsets(4) == [
        (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)
    ]
    assert len(bipartition_subsets(5)) == 5 + 10


# ---------------------------------------------------------------------------
# Phase comparison and dumps
# ---------------------------------------------------------------------------

def test_states_equal_up_to_phase():
    st = init_state(field_for(3), 2, ["s", "0"])
    shifted = st.copy()
    shifted.amps = shifted.amps * np.exp(1j * 0.7)
    assert states_equal_up_to_phase(st, shifted)
    bell = run_gates(st, [Gate("C", (1, 2), 1)])
    assert states_equal_up_to_phase(st, bell) is False


def test_dump_round_trip():
    sq = square_state(field_for(4), 2)
    text = dump_state(sq, header=["construction test"])
    amps, d, n = parse_state_dump(text)
    assert (d, n) == (4, 4)
    assert np.array_equal(amps, sq.dense())
    parsed = parse_state(text)
    assert (parsed.d, parsed.n) == (4, 4)
    assert np.array_equal(parsed.digits, sq.digits) and np.array_equal(parsed.amps, sq.amps)
    first_data = next(l for l in text.splitlines() if not l.startswith("#"))
    assert first_data.split()[0] == "0000"


def test_dump_round_trip_large_dimension():
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(12 ** 2) + 1j * rng.standard_normal(12 ** 2)
    amps /= np.linalg.norm(amps)
    text = dump_state(support_of(amps, 12, 2), header=[])
    parsed, d, n = parse_state_dump(text)
    assert (d, n) == (12, 2)
    assert np.max(np.abs(parsed - amps)) < 1e-15


@pytest.mark.parametrize("d, n", [(37, 1), (49, 1), (64, 1), (36, 2), (37, 2)])
def test_dump_round_trip_either_side_of_d36(d, n):
    # d <= 36 dumps one character per digit, d > 36 comma-separated numbers: one bare number for one qudit
    rng = np.random.default_rng(100 * d + n)
    amps = rng.standard_normal(d ** n) + 1j * rng.standard_normal(d ** n)
    amps[rng.random(d ** n) < 0.3] = 0
    state = support_of(amps, d, n)
    parsed = parse_state(dump_state(state))
    assert (parsed.d, parsed.n) == (d, n)
    assert np.array_equal(parsed.digits, state.digits) and np.array_equal(parsed.amps, state.amps)


def test_state_size_guard_bounds_the_exponent_first():
    for d, n in ((2, 24), (3, 15), (4096, 2), (2 ** 24, 1)):
        simulator.check_state_size(d, n)
    for d, n in ((2, 25), (3, 16), (4097, 2), (2 ** 24 + 1, 1), (3, 10 ** 12), (10 ** 100, 10 ** 12)):
        with pytest.raises(ResourceGuardError, match=re.escape(f"state of {d}**{n} amplitudes exceeds the 2^24 guard")):
            simulator.check_state_size(d, n)


def test_dump_parse_errors():
    with pytest.raises(ValueError):
        parse_state_dump("0 1.0 0.0\n")  # missing header
    with pytest.raises(ValueError):
        parse_state_dump("# quditgraph-state d=2 qudits=1\n0 1.0\n")


@pytest.mark.parametrize("d, n, ket", [
    (3, 2, "03"), (3, 2, "0"), (3, 2, "000"), (3, 2, "0?"), (3, 2, "0A"),  # digit d, too few or many digits, no digit
    (49, 2, "1,x"), (49, 2, "1,"), (49, 2, "1,2,3"), (49, 2, "1,49"),  # comma form: letter, empty, three digits, digit d
    (49, 2, "1_0,+2"), (49, 2, "10,-2"), (49, 2, "1,\u0663"),  # int() reads these, but they are not ASCII decimal
    (37, 1, "1_0"), (37, 1, "x"), (37, 1, "37"),  # one qudit past d = 36 takes the comma form without a comma
])
def test_parse_state_names_the_line_of_a_bad_ket(d, n, ket):
    first = ",".join(["0"] * n) if d > 36 else "0" * n
    text = f"# quditgraph-state d={d} qudits={n}\n\n{first} 1.0 0.0\n{ket} 0.5 0.0\n"
    with pytest.raises(ValueError) as info:
        parse_state(text)
    assert str(info.value) == f"line 4: bad basis index {ket!r} for d={d}, n={n}"


def test_parse_state_reads_ascii_decimal_comma_digits():
    state = parse_state("# quditgraph-state d=49 qudits=2\n10,2 1.0 0.0\n048,00 0.0 1.0\n")
    assert state.digits.T.tolist() == [[10, 2], [48, 0]]
    assert parse_state("# quditgraph-state d=37 qudits=1\n36 1.0 0.0\n").digits.tolist() == [[36]]


def test_sorted_dump_order():
    st = init_state(field_for(2), 3, ["s", "s", "s"])
    lines = [l for l in dump_state(support_of(st.amps, 2, 3)).splitlines() if not l.startswith("#")]
    assert [l.split()[0] for l in lines] == sorted(l.split()[0] for l in lines)


def test_dump_matches_the_per_amplitude_loop():
    rng = np.random.default_rng(5)
    t = 1e-14
    edge = [t, np.nextafter(t, 1), np.nextafter(t, 0), -t, -np.nextafter(t, 1), 2 * t, t / 2]
    # magnitudes of complex amplitudes just above and below the threshold
    edge += [complex(t, np.nextafter(0, 1)), complex(t / np.sqrt(2), t / np.sqrt(2)),
             complex(0.6 * t, 0.8 * t * (1 + 1e-15)), complex(-0.6 * t, -0.8 * t * (1 - 1e-15))]
    # negative zeros in either part
    edge += [complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.25), complex(-1e-3, -0.0)]
    cases = []
    amps = np.zeros(3 ** 4, dtype=np.complex128)
    amps[rng.permutation(3 ** 4)[: len(edge)]] = edge
    cases.append((amps, 3, 4, ["edge cases"]))
    for d in (36, 37):  # the last single-character digit set, then comma-separated digits
        amps = rng.standard_normal(d ** 2) + 1j * rng.standard_normal(d ** 2)
        amps[rng.random(d ** 2) < 0.5] = 0
        cases.append((amps, d, 2, []))
    cases.append((rng.standard_normal(2 ** 11) + 0j, 2, 11, []))
    zero = np.zeros(2 ** 5, dtype=np.complex128)
    cases.append((zero, 2, 5, ["all zero", "second header"]))
    cases.append((square_state(field_for(4), 2).dense(), 4, 4, []))
    for amps, d, n, header in cases:
        assert dump_state(support_of(amps, d, n, 1e-14), header) == dump_state_loop(amps, d, n, header)
    assert dump_state(support_of(zero, 2, 5)) == "# quditgraph-state d=2 qudits=5\n"


# ---------------------------------------------------------------------------
# The bulk dump reader against the per-line loop
# ---------------------------------------------------------------------------

def assert_parses_like_the_loop(text: str) -> None:
    """parse_state returns parse_state_loop's kets, in order, with bitwise equal amplitudes, or raises its error."""
    try:
        want = parse_state_loop(text)
    except (ValueError, ResourceGuardError) as exc:
        with pytest.raises(Exception) as info:
            parse_state(text)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc)), text[:300]
        return
    got = parse_state(text)
    assert (got.d, got.n) == (want.d, want.n), text[:300]
    assert got.digits.dtype == want.digits.dtype and np.array_equal(got.digits, want.digits), text[:300]
    assert got.amps.dtype == want.amps.dtype and got.amps.tobytes() == want.amps.tobytes(), text[:300]


ODD_TOKENS = [
    "+1", "-0", "+0.5", "1_0", "0.5_0", "0_1", "\u0663", "\uff11", "0.\u0660", "\u0663,1",  # signs, '_', other scripts
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400", "1" * 400, "9" * 5000,  # not finite, huge
    "0x1p3", "1,0", "1,", ",", ",,", "0,0,0,0", "00,1,2,3", "1,,1,1", "#", "# quditgraph-state", "A", "z", "\x00",
]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000", "\u2007", "\u200b", "\x00", "\x0b", "\x85"]
BREAKS = ["\r", "\r\n", "\f", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x00", "\n\r", "\r\r\n"]
DIGITS36 = "0123456789abcdefghijklmnopqrstuvwxyz"


def _pick(rng: np.random.Generator, options: list):
    return options[int(rng.integers(len(options)))]


def _comma_ket(rng: np.random.Generator, ket: str) -> str:
    """ket in the comma form, now and then with an odd piece: leading zeros, a digit short or over, a sign, a huge number."""
    pieces = [str(DIGITS36.find(c)) if c in DIGITS36 else c for c in ket]
    kind = int(rng.integers(7))
    j = int(rng.integers(len(pieces)))
    if kind == 1:
        pieces[j] = "00" + pieces[j]
    elif kind == 2:
        del pieces[j]
    elif kind == 3:
        pieces.insert(j, _pick(rng, ["", "0", "36", "+1", "1_0", "1" * 5000]))
    elif kind == 4:
        pieces[j] = _pick(rng, ["36", "64", "-1", "+1", "\u0661", "", "1" * 5000])
    return ",".join(pieces)


def mutate_dump(text: str, rng: np.random.Generator) -> str:
    """text with one seeded change: an odd token, an odd break, or a line deleted, repeated or added."""
    lines = text.split("\n")
    i = int(rng.integers(len(lines)))
    kind = int(rng.integers(9))
    if kind == 0:  # a token replaced
        parts = lines[i].split(" ")
        parts[int(rng.integers(len(parts)))] = _pick(rng, ODD_TOKENS)
        lines[i] = " ".join(parts)
    elif kind == 1:  # a character or token put inside a line
        at = int(rng.integers(len(lines[i]) + 1))
        lines[i] = lines[i][:at] + _pick(rng, ODD_TOKENS + SPACES + ["_", "+", "-", ",", "."]) + lines[i][at:]
    elif kind == 2:  # one line break changed
        return "".join(line + (_pick(rng, BREAKS) if k == i else "\n") for k, line in enumerate(lines))[:-1]
    elif kind == 3:  # every line break changed
        return _pick(rng, BREAKS).join(lines)
    elif kind == 4:
        del lines[i]
    elif kind == 5:
        lines.insert(int(rng.integers(len(lines) + 1)), lines[i])
    elif kind == 6:  # a second header
        lines.insert(int(rng.integers(len(lines) + 1)), _pick(rng, [lines[0], "# quditgraph-state d=2 qudits=1"]))
    elif kind == 7:  # the separators of a line changed
        lines[i] = _pick(rng, SPACES[:-4]) + lines[i].replace(" ", _pick(rng, SPACES[:7])) + _pick(rng, SPACES[:7])
    elif lines[i] and not lines[i].startswith("#"):  # the ket of a line in the comma form
        ket, _, rest = lines[i].partition(" ")
        lines[i] = _comma_ket(rng, ket) + " " + rest
    return "\n".join(lines)


def _mes_dump(d: int) -> str:
    built = build_mes(d)
    return dump_state(built.state, header=[f"construction {built.construction}"])


def _simulate_dump(d: int, n: int, seed: int) -> str:
    """A dump as simulate writes it, of a random circuit with H gates: complex amplitudes past characteristic 2."""
    fld = field_for(d)
    rng = np.random.default_rng(seed)
    gates = [random_gate(fld, n, rng) for _ in range(4 * n)]
    state = run_gates(init_state(fld, n, ["0"] * n), gates)
    kets = np.flatnonzero(np.abs(state.amps) > 1e-14)
    return dump_state(simulator.SupportState(d, n, simulator.ket_digits(kets, d, n), state.amps[kets]))


HAND_WRITTEN = [
    "",
    "\n\n",
    "# quditgraph-state d=2 qudits=1\n",
    "# quditgraph-state d=49 qudits=2\n10,2 1.0 0.0\n048,00 0.0 1.0\n",
    "# quditgraph-state d=37 qudits=1\n36 1.0 0.0\n",
    "# quditgraph-state d=4 qudits=2\n0,3 1.0 0.0\n03 1.0 0.0\n",  # one ket in both forms
    "# quditgraph-state d=4 qudits=2\n0,3 1.0 0.0\n10 -0.0 -0.0\n2,2 0.5 -0.5\n",
    "  # a comment\n\t# quditgraph-state d=3 qudits=2 note=x\n\n# another\n02 1 0\n# mid\n  11\t.5\x1f-.5  \n",
    "#\xa0quditgraph-state d=2 qudits=1\n0 1.0 0.0\n",  # not the header: str.strip keeps the inner NBSP
    "\u3000# quditgraph-state\xa0d=2\u2007qudits=1\n\u20000\xa01.0\u30000.0\n",
    "# quditgraph-statex d=2 qudits=1\n0 1.0 0.0\n",
    "0 1.0 0.0\n# quditgraph-state d=2 qudits=1\n",
    "# quditgraph-state d=2 qudits=1\n# quditgraph-state d=2 qudits=1\n",
    "# quditgraph-state d=2 qudits=1\n0 1.0 0.0 # trailing\n",
    "# quditgraph-state d=2 qudits=2 d=2\n",
    "# quditgraph-state d=1 qudits=1\n",
    "# quditgraph-state d=2 qudits=0\n",
    "# quditgraph-state d=3 qudits=1000000000000\n0 1 0\n",
    "# quditgraph-state d=2 qudits=2\n00 1e400 0\n00 1 0\n",
    "# quditgraph-state d=2 qudits=2\n00 1 0\n00 1e400 0\n",
    "# quditgraph-state d=2 qudits=2\n00 1 0\n01 1 \u0660\n",
    "# quditgraph-state d=50 qudits=2\n" + "1" * 5000 + ",1 1 0\n",
    "# quditgraph-state d=37 qudits=1\n" + "9" * 30 + " 1 0\n",  # past int64
    "# quditgraph-state d=50 qudits=2\n1,1 1 0\n" + "1" * 19 + ",1 1 0\n",
    "# quditgraph-state d=50 qudits=2\n" + "0" * 5000 + "1,1 1 0\n0001,01 1 0\n",
    "# quditgraph-state d=2 qudits=1\r\n0 1 0\r\n1 0 1\r",
    "# quditgraph-state d=2 qudits=1\n0 1.0 0.0\x1c1 0.5 0.0\x1d\x1e\x85\u2028\u2029",
]


DUMPS = {f"mes{d}": functools.partial(_mes_dump, d) for d in (4, 5, 12, 32, 37, 64)}
DUMPS |= {f"simulate GF({d})^{n}": functools.partial(_simulate_dump, d, n, 10 * d + n) for d, n in ((2, 9), (3, 5), (4, 4), (5, 3))}


@pytest.mark.parametrize("source", sorted(DUMPS))
def test_parse_state_matches_the_line_loop_under_mutation(source):
    text = DUMPS[source]()
    assert_parses_like_the_loop(text)
    rng = np.random.default_rng(list(map(ord, source)))
    for _ in range(60):
        mutated = text
        for _ in range(int(rng.integers(1, 4))):
            mutated = mutate_dump(mutated, rng)
        assert_parses_like_the_loop(mutated)


@pytest.mark.parametrize("text", HAND_WRITTEN)
def test_parse_state_matches_the_line_loop_on_hand_written_dumps(text):
    assert_parses_like_the_loop(text)
    rng = np.random.default_rng(len(text))
    for _ in range(20):
        assert_parses_like_the_loop(mutate_dump(text, rng))


def test_dump_reads_back_across_line_break_styles():
    text = _mes_dump(32)
    state = parse_state(text)
    for brk in ("\r\n", "\r", "\u2028", "\x85", "\f"):
        copy = parse_state(text.replace("\n", brk))
        assert np.array_equal(copy.digits, state.digits) and copy.amps.tobytes() == state.amps.tobytes()


def test_bad_lines_past_a_thousand_are_named():
    lines = _mes_dump(32).split("\n")
    assert len(lines) > 1000
    cases = [
        (1000, lines[1000].replace(lines[1000].split()[0], "0w00", 1), "line 1001: bad basis index '0w00' for d=32, n=4"),
        (1010, lines[3], f"line 1011: ket {lines[3].split()[0]!r} listed twice"),
        (1020, lines[1020].split()[0] + " nan 0.0", "line 1021: amplitude (nan+0j) is not finite"),
    ]
    for at, line, message in cases:
        text = "\n".join(lines[:at] + [line] + lines[at + 1 :])
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_state(text)
        assert_parses_like_the_loop(text)


def test_line_bytes_splits_lines_as_str_splitlines():
    rng = np.random.default_rng(2)
    alphabet = ["a", "#", " ", "\t", "\x1f", "\xa0", "\u3000", "\xe9", "\U0001f600", *BREAKS]
    for _ in range(300):
        text = "".join(_pick(rng, alphabet) for _ in range(int(rng.integers(12))))
        for translation in (simulator._UNICODE_BREAKS, simulator._STATE_TRANSLATION):
            data, codes, breaks = simulator.line_bytes(text, translation)
            ends = [-1, *np.flatnonzero(breaks).tolist(), len(data)]
            lines = [data[a + 1 : b].decode("utf-8", "surrogatepass") for a, b in zip(ends, ends[1:])]
            lines = [line.rstrip("\r") for line in lines[:-1]] + lines[-1:]  # the \r of a \r\n, before its break
            want = text.translate(translation).splitlines()
            assert lines[: len(want)] == want and "".join(lines[len(want) :]) == "", repr(text)


def test_state_translation_maps_every_unicode_space():
    spaces = {c for c in range(128, 0x110000) if chr(c).isspace()}
    breaks = {c for c in spaces if len(f"a{chr(c)}b".splitlines()) == 2}
    assert {c for c, to in simulator._STATE_TRANSLATION.items() if to == "\x0b"} == breaks
    assert {c for c, to in simulator._STATE_TRANSLATION.items() if to == "\x1f"} == spaces - breaks



# ---------------------------------------------------------------------------
# Exact states over characteristic 2
# ---------------------------------------------------------------------------

def form_kets(fld, n: int, init, gates) -> tuple[np.ndarray, np.ndarray, int]:
    """(ket indices, amplitudes, r) of quadratic_form_support, its amplitudes checked to be +-2^(-r/2) exactly."""
    support = simulator.quadratic_form_support(fld, n, init, validate_gates(fld, n, gates))
    r = support.amps.size.bit_length() - 1
    assert support.amps.size == 1 << r and support.digits.shape == (n, 1 << r)
    assert np.all(np.abs(support.amps) == 2.0 ** (-r / 2))
    return simulator.ket_index(support.digits, fld.d), support.amps, r


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_quadratic_form_matches_dense_simulation(d):
    # every gate kind, random registers: the same kets as the dense 1e-14 support, ascending, and the same signs
    fld = field_for(d)
    rng = np.random.default_rng(700 + d)
    widest = {2: 9, 4: 5, 8: 3, 16: 3}[d]
    wide = {2: [16, 17, 18, 19, 20], 4: [8, 8, 9, 9], 8: [], 16: []}[d]  # registers as wide as the benchmark's dense oracles
    for n in chain((int(rng.integers(1, widest + 1)) for _ in range(300)), wide):
        init = ["s" if rng.random() < 0.5 else "0" for _ in range(n)]
        gates = [random_gate(fld, n, rng) for _ in range(int(rng.integers(0, 4 * n + 3)))]
        dense = run_gates(init_state(fld, n, init), gates).amps
        kets, amps, _ = form_kets(fld, n, init, gates)
        assert np.array_equal(kets, np.flatnonzero(np.abs(dense) > 1e-14))
        assert np.array_equal(np.sign(amps), np.sign(dense[kets]))
        assert np.max(np.abs(dense[kets] - amps)) < 1e-12


@pytest.mark.parametrize("field, n, init, gates, want", [
    # no column has the bit: H|0> and, with b_t = 1, H|1>
    ("2 1", 1, "0", [Gate("H", (1,))], {0: 1, 1: 1}),
    ("2 1", 1, "0", [Gate("A", (1,), 1), Gate("H", (1,))], {0: 1, 1: -1}),
    ("2 1", 2, "00", [Gate("H", (2,))], {0: 1, 1: 1}),
    # delta: the one column is e_t, so H H|0> = |0> and H H|1> = |1>, with r back at 0
    ("2 1", 1, "0", [Gate("H", (1,)), Gate("H", (1,))], {0: 1}),
    ("2 1", 1, "0", [Gate("A", (1,), 1), Gate("H", (1,)), Gate("H", (1,))], {1: 1}),
    # delta with b_t = lin_j = 1, a global sign: X H X H|0> = -|1>
    ("2 1", 1, "0", [Gate("A", (1,), 1), Gate("H", (1,)), Gate("A", (1,), 1), Gate("H", (1,))], {1: -1}),
    # delta after column operations: H on both halves of a Bell pair reaches |00> + |11> again
    ("2 1", 2, "s0", [Gate("C", (1, 2), 1), Gate("H", (1,)), Gate("H", (2,))], {0: 1, 3: 1}),
    # delta whose row Q_j meets b_t = 1: the fixed case below, shifted on wire 1, then H on wire 1 again
    ("2 1", 2, "s0", [Gate("C", (1, 2), 1), Gate("H", (1,)), Gate("A", (1,), 1), Gate("H", (1,))], {0: 1, 3: -1}),
    # fixed: H on one half of a Bell pair, one minus sign on |11>
    ("2 1", 2, "s0", [Gate("C", (1, 2), 1), Gate("H", (1,))], {0: 1, 1: 1, 2: 1, 3: -1}),
    # GF(4): one H acts on both bits of the wire, |2> -> (|0> + |1> - |2> - |3>)/2
    ("2 2", 1, "0", [Gate("A", (1,), 2), Gate("H", (1,))], {0: 1, 1: 1, 2: -1, 3: -1}),
])
def test_quadratic_form_hand_cases(field, n, init, gates, want):
    fld = Field.from_descriptor(field)
    kets, amps, r = form_kets(fld, n, list(init), gates)
    assert dict(zip(kets.tolist(), np.sign(amps).astype(int).tolist())) == want
    assert 1 << r == len(want)
    dense = run_gates(init_state(fld, n, list(init)), gates).amps
    assert np.max(np.abs(dense[kets] - amps)) < 1e-12


@pytest.mark.parametrize("d, n, k", [(2, 64, 3), (4, 64, 2), (2, 1024, 3)])
def test_quadratic_form_past_sixty_four_index_bits(d, n, k):
    # adjacent H w; H w pairs are the identity over characteristic 2, so the kets are those the symbolic
    # tracking lists for the circuit without them, all of amplitude d^(-k/2)
    fld = field_for(d)
    rng = np.random.default_rng(n + d)
    circuit = random_cadw_circuit(fld, n, k, 4 * n, rng)
    gates = list(circuit.gates)
    for at in sorted(rng.choice(len(gates) + 1, size=40, replace=False).tolist(), reverse=True):
        wire = gates[at - 1].wires[-1] if at and rng.random() < 0.5 else int(rng.integers(n)) + 1
        gates[at:at] = [Gate("H", (wire,)), Gate("H", (wire,))]
    support = simulator.quadratic_form_support(fld, n, circuit.init, validate_gates(fld, n, gates))
    want = SymbolicState.from_circuit(circuit).support()
    assert np.array_equal(support.digits, want.digits)
    assert np.array_equal(support.amps, want.amps) and want.amps.size == d ** k


@pytest.mark.parametrize("d", [2, 3, 4, 7, 16, 256, 65521, 2 ** 16, 10 ** 30])
def test_ket_order_sorts_like_a_lexsort_of_the_digits(d):
    # one int64 key per 62 // (d - 1).bit_length() wires; wider registers take
    # several keys, and a digit past int64 takes a key of its own
    rng = np.random.default_rng(d % 1000)
    for n in (1, 2, 5, 20, 31, 32, 63, 70):
        digits = rng.integers(min(d, 2 ** 62), size=(n, 257))
        digits[:, ::5] = digits[:, 3:4]  # repeated kets keep their order
        digits[: n // 2, 1::7] = 0
        assert np.array_equal(simulator.ket_order(d, digits), np.lexsort(digits[::-1])), n
    assert simulator.ket_order(d, np.zeros((0, 3), dtype=np.int64)).tolist() == [0, 1, 2]


@pytest.mark.parametrize("d", [3, 5, 9])
def test_symbolic_support_of_many_wires_is_ascending(d):
    # 70 wires need three keys of 31 or 15 wires
    fld = field_for(d)
    rng = np.random.default_rng(d)
    sym = SymbolicState.from_pattern(fld, ("s",) * 3 + ("0",) * 67)
    sym.apply([Gate("C", (int(rng.integers(1, 4)), int(t)), int(rng.integers(1, d))) for t in rng.integers(4, 71, size=200)])
    digits = sym.support().digits
    assert digits.shape == (70, d ** 3)
    assert [tuple(ket) for ket in digits.T.tolist()] == sorted(tuple(ket) for ket in digits.T.tolist())
    assert len({tuple(ket) for ket in digits.T.tolist()}) == d ** 3


def test_quadratic_form_refuses_before_listing_kets():
    fld = field_for(2)
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match=f"{2 ** 39} kets of 40 wires exceed the 1024 MiB ket guard"):
        simulator.quadratic_form_support(fld, 40, ["s"] * 40, validate_gates(fld, 40, [Gate("H", (3,))]))
    with pytest.raises(ResourceGuardError, match=r"2\^100 or more kets of 100 wires"):
        simulator.quadratic_form_support(fld, 100, ["s"] * 100, validate_gates(fld, 100, []))
    with pytest.raises(ResourceGuardError, match=r"a form of 32769 index bits exceeds the 2\^15-bit guard"):
        simulator.quadratic_form_support(fld, 2 ** 15 + 1, ["0"] * (2 ** 15 + 1), validate_gates(fld, 1, []))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="characteristic 2"):
        simulator.quadratic_form_support(field_for(3), 1, ["0"], validate_gates(field_for(3), 1, []))


def test_ket_guard_counts_the_wires():
    # 256 + 24 n bytes per ket against 2^30: the 25-wire GF(2) output of 2^24 kets is refused, 2^20 of 20 wires pass
    simulator.check_ket_count(2 ** 20, 20)
    for kets, n in ((2 ** 24, 25), (2 ** 22, 10), (3, 2 ** 30)):
        with pytest.raises(ResourceGuardError, match=f"{kets} kets of {n} wires exceed the 1024 MiB ket guard"):
            simulator.check_ket_count(kets, n)


def test_line_bytes_translates_as_str_translate():
    # the byte-level replacement gives the bytes of text.translate(...).encode(...) on any text
    rng = np.random.default_rng(3)
    pool = [*map(chr, simulator._STATE_TRANSLATION), "a", " ", "\n", "#", "\xe9", "⊗", "\U0001f600", "\ud800",
            "€", "\u0085"]
    for _ in range(500):
        text = "".join(_pick(rng, pool) if rng.random() < 0.7 else chr(int(rng.integers(0x80, 0x3000)))
                       for _ in range(int(rng.integers(30))))
        for translation in (simulator._UNICODE_BREAKS, simulator._STATE_TRANSLATION):
            data, codes, _ = simulator.line_bytes(text, translation)
            assert data == text.translate(translation).encode("utf-8", "surrogatepass"), repr(text)
            assert codes.tobytes() == data
