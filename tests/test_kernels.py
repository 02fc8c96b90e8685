"""Gate kernels against oracles that share no code with them.

The permutation gates are checked against a ket-by-ket oracle: the expected
action of each gate is computed on Python ints with the scalar Field
methods, one basis ket at a time, with qudit 1 as the most significant
digit.  It checks both `run_gates` and `gate_source_map` (from which
`gate_matrix` is derived).  Registers of up to EXHAUSTIVE_SIZE kets are
checked on every ket with every label; larger ones (GF(257) at N = 2) on
seeded samples of kets and labels.  At N = 5 and 6 some C gates have digits
before, between and after their two wires.  The Fourier gate is checked
against its Kronecker operator I (x) h (x) I, and every gate against an
allocation bound: no kernel allocates a temporary the size of the state.

Over fields of characteristic 2 a run of permutation gates is one
XOR-affine map of the index bits, the image map that the exact quadratic
form reads (_xor_image_map).  That map, applied as a scatter, is checked
bit for bit against a ping-pong loop of single-gate kernels, on registers
of more than 64 index bits against the ket-by-ket oracle, and the source
maps of long runs against the composition of the ket-by-ket oracle maps.
The gate loop _run_raw holds one buffer beside the state over a whole run.
"""

import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from quditgraph import Gate, GateColumns, StateVector, fourier_matrix, run_gates, sequence_matrix
from quditgraph.kernels import FOURIER_KRON_MAX
from quditgraph.simulator import _apply_gate_raw, _run_raw, _xor_image_map, gate_source_map, sequence_source_map

from util import field_for, random_gate

CASES = ([(d, 3) for d in (2, 3, 4, 5, 7, 8, 9)] + [(d, 4) for d in (2, 3, 4)]
         + [(2, 6), (3, 5), (4, 5)] + [(257, 2)])
EXHAUSTIVE_SIZE = 1024
# (d, N): each register has a wire on either side of the d * stride <= FOURIER_KRON_MAX split
FOURIER_CASES = [(2, 7), (3, 5), (4, 4), (5, 3), (8, 3), (9, 3)]


def every_permutation_gate(n, labels):
    wires = range(1, n + 1)
    for m in wires:
        yield from (Gate("A", (m,), a) for a in labels)
        yield from (Gate("D", (m,), a) for a in labels if a)
        yield Gate("V", (m,))
    for m, t in permutations(wires, 2):
        yield from (Gate("C", (m, t), a) for a in labels)
        yield Gate("W", (m, t))


def digits_of(index, d, n):
    out = []
    for _ in range(n):
        index, x = divmod(index, d)
        out.append(x)
    return out[::-1]


def index_of(digits, d):
    index = 0
    for x in digits:
        index = index * d + x
    return index


def image(fld, gate, digits):
    """Digits of the ket that `gate` sends the ket `digits` to."""
    x = list(digits)
    m = gate.wires[0] - 1
    if gate.kind == "A":
        x[m] = fld.add(x[m], gate.param)
    elif gate.kind == "D":
        x[m] = fld.mul(gate.param, x[m])
    elif gate.kind == "V":
        x[m] = fld.reverse(x[m])
    elif gate.kind == "C":
        t = gate.wires[1] - 1
        x[t] = fld.add(x[t], fld.mul(gate.param, x[m]))
    else:  # W
        t = gate.wires[1] - 1
        x[m], x[t] = x[t], x[m]
    return x


def oracle_source_map(fld, n, gate):
    """src with new_amps = amps[src]: the ket x lands on image(x)."""
    src = np.full(fld.d ** n, -1, dtype=np.int64)
    for i in range(fld.d ** n):
        src[index_of(image(fld, gate, digits_of(i, fld.d, n)), fld.d)] = i
    assert (src >= 0).all(), f"{gate} is not a permutation in the oracle"
    return src


@pytest.mark.parametrize("d,n", CASES)
def test_permutation_gates_match_ket_oracle(d, n):
    fld = field_for(d)
    rng = np.random.default_rng(100 * d + n)
    amps = rng.standard_normal(d ** n) + 1j * rng.standard_normal(d ** n)
    state = StateVector(fld, n, amps)
    if d ** n <= EXHAUSTIVE_SIZE:
        labels, kets = range(d), np.arange(d ** n)
    else:
        labels = sorted({0, 1, d - 1, *rng.integers(2, d - 1, size=5).tolist()})
        kets = rng.choice(d ** n, size=300, replace=False)
    checked = 0
    for gate in every_permutation_gate(n, labels):
        images = [index_of(image(fld, gate, digits_of(int(i), d, n)), d) for i in kets]
        # over every ket this also proves the oracle a permutation, since src[j] is one ket
        assert np.array_equal(gate_source_map(fld, n, gate)[images], kets), gate
        assert np.array_equal(run_gates(state, [gate]).amps[images], amps[kets]), gate
        checked += 1
    assert checked == n * (2 * len(labels) + 1 - (0 in labels)) + n * (n - 1) * (len(labels) + 1)


def test_sequence_source_map_composes_oracle_maps():
    fld = field_for(4)
    ops = [Gate("C", (3, 1), 2), Gate("A", (2,), 3), Gate("W", (1, 3)), Gate("D", (1,), 2), Gate("V", (2,))]
    want = np.arange(fld.d ** 3)
    for gate in ops:  # ops[-1] acts first, so its map is the outermost gather
        want = oracle_source_map(fld, 3, gate)[want]
    assert np.array_equal(sequence_source_map(fld, 3, ops), want)


def test_source_maps_reject_the_fourier_gate():
    fld = field_for(3)
    with pytest.raises(ValueError, match="not a basis permutation"):
        gate_source_map(fld, 2, Gate("H", (1,)))
    with pytest.raises(ValueError, match="not a basis permutation"):
        sequence_source_map(fld, 2, [Gate("C", (1, 2), 1), Gate("H", (2,))])


def spanning_gates(fld, n):
    """C and W gates between wires 1 and n, the pair with every other wire's digits between them."""
    return [Gate("C", (1, n), fld.d - 1), Gate("C", (n, 1), 1), Gate("W", (1, n)), Gate("W", (n, 1))]


@pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (2, 13), (4, 2), (4, 6), (8, 3), (8, 4), (16, 2), (16, 3)])
def test_xor_source_map_matches_the_per_gate_loop(d, n):
    # _xor_image_map's (c, cols), which _QuadraticForm.permute reads, as a scatter:
    # amps[y] goes to c ^ the XOR of cols at the set bits of y
    fld = field_for(d)
    rng = np.random.default_rng(300 + 10 * d + n)
    y = np.arange(d ** n)
    for length in (0, 1, 5, 25):
        gates = [random_gate(fld, n, rng, "ADCVW") for _ in range(length)]
        if n > 1:
            gates[1:1] = spanning_gates(fld, n)
        c, cols = _xor_image_map(fld, n, GateColumns.from_gates(gates))
        idx = np.full(d ** n, c)
        for j, col in enumerate(cols):
            idx ^= (y >> j & 1) * col
        amps = rng.standard_normal(d ** n) + 1j * rng.standard_normal(d ** n)
        cur, buf = amps.copy(), np.empty_like(amps)
        for gate in gates:
            _apply_gate_raw(fld, n, gate, cur, buf)
            cur, buf = buf, cur
        assert np.array_equal(cur[idx], amps), gates


@pytest.mark.parametrize("d,n", [(2, 80), (16, 20)])
def test_xor_source_map_of_a_wide_register_matches_the_ket_oracle(d, n):
    # past 64 index bits _xor_image_map's Python-int columns must stay exact: x goes to the oracle's image, ket by ket
    fld = field_for(d)
    rng = np.random.default_rng(500 + d)
    for length in (1, 5, 40):
        gates = spanning_gates(fld, n) + [random_gate(fld, n, rng, "ADCVW") for _ in range(length)]
        c, cols = _xor_image_map(fld, n, GateColumns.from_gates(gates))
        assert len(cols) == fld.n * n and max(cols).bit_length() > 64
        for _ in range(20):
            x = rng.integers(d, size=n).tolist()
            y = x
            for gate in gates:
                y = image(fld, gate, y)
            dst, index = c, index_of(x, d)
            for j, col in enumerate(cols):
                if index >> j & 1:
                    dst ^= col
            assert dst == index_of(y, d), (gates, x)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (2, 6), (4, 3), (8, 2), (8, 3), (16, 2)])
def test_gf2m_source_maps_compose_oracle_maps(d, n):
    fld = field_for(d)
    rng = np.random.default_rng(400 + 10 * d + n)
    for length in (1, 2, 7, 25):
        ops = [random_gate(fld, n, rng, "ADCVW") for _ in range(length)]
        if n > 1 and length > 2:
            ops[1:1] = spanning_gates(fld, n)
        want = np.arange(fld.d ** n)
        for gate in ops:  # ops[-1] acts first, so its map is the outermost gather
            want = oracle_source_map(fld, n, gate)[want]
        assert np.array_equal(sequence_source_map(fld, n, ops), want), ops


@pytest.mark.parametrize("d,n", FOURIER_CASES)
def test_fourier_gate_matches_kronecker_operator(d, n):
    fld = field_for(d)
    h = fourier_matrix(fld)
    rows = [d * d ** (n - m) for m in range(1, n + 1)]
    assert min(rows) <= FOURIER_KRON_MAX < max(rows)
    rng = np.random.default_rng(10 * d + n)
    amps = rng.standard_normal(d ** n) + 1j * rng.standard_normal(d ** n)
    state = StateVector(fld, n, amps)
    for m in range(1, n + 1):
        op = np.kron(np.kron(np.eye(d ** (m - 1)), h), np.eye(d ** (n - m)))
        gate = Gate("H", (m,))
        assert np.max(np.abs(run_gates(state, [gate]).amps - op @ amps)) < 1e-12, gate
        assert np.max(np.abs(sequence_matrix(fld, n, [gate]) - op)) < 1e-12, gate


def test_gate_kernels_allocate_no_state_sized_temporary():
    d, n = 2, 16
    fld = field_for(d)
    amps = np.random.default_rng(0).standard_normal(d ** n) + 0j
    out = np.empty_like(amps)
    slack = amps.nbytes // 16
    gates = [Gate(kind, (m,), param) for m in range(1, n + 1)
             for kind, param in (("A", 1), ("D", 1), ("V", None), ("H", None))]
    gates += [Gate(kind, pair, param) for pair in permutations(range(1, n + 1), 2)
              for kind, param in (("C", 1), ("W", None))]
    tracemalloc.start()
    try:
        for gate in gates:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _apply_gate_raw(fld, n, gate, amps, out)
            peak = tracemalloc.get_traced_memory()[1] - before
            # the C gate's index has d^2 * mid intp entries, mid the digits between its wires
            index = 8 * d * d * d ** (abs(gate.wires[0] - gate.wires[-1]) - 1) if gate.kind == "C" else 0
            assert peak < index + slack, (gate, peak, index + slack)
    finally:
        tracemalloc.stop()


def test_gate_loop_holds_one_buffer_beside_the_state():
    # _run_raw ping-pongs between the state and one buffer, so a long run peaks at
    # that buffer plus the largest single-gate temporary, not a state per gate
    d, n = 2, 16
    fld = field_for(d)
    rng = np.random.default_rng(1)
    amps = rng.standard_normal(d ** n) + 0j
    slack = amps.nbytes // 16
    gates = spanning_gates(fld, n) + [random_gate(fld, n, rng) for _ in range(46)]
    cols = GateColumns.from_gates(gates)
    index = 8 * d * d * d ** (n - 2)  # a spanning C gate's index
    start = amps.copy()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = _run_raw(fld, n, cols, start)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < amps.nbytes + index + slack, (peak, amps.nbytes + index + slack)
    cur, buf = amps.copy(), np.empty_like(amps)
    for gate in gates:
        _apply_gate_raw(fld, n, gate, cur, buf)
        cur, buf = buf, cur
    assert np.array_equal(out, cur)
