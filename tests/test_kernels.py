"""Gate kernels against oracles that share no code with them.

The permutation gates are checked against a ket-by-ket oracle: the expected
action of each gate is computed on Python ints with the scalar Field
methods, one basis ket at a time, with qudit 1 as the most significant
digit.  It checks both `apply_gate` and `gate_source_map` (from which
`gate_matrix` is derived).  Registers of up to EXHAUSTIVE_SIZE kets are
checked on every ket with every label; larger ones (GF(257) at N = 2) on
seeded samples of kets and labels.  At N = 5 and 6 some C gates have digits
before, between and after their two wires.  The Fourier gate is checked
against its Kronecker operator I (x) h (x) I, and every gate against an
allocation bound: no kernel allocates a temporary the size of the state.
"""

import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from quditgraph import Gate, StateVector, apply_gate, fourier_matrix, sequence_matrix
from quditgraph.kernels import FOURIER_KRON_MAX
from quditgraph.simulator import _apply_gate_raw, gate_source_map, sequence_source_map

from util import field_for

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
        assert np.array_equal(apply_gate(state, gate).amps[images], amps[kets]), gate
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
        assert np.max(np.abs(apply_gate(state, gate).amps - op @ amps)) < 1e-12, gate
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
