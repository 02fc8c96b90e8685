"""State-vector simulation of N-qudit registers over GF(p^n): dense, and exact over characteristic 2.

Basis states are indexed by base-d digit strings with qudit 1 as the most
significant digit, so a ket like |0 2 1 1> at d = 4 is amplitude index
0*64 + 2*16 + 1*4 + 1.

Gates
-----
    A m a   add-shift        |x> -> |x + a>          (field addition)
    D m a   multiply         |x> -> |a x>, a != 0    (field product)
    C m n a generalized CNOT |x>_m |y>_n -> |x>_m |y + a x>_n
    H m     Fourier gate     matrix omega^(x.y)/sqrt(d), omega = exp(2 pi i/p),
            with x.y the coefficientwise dot product mod p
    V m     coefficient reversal permutation
    W m n   swap

All gates except H permute basis states.  _run_raw applies every gate,
over every field, as one kernel pass that writes straight into the second
buffer of a ping-pong pair.  A gather map is this gate loop run on an index
array, a dense operator the loop run on an identity; every dense builder
counts its entries with check_state_size.  Amplitudes are float64 where
they are real by construction: under every gate but H, and under H over
characteristic 2, where omega = -1 exactly.  _run_raw promotes a real state
to complex128 once, before its first pass, when the field is odd and the
run holds an H; parsed dumps and other complex input stay complex128.

Over characteristic 2 a circuit's state is an affine-quadratic form on the
index bits (_QuadraticForm), which quadratic_form_support tracks exactly
at the cost of the gates and the output kets; the CLI's simulate reads it
for every GF(2^m) circuit.  There the dense lane serves the oracles only
(Circuit.simulate, run_gates, the gather maps and operators); over an odd
p it is the simulation.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .gf import Field, _ascii_int  # _ascii_int re-exported for rewrite

STATE_SIZE_LIMIT = 2 ** 24
DEFAULT_TOL = 1e-10
SIGNATURE_DIGITS = 8  # spectra are rounded to this many decimals before they are sorted or hashed

# kind -> (wire count, takes a field parameter): the one record of each gate's arity
GATE_ARITY = {"A": (1, True), "D": (1, True), "C": (2, True), "H": (1, False), "V": (1, False), "W": (2, False)}

_DIGITS36 = "0123456789abcdefghijklmnopqrstuvwxyz"


class ResourceGuardError(Exception):
    """Raised when a requested computation exceeds the desk-scale guards."""


@dataclass(frozen=True)
class Gate:
    """One circuit gate: kind in A/D/C/H/V/W, 1-based wires, field parameter."""

    kind: str
    wires: tuple[int, ...]
    param: Optional[int] = None

    @property
    def control(self) -> int:
        return self.wires[0]

    @property
    def target(self) -> int:
        return self.wires[-1]

    def __repr__(self) -> str:
        body = " ".join(str(w) for w in self.wires)
        if self.param is not None:
            body += f" a={self.param}"
        return f"<{self.kind} {body}>"


GATE_KINDS = tuple(GATE_ARITY)  # kind code -> kind: a gate's code is the index of its kind here
KIND_TWO_WIRES = np.array([GATE_ARITY[kind][0] == 2 for kind in GATE_KINDS])  # by kind code
KIND_HAS_PARAM = np.array([GATE_ARITY[kind][1] for kind in GATE_KINDS])  # by kind code
KIND_A, KIND_D, KIND_C, KIND_H, KIND_V, KIND_W = (GATE_KINDS.index(kind) for kind in "ADCHVW")


def int_column(values: Sequence[int]) -> np.ndarray:
    """values as an int64 array, or as an object array of Python ints if one lies past int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class GateError(ValueError):
    """A gate that validation rejects; index is its position in the checked list."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class GateColumns:
    """A gate list as four integer arrays, one entry per gate.

    kind is the code of each gate (its index in GATE_KINDS), wire1 and wire2
    its 1-based wires (wire2 is 0 for a one-wire gate) and param its field
    parameter (0 where the kind takes none).  The arrays are int64, or object
    arrays of Python ints while they hold a value past int64; validation
    rejects any such value, so a validated list is int64.
    """

    kind: np.ndarray
    wire1: np.ndarray
    wire2: np.ndarray
    param: np.ndarray

    @classmethod
    def from_gates(cls, gates: "GateList") -> "GateColumns":
        """Columns of Gate objects; GateColumns pass through unchanged.

        Raises GateError for the first gate with an unknown kind, the wrong
        number of wires, or a missing or unexpected parameter; the values
        themselves are left to check_gates.
        """
        if isinstance(gates, GateColumns):
            return gates
        kinds, wire1, wire2, params = [], [], [], []
        for i, gate in enumerate(gates):
            if gate.kind not in GATE_ARITY:
                raise GateError(f"unknown gate kind {gate.kind!r}", i)
            want, has_param = GATE_ARITY[gate.kind]
            if len(gate.wires) != want:
                raise GateError(f"{gate.kind} gate takes {want} wire(s), got {gate.wires}", i)
            if has_param and gate.param is None:
                raise GateError(f"{gate.kind} gate requires a field parameter", i)
            if not has_param and gate.param is not None:
                raise GateError(f"{gate.kind} gate takes no parameter", i)
            kinds.append(GATE_KINDS.index(gate.kind))
            wire1.append(gate.wires[0])
            wire2.append(gate.wires[1] if want == 2 else 0)
            params.append(gate.param or 0)
        return cls(np.array(kinds, dtype=np.int64), int_column(wire1), int_column(wire2), int_column(params))

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return self.kind, self.wire1, self.wire2, self.param

    def __len__(self) -> int:
        return len(self.kind)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GateColumns):
            return NotImplemented
        return all(map(np.array_equal, self.arrays, other.arrays))

    def __getitem__(self, index) -> "GateColumns":
        """The gates at a slice, mask or index array, as columns."""
        return GateColumns(*(a[index] for a in self.arrays))

    def gates(self) -> tuple[Gate, ...]:
        """Gate objects holding Python ints."""
        two, has = KIND_TWO_WIRES.tolist(), KIND_HAS_PARAM.tolist()
        return tuple(
            Gate(GATE_KINDS[k], (a, b) if two[k] else (a,), p if has[k] else None)
            for k, a, b, p in zip(*(column.tolist() for column in self.arrays))
        )


def check_gates(field: Field, n_qudits: int, cols: GateColumns) -> None:
    """Raise GateError for the first gate whose wires or parameter are out of range.

    Each check is one array comparison over the whole list, in a fixed
    order: first wire, second wire, distinct wires, parameter range, D(0).
    The first gate failing any of them is reported, with the message of the
    first check it fails.  Before them, a kind code outside GATE_KINDS, which
    only columns built by hand can hold, is reported on its own.
    """
    kind, w1, w2, param = cols.arrays
    unknown = (kind < 0) | (kind >= len(GATE_KINDS))
    if unknown.any():
        i = int(unknown.argmax())
        raise GateError(f"unknown gate kind code {kind[i]}", i)
    two, has = KIND_TWO_WIRES[kind], KIND_HAS_PARAM[kind]
    checks = (
        ((w1 < 1) | (w1 > n_qudits), lambda i: f"wire {w1[i]} out of range 1..{n_qudits}"),
        (two & ((w2 < 1) | (w2 > n_qudits)), lambda i: f"wire {w2[i]} out of range 1..{n_qudits}"),
        (two & (w1 == w2), lambda i: f"wires of a two-qudit gate must be distinct: ({w1[i]}, {w2[i]})"),
        (has & ((param < 0) | (param >= field.d)), lambda i: f"parameter {param[i]} out of range for order-{field.d} field"),
        ((kind == KIND_D) & (param == 0), lambda i: "D(0) is not unitary"),
    )
    bad = np.zeros(len(kind), dtype=bool)
    for mask, _ in checks:
        bad |= mask
    if bad.any():
        i = int(bad.argmax())
        raise GateError(next(message(i) for mask, message in checks if mask[i]), i)


GateList = Union[GateColumns, Iterable[Gate]]  # a time-ordered gate list, as a caller may give it


def validate_gates(field: Field, n_qudits: int, gates: GateList) -> GateColumns:
    """The one check of a gate list: GateColumns.from_gates, then check_gates.  Returns the checked int64 columns."""
    cols = GateColumns.from_gates(gates)
    check_gates(field, n_qudits, cols)
    return GateColumns(*(np.asarray(a, dtype=np.int64) for a in cols.arrays))


# ---------------------------------------------------------------------------
# State vectors
# ---------------------------------------------------------------------------

class StateVector:
    """Dense amplitudes of an N-qudit register over a field: float64 stays float64, the rest becomes complex128."""

    def __init__(self, field: Field, n_qudits: int, amps: np.ndarray):
        self.field = field
        self.n = int(n_qudits)
        amps = np.asarray(amps)
        self.amps = amps.astype(np.float64 if amps.dtype == np.float64 else np.complex128, copy=False).reshape(-1)
        if self.amps.size != field.d ** self.n:
            raise ValueError("amplitude array size does not match d**n")

    @property
    def d(self) -> int:
        return self.field.d

    def copy(self) -> "StateVector":
        return StateVector(self.field, self.n, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __repr__(self) -> str:
        return f"StateVector(d={self.d}, n={self.n})"


@dataclass
class SupportState:
    """A pure state by its K kets: digits (n, K) in the ket_digits layout, amps (K,); other kets are 0."""

    d: int
    n: int
    digits: np.ndarray
    amps: np.ndarray

    def dense(self) -> np.ndarray:
        """The d^n amplitude vector in the dtype of amps, under the state-size guard; a repeated ket's amplitudes add up."""
        check_state_size(self.d, self.n)
        amps = np.zeros(self.d ** self.n, dtype=self.amps.dtype)
        np.add.at(amps, ket_index(self.digits, self.d), self.amps)
        return amps


def check_state_size(d: int, n: int) -> None:
    if n >= 25 or d ** n > STATE_SIZE_LIMIT:  # d >= 2: n >= 25 is over 2^24, and d^n is not computed
        raise ResourceGuardError(f"state of {d}**{n} amplitudes exceeds the 2^24 guard")


# The memory a state's kets may take on their way to a dump.  dump_state
# peaks at 211 + 11.6 n bytes per ket of n wires (tracemalloc, n = 4..256);
# the (n, K) int64 digits and one temporary of their size add 16 n, so
# check_ket_count counts 256 + 24 n bytes per ket.
KET_BYTES_LIMIT = 2 ** 30


def check_ket_count(kets: int, n: int) -> None:
    """Raise ResourceGuardError before the digits of this many kets of n wires are built, if they pass KET_BYTES_LIMIT."""
    if kets * (256 + 24 * n) > KET_BYTES_LIMIT:
        count = kets if kets.bit_length() <= 64 else f"2^{kets.bit_length() - 1} or more"
        raise ResourceGuardError(f"{count} kets of {n} wires exceed the {KET_BYTES_LIMIT >> 20} MiB ket guard")


def init_state(field: Field, n_qudits: int, pattern: Sequence[str]) -> StateVector:
    """Tensor product of |s> (uniform superposition) and |0> factors, as float64 amplitudes.

    pattern entries are 's' for the uniform superposition and '0' for the
    computational zero state.
    """
    if len(pattern) != n_qudits:
        raise ValueError(f"pattern length {len(pattern)} != qudit count {n_qudits}")
    d = field.d
    check_state_size(d, n_qudits)
    for token in pattern:
        if token not in ("s", "0"):
            raise ValueError(f"pattern entries must be 's' or '0', got {token!r}")
    amps = np.zeros(d ** n_qudits)
    # the support is every ket with digit 0 on the '0' wires, each of amplitude
    # d^(-k/2) for k 's' wires: the value SymbolicState.support() gives it
    support = tuple(slice(None) if token == "s" else 0 for token in pattern)
    amps.reshape([d] * n_qudits)[support] = d ** (-pattern.count("s") / 2)
    return StateVector(field, n_qudits, amps)


def _stride(d: int, n: int, wire: int) -> int:
    return d ** (n - wire)


def _apply_gate_raw(field: Field, n: int, gate: Gate, amps: np.ndarray, out: np.ndarray) -> None:
    d = field.d
    kind = gate.kind
    if kind == "H":
        kernels.fourier(amps, out, d, _stride(d, n, gate.wires[0]), fourier_matrix(field))
        return
    if kind == "C":
        sc = _stride(d, n, gate.control)
        st = _stride(d, n, gate.target)
        kernels.cnot(amps, out, d, sc, st, _source_digits(field, kind, gate.param))
        return
    if kind == "W":
        sa = _stride(d, n, gate.wires[0])
        sb = _stride(d, n, gate.wires[1])
        kernels.swap(amps, out, d, sa, sb)
        return
    s = _stride(d, n, gate.wires[0])
    if kind == "V":
        src_digit = field.reverse_table
    else:
        src_digit = _source_digits(field, kind, gate.param)
    kernels.axis_perm(amps, out, d, s, src_digit)


def _source_digits(field: Field, kind: str, param: int) -> np.ndarray:
    """Source digit of each output digit: a row for A and D, a d x d table [c, t] for C.

    A table is built per gate: it costs no more than the kernel pass that
    reads it, which touches at least as many amplitudes as it has entries.
    """
    digits = np.arange(field.d)
    if kind == "A":
        return field.sub_arr(digits, param)
    if kind == "D":
        return field.mul_arr(field.inv(param), digits)
    return field.sub_arr(digits, field.mul_arr(param, digits)[:, None])  # C


def run_gates(state: StateVector, gates: GateList) -> StateVector:
    """Apply a time-ordered gate list (first gate acts first), validated once."""
    cols = validate_gates(state.field, state.n, gates)
    amps = _run_raw(state.field, state.n, cols, state.amps.copy())
    return StateVector(state.field, state.n, amps)


def _run_raw(field: Field, n: int, cols: GateColumns, cur: np.ndarray) -> np.ndarray:
    """Apply validated gates in order, ping-ponging between cur, which may be overwritten, and one more buffer.

    Each gate is one _apply_gate_raw pass.  A float64 cur becomes complex128
    first only when the field is odd and the run holds an H.
    """
    if cur.dtype == np.float64 and field.p != 2 and (cols.kind == KIND_H).any():
        cur = cur.astype(np.complex128)
    buf = np.empty_like(cur)
    for gate in cols.gates():
        _apply_gate_raw(field, n, gate, cur, buf)
        cur, buf = buf, cur
    return cur


def _xor_image_map(field: Field, n: int, run: GateColumns) -> tuple[int, list[int]]:
    """(c, cols) of a run of validated A/D/C/V/W gates over GF(2^m), applied in order.

    The run sends each ket x to image(x) = L x + c over Z_2 on the m * n
    index bits, where bit i of wire w sits at position m * (n - w) + i.  L
    starts as the identity and takes one column update per gate of the run
    read backwards, image <- image o g, with M_a = Field.mul_matrix(a)
    acting on coefficient columns as its transpose:
        A(a) on w        c ^= L[:, w] bits(a)
        D(a) on w        L[:, w] <- L[:, w] M_a^T
        C(a) from w to t L[:, w] ^= L[:, t] M_a^T
        V on w           the columns of wire w reversed
        W on w and t     the column blocks of w and t exchanged
    cols are the columns of L as Python ints, bit r holding row r, and c is
    one too, so a map of any number of index bits is exact; each update is a
    few XORs of them.
    """
    m = field.n
    cols = [1 << i for i in range(m * n)]
    c = 0
    kind, wire1, wire2, param = run[::-1].arrays
    mats = field.mul_matrix(param).tolist()  # one call for the whole run: M_a for D and C, unused for the rest

    def xor(picked: Iterable[int]) -> int:
        return functools.reduce(operator.xor, picked, 0)

    for k, w1, w2, a, mat in zip(kind.tolist(), wire1.tolist(), wire2.tolist(), param.tolist(), mats):
        w, t = m * (n - w1), m * (n - w2)  # the first columns of the wires' blocks
        if k == KIND_A:  # over characteristic 2, bit i of a is its coefficient c_i
            c ^= xor(compress(cols[w : w + m], [a >> i & 1 for i in range(m)]))
        elif k == KIND_D:  # column i of the block M^T is the XOR of the columns k with M[i][k] = 1
            cols[w : w + m] = [xor(compress(cols[w : w + m], row)) for row in mat]
        elif k == KIND_C:
            cols[w : w + m] = [col ^ xor(compress(cols[t : t + m], row)) for col, row in zip(cols[w : w + m], mat)]
        elif k == KIND_V:
            cols[w : w + m] = cols[w : w + m][::-1]
        else:  # W
            cols[w : w + m], cols[t : t + m] = cols[t : t + m], cols[w : w + m]
    return c, cols


# ---------------------------------------------------------------------------
# Exact states over characteristic 2
# ---------------------------------------------------------------------------

FORM_BITS_LIMIT = 2 ** 15  # index bits m * n of a form: its M, Q and image maps hold a few (m n)^2 bits


def _bits(x: int) -> Iterable[int]:
    """The positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _QuadraticForm:
    """A state over GF(2^m) as an affine-quadratic form on its m * n index bits:

        psi(x) = 2^(-r/2) sum over u in Z_2^r of [x = b ^ M u] (-1)^(c0 + lin.u + sum_{i<j} Q_ij u_i u_j)

    with bit i of wire w at m * (n - w) + i, as in _xor_image_map.  M has
    full column rank, so the 2^r kets are distinct and each carries
    +-2^(-r/2).  cols are the columns of M as Python ints, quad the rows of
    the symmetric zero-diagonal Q and linear the vector lin, with bit j
    standing for u_j; offset is b and sign is c0.
    """

    def __init__(self, field: Field, n: int, init: Sequence[str]):
        m = field.n
        if m * n > FORM_BITS_LIMIT:
            raise ResourceGuardError(f"a form of {m * n} index bits exceeds the 2^15-bit guard")
        self.field, self.n = field, n
        self.cols = [1 << (m * (n - w) + i) for w, token in enumerate(init, start=1) if token == "s" for i in range(m)]
        self.quad = [0] * len(self.cols)
        self.linear = self.offset = self.sign = 0

    def permute(self, run: GateColumns) -> None:
        """Apply a run of A/D/C/V/W gates: M <- L M and b <- L b ^ c, with x -> L x ^ c the run's _xor_image_map."""
        c, lin = _xor_image_map(self.field, self.n, run)

        def image(x: int) -> int:
            out = 0
            while x:
                low = x & -x
                out ^= lin[low.bit_length() - 1]
                x ^= low
            return out

        self.cols = list(map(image, self.cols))
        self.offset = image(self.offset) ^ c

    def hadamard(self, t: int) -> None:
        """H on index bit t: psi(x) -> 2^(-1/2) sum over z of (-1)^(x_t z) psi(x with bit t set to z).

        Column operations leave column j alone with bit t.  If M_rest e_j
        is in the span of the other columns, u_j is summed out ("delta"):
        column j is reduced to e_t, row t of M becomes Q_j, b_t becomes
        lin_j and r shrinks by 1.  Otherwise ("fixed"), or when no column
        has bit t, x_t becomes a new variable v with q += v (u_j + b_t), or
        q += v b_t, and r grows by 1.
        """
        cols, quad = self.cols, self.quad
        bit = 1 << t
        b_t = self.offset >> t & 1
        self.offset &= ~bit
        hit = [j for j, col in enumerate(cols) if col & bit]
        v = len(cols)
        if hit:
            j = hit[0]
            for k in hit[1:]:
                self._add_column(k, j)
            combo = self._combination(cols[j] ^ bit, j)
            if combo is not None:  # delta: the sum over u_j is 2 [x_t = lin_j + Q_j.u]
                for i in _bits(combo):
                    self._add_column(j, i)
                row, lin_j = quad[j], self.linear >> j & 1
                for i in _bits(row):
                    cols[i] |= bit
                self.offset |= lin_j << t
                self.sign ^= b_t & lin_j
                if b_t:
                    self.linear ^= row
                self._drop(j)
                return
            cols[j] ^= bit
            quad[j] |= 1 << v
            quad.append(1 << j)
        else:
            quad.append(0)
        cols.append(bit)
        self.linear |= b_t << v

    def _add_column(self, k: int, j: int) -> None:
        """Column k += column j, and u_j -> u_j + u_k in q: the state is unchanged."""
        quad = self.quad
        self.cols[k] ^= self.cols[j]
        self.linear ^= ((self.linear >> j ^ quad[j] >> k) & 1) << k  # Q_jk u_j u_k gains Q_jk u_k^2 = Q_jk u_k
        row = quad[j] & ~(1 << k)
        quad[k] ^= row
        for i in _bits(row):
            quad[i] ^= 1 << k

    def _combination(self, target: int, skip: int) -> Optional[int]:
        """The variables other than skip whose columns XOR to target, as a bitmask; None outside their span."""
        basis: dict[int, tuple[int, int]] = {}  # lowest set bit -> (vector, variables), by elimination

        def reduce(vec: int, combo: int) -> tuple[int, int]:
            while vec and (vec & -vec) in basis:
                low, used = basis[vec & -vec]
                vec, combo = vec ^ low, combo ^ used
            return vec, combo

        for i, col in enumerate(self.cols):
            if i != skip:
                vec, combo = reduce(col, 1 << i)
                basis[vec & -vec] = vec, combo  # vec != 0: the columns are independent
        vec, combo = reduce(target, 0)
        return None if vec else combo

    def _drop(self, j: int) -> None:
        """Remove variable j, whose column and terms are gone, and renumber those past it."""
        low = (1 << j) - 1

        def squeeze(x: int) -> int:
            return x >> 1 & ~low | x & low

        del self.cols[j], self.quad[j]
        self.quad[:] = map(squeeze, self.quad)
        self.linear = squeeze(self.linear)

    def support(self) -> SupportState:
        """The 2^r kets, ascending as SymbolicState.support lists them, each of the float64 amplitude +-2.0 ** (-r/2).

        Kets and signs are built by doubling, entry u + 2^j being entry u
        with u_j = 1, under the ket guard; each ket is n per-wire digits.
        """
        m, n, r = self.field.n, self.n, len(self.cols)
        check_ket_count(1 << r, n)
        size = (m * n + 7) // 8
        raw = np.frombuffer(b"".join(x.to_bytes(size, "little") for x in (self.offset, *self.cols)), dtype=np.uint8)
        bits = np.unpackbits(raw.reshape(r + 1, size), axis=1, count=m * n, bitorder="little")
        # row 0 the digits of b, row j + 1 those of column j; wire w's m bits start at m * (n - w)
        digits = (bits.reshape(r + 1, n, m) @ (1 << np.arange(m)))[:, ::-1]
        kets = np.empty((n, 1 << r), dtype=np.int64)
        signs = np.empty(1 << r, dtype=np.uint8)
        kets[:, 0], signs[0] = digits[0], self.sign
        u = np.arange(1 << r)
        for j in range(r):
            s = 1 << j
            np.bitwise_xor(kets[:, :s], digits[j + 1][:, None], out=kets[:, s : 2 * s])
            # q(u + 2^j) - q(u) = lin_j + sum over i < j of Q_ij u_i
            flip = (np.bitwise_count(u[:s] & (self.quad[j] & (s - 1))) & 1) ^ (self.linear >> j & 1)
            np.bitwise_xor(signs[:s], flip, out=signs[s : 2 * s])
        order = ket_order(2 ** m, kets)
        amp = 2.0 ** (-r / 2)
        return SupportState(2 ** m, n, kets[:, order], np.where(signs[order], -amp, amp))


def quadratic_form_support(field: Field, n: int, init: Sequence[str], cols: GateColumns) -> SupportState:
    """The exact kets of validated gates over GF(2^m) run on an s/0 register, from one _QuadraticForm.

    Each run of gates between H gates is one permute, each H one hadamard
    per bit of its wire (over characteristic 2 the Fourier gate is the
    Hadamard on each coefficient bit).  The cost is that of the gates and
    the output kets, not of the 2^(m n) amplitudes.
    """
    if field.p != 2:
        raise ValueError(f"the affine-quadratic form needs characteristic 2, not {field.p}")
    form = _QuadraticForm(field, n, init)
    m, start = field.n, 0
    for h in [*np.flatnonzero(cols.kind == KIND_H).tolist(), len(cols)]:
        if h > start:
            form.permute(cols[start:h])
        if h < len(cols):
            w = int(cols.wire1[h])
            for i in range(m):
                form.hadamard(m * (n - w) + i)
        start = h + 1
    return form.support()


# ---------------------------------------------------------------------------
# Dense operators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def fourier_matrix(field: Field) -> np.ndarray:
    """d x d Fourier gate: entry (x, y) = omega^(x.y)/sqrt(d), omega = exp(2 pi i/p).

    Over characteristic 2 omega = -1 exactly, so the table is the float64
    +-d^(-1/2).  Built once per field and shared, so the array is read-only.
    """
    check_state_size(field.d, 2)  # d^2 entries, as many as a two-qudit state
    powers = np.array([1.0, -1.0]) if field.p == 2 else np.exp(2j * np.pi / field.p) ** np.arange(field.p)
    h = powers[field.digits @ field.digits.T % field.p] / math.sqrt(field.d)
    h.flags.writeable = False
    return h


def gate_source_map(field: Field, n_wires: int, gate: Gate) -> np.ndarray:
    """Gather map src with new_amps = amps[src], for permutation gates only."""
    return sequence_source_map(field, n_wires, (gate,))


def sequence_source_map(field: Field, n_wires: int, ops: GateList) -> np.ndarray:
    """Gather map of an operator product (ops[0] applied last, ops[-1] first).

    Running the gates on the integer state src[i] = i leaves the map itself:
    a permutation gate sends amps to amps[src].  The map has d^n_wires
    entries, so it falls under the state-size guard.
    """
    ops = validate_gates(field, n_wires, ops)
    if (ops.kind == KIND_H).any():
        raise ValueError("the Fourier gate is not a basis permutation")
    check_state_size(field.d, n_wires)
    return _run_raw(field, n_wires, ops[::-1], np.arange(field.d ** n_wires, dtype=np.int64))


def gate_matrix(field: Field, n_wires: int, gate: Gate) -> np.ndarray:
    """Dense unitary of one gate on an n_wires register."""
    return sequence_matrix(field, n_wires, (gate,))


def sequence_matrix(field: Field, n_wires: int, ops: GateList) -> np.ndarray:
    """Dense unitary of an operator product (ops[0] leftmost), d^(2 n_wires) entries under the guard.

    The kernels run on the identity as a 2 * n_wires wire register: its high
    digits are the operator's wires, its low digits the column index.
    """
    ops = validate_gates(field, n_wires, ops)
    check_state_size(field.d, 2 * n_wires)
    dim = field.d ** n_wires
    eye = np.eye(dim, dtype=np.complex128).reshape(-1)
    return _run_raw(field, 2 * n_wires, ops[::-1], eye).reshape(dim, dim)


# ---------------------------------------------------------------------------
# Density matrices and spectra
# ---------------------------------------------------------------------------

def reduced_density_raw(amps: np.ndarray, d: int, n: int, subset: Sequence[int]) -> np.ndarray:
    """Partial trace of a pure n-qudit state onto `subset`: d^|A| x d^|A|, under the state-size guard.

    With amps reshaped to the d^|A| x d^|rest| matrix m, the RDM is the Gram
    matrix m m^dagger.  For real amps (real_if_exact) m.conj() is m itself,
    so the product is the float64 m m^T, which numpy forms as one syrk call;
    complex amps give the complex128 m m^dagger.
    """
    keep = sorted(set(subset))
    if not keep or len(keep) == n:
        raise ValueError("subset must be nonempty and proper")
    if any(not 1 <= q <= n for q in keep):
        raise ValueError(f"subset {subset} out of range 1..{n}")
    check_state_size(d, 2 * len(keep))
    rest = [q for q in range(1, n + 1) if q not in keep]
    axes = [q - 1 for q in keep] + [q - 1 for q in rest]
    m = amps.reshape([d] * n).transpose(axes).reshape(d ** len(keep), d ** len(rest))
    return m @ m.conj().T


def real_if_exact(amps: np.ndarray) -> np.ndarray:
    """amps.real as a contiguous float64 array when every imaginary part is exactly 0, else amps.

    No tolerance: a state with any nonzero imaginary part stays complex.
    Graph states are built float64 and pass through as they are, so the
    test reads only parsed dumps and explicit complex input.
    """
    return np.ascontiguousarray(amps.real) if np.isrealobj(amps) or not np.any(amps.imag) else amps


def spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, descending.

    eigvalsh returns them ascending, so they are reversed, not sorted.  A
    real symmetric rho (the real Gram of reduced_density_raw) takes the real
    eigensolver, whose eigenvalues are those of the same matrix as complex.
    """
    return np.linalg.eigvalsh(rho)[::-1]


# ---------------------------------------------------------------------------
# Bipartition machinery shared by the entanglement and duality checks
# ---------------------------------------------------------------------------

def bipartition_subsets(n: int) -> list[tuple[int, ...]]:
    """Every bipartition of n qudits exactly once, as the smaller side.

    Subsets of size < n/2 all appear; at size exactly n/2 only those
    containing qudit 1, so each split is listed once.  For n = 4 this yields
    the 4 singletons plus 3 pair subsets.
    """
    from itertools import combinations

    out: list[tuple[int, ...]] = []
    for size in range(1, n // 2 + 1):
        for combo in combinations(range(1, n + 1), size):
            if 2 * size == n and combo[0] != 1:
                continue
            out.append(combo)
    return out


def bipartite_spectra(amps: np.ndarray, d: int, n: int) -> list[np.ndarray]:
    """RDM spectra over all bipartitions, sorted into a canonical multiset order.

    The state is tested once for an imaginary part that is exactly zero
    (real_if_exact); if it passes, as every graph state does, each cut's RDM
    and spectrum are computed in real arithmetic.
    """
    amps = real_if_exact(amps)
    specs = [spectrum(reduced_density_raw(amps, d, n, s)) for s in bipartition_subsets(n)]
    specs.sort(key=lambda s: tuple(np.round(s, SIGNATURE_DIGITS)))
    return specs


def signature_key(amps: np.ndarray, d: int, n: int) -> tuple:
    """Hashable local-unitary invariant: the sorted multiset of RDM spectra."""
    return tuple(tuple(np.round(s, SIGNATURE_DIGITS)) for s in bipartite_spectra(amps, d, n))


def signatures_match(amps1: np.ndarray, amps2: np.ndarray, d: int, n: int) -> tuple[bool, float]:
    """Compare the invariant signatures of two states within DEFAULT_TOL; returns (match, max deviation)."""
    sp1 = bipartite_spectra(amps1, d, n)
    sp2 = bipartite_spectra(amps2, d, n)
    dev = max(
        float(np.max(np.abs(a - b))) if a.shape == b.shape else np.inf
        for a, b in zip(sp1, sp2)
    )
    return dev <= DEFAULT_TOL, dev


# ---------------------------------------------------------------------------
# State dump format
# ---------------------------------------------------------------------------

def ket_digits(indices: np.ndarray, d: int, n: int) -> np.ndarray:
    """Base-d digits of basis indices: row q - 1 holds the digit of qudit q."""
    return indices // d ** np.arange(n - 1, -1, -1)[:, None] % d


def ket_order(d: int, digits: np.ndarray) -> np.ndarray:
    """The stable order that sorts kets, given as (n, K) per-wire digits, ascending with wire 1 most significant.

    Each digit takes (d - 1).bit_length() bits, and as many wires as fit in
    62 bits make one int64 key, the first wire highest, so the order is one
    argsort of one key when the digits fit, else one lexsort of the keys.
    """
    bits = (d - 1).bit_length()
    per = max(1, 62 // bits)
    weights = 1 << bits * np.arange(per - 1, -1, -1)
    keys = [weights[per - len(chunk):] @ chunk for chunk in np.split(digits, range(per, len(digits), per))]
    return np.argsort(keys[0], kind="stable") if len(keys) == 1 else np.lexsort(keys[::-1])


def ket_index(digit_columns: Iterable, d: int):
    """Basis index of kets from their digits, one column per qudit, qudit 1 first.

    Inverse of ket_digits; columns may be arrays or plain integers.
    """
    index = 0
    for column in digit_columns:
        index = index * d + column
    return index


# str.splitlines' ASCII line breaks, \n \v \f \r and \x1c-\x1e (\r\n ending one
# line), and str.split's ASCII whitespace, which adds \t, \x1f and the space,
# as inclusive byte ranges
_BREAK_RANGES = ((0x0A, 0x0D), (0x1C, 0x1E))
_SPACE_RANGES = ((0x09, 0x0D), (0x1C, 0x20))
# str.splitlines' line breaks past ASCII, each turned into the one-byte break \v before encoding
_UNICODE_BREAKS = dict.fromkeys((0x85, 0x2028, 0x2029), "\x0b")


def in_ranges(codes: np.ndarray, ranges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Mask of the uint8 codes inside any of the inclusive ranges.

    One wrapping subtraction and comparison per range, several times faster
    than a gather through a 256-entry table with uint8 indices.
    """
    mask = np.zeros(len(codes), dtype=bool)
    for low, high in ranges:
        mask |= codes - np.uint8(low) <= high - low
    return mask


def line_bytes(text: str, translation: dict = _UNICODE_BREAKS) -> tuple[bytes, np.ndarray, np.ndarray]:
    """(data, codes, breaks): the UTF-8 bytes of text, as bytes and as uint8, and the mask of the bytes ending its lines.

    A text that is not ASCII is translated, as text.translate(translation)
    would be; the translation must turn every line break past ASCII into \v
    and keep every other character one character, so the lines of data are
    those of text.splitlines(), in order.  It is applied to the encoded
    bytes, one bytes.replace per code point that the text holds: UTF-8 is
    self-synchronizing, so a character's sequence matches nowhere but at
    that character.  The one line split of the circuit and state formats.
    """
    data = text.encode("utf-8", "surrogatepass")
    if not text.isascii():
        for code, to in translation.items():
            char = chr(code)
            if char in text:
                data = data.replace(char.encode(), to.encode())
    codes = np.frombuffer(data, dtype=np.uint8)
    breaks = in_ranges(codes, _BREAK_RANGES)
    breaks[:-1] &= (codes[:-1] != 13) | (codes[1:] != 10)  # of \r\n, the \n ends the line
    return data, codes, breaks


# str.split's whitespace past ASCII that ends no line, read as the ASCII
# whitespace \x1f: a dump line may separate its tokens with it, but
# "#\xa0quditgraph-state" stays a comment and not the header
_STATE_TRANSLATION = {**_UNICODE_BREAKS, **dict.fromkeys((0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000), "\x1f")}
_UNSPLIT_RANGES = ((0x1C, 0x1F),)  # the part of _SPACE_RANGES that bytes.split does not split at
_SPLIT_SPACES = bytes.maketrans(bytes(range(0x1C, 0x20)), b" " * 4)
_DIGIT_BYTES = bytes(_DIGITS36.find(chr(c)) % 256 for c in range(256))  # inverse of _DIGITS36: 255 for any other byte
_HEADER = b"# quditgraph-state"


def dump_state(state: SupportState, header: Sequence[str] = ()) -> str:
    """Debug dump: the header lines, then one `index_base_d re im` line per ket of state, in its order.

    Written in bulk, with no Python step per ket: the kets at d <= 36 are
    one gather through _DIGITS36 (comma-separated decimal digits past it),
    repr runs once per distinct float64 bit pattern among the real and
    imaginary parts, so -0.0 and 0.0 stay apart, and the lines are one
    join.  The text is that of one f"{ket} {re!r} {im!r}" line per ket,
    written in a quarter of its time when the parts repeat (0.19 against
    0.73 ms for a GF(32) make-mes dump); a state whose every part is
    distinct costs what its repr calls cost.
    """
    d, n = state.d, state.n
    head = "\n".join([f"# quditgraph-state d={d} qudits={n}", *(f"# {line}" for line in header)])
    amps = np.asarray(state.amps)
    size = len(amps)
    bits = np.concatenate([amps.real, amps.imag]).astype(np.float64, copy=False).view(np.uint64)  # real amps: imag 0.0
    order = np.argsort(bits, kind="stable")
    ranked = bits[order]
    new = np.ones(len(ranked), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    slot = np.empty(len(ranked), dtype=np.intp)
    slot[order] = np.cumsum(new) - 1  # the distinct pattern of each part
    reprs = np.array(list(map(repr, ranked[new].view(np.float64).tolist())), dtype=object)
    # each line as strings: a newline, the ket and a space, then re, a space and im
    if d <= 36:  # one character per digit: one gather through _DIGITS36 framed by "\n" and " ", one string per ket
        table = np.frombuffer((_DIGITS36 + "\n ").encode(), dtype=np.uint8).astype(np.uint32)
        frame = np.full(size, 36)
        chars = table[np.vstack([frame, state.digits, frame + 1]).T]
        kets = np.ascontiguousarray(chars).view(f"U{n + 2}")
    else:  # comma-separated decimal digits
        kets = np.full((size, 2 * n + 1), ",", dtype=object)
        kets[:, 0], kets[:, -1] = "\n", " "
        kets[:, 1::2] = np.array(list(map(str, state.digits.T.ravel().tolist())), dtype=object).reshape(size, n)
    cells = np.empty((size, kets.shape[1] + 3), dtype=object)
    cells[:, :-3] = kets
    cells[:, -3] = reprs[slot[:size]]
    cells[:, -2] = " "
    cells[:, -1] = reprs[slot[size:]]
    return head + "".join(cells.ravel().tolist()) + "\n"


def _parse_header(raw: str, lineno: int) -> tuple[int, int]:
    """d and qudits of a '# quditgraph-state' line: key=value parts, no key repeated, other keys ignored.

    A value is an integer in ASCII decimal (_ascii_int); a negative one is
    read, for parse_state to name the bound it misses.
    """
    pairs = [part.split("=") for part in raw.split()[2:]]
    fields = dict(pair for pair in pairs if len(pair) == 2)
    try:
        if len(fields) == len(pairs):  # else a part without exactly one '=', or a repeated key
            return _ascii_int(fields["d"]), _ascii_int(fields["qudits"])
    except (KeyError, ValueError):
        pass
    raise ValueError(f"line {lineno}: dump header needs d=<integer> and qudits=<integer>, got {raw!r}")


def parse_state(text: str) -> SupportState:
    """Inverse of dump_state: the kets in file order, with complex128 amplitudes.

    Lines end where str.splitlines ends them; blank lines and lines whose
    first character past whitespace is '#' are skipped, except the one
    '# quditgraph-state' header, which must come before the first ket line.
    A ket line is three tokens split at str.split's whitespace: the ket, as
    d <= 36 single characters 0-9a-z or, at any d and always past 36, n
    comma-separated ASCII decimal digits, then re and im.  Rejects a header
    without integer d= and qudits= or with a repeated key, d < 2, qudits <
    1, d^n over the guard, a second header, repeats, and amplitudes that
    are not finite or not ASCII numbers float() reads: float() alone also
    takes '_' separators and digits of other scripts.

    The whole dump is checked in bulk (_scan_state), in array operations
    over its bytes and tokens and one float() call per amplitude part:
    about 0.65 us per line, against 3 us for one Python pass per line (the
    1026 lines of a GF(32) make-mes dump, 2-core Xeon).  The grammar and
    the error messages are those of that pass, which still runs, as
    _raise_first_bad_line, on a dump the bulk checks reject, to raise the
    error of its first bad line; it never returns a state.
    """
    state = _scan_state(text)
    if state is None:
        _raise_first_bad_line(text)
    return state


def _scan_state(text: str) -> Optional[SupportState]:
    """parse_state's result, from array operations over the whole dump, or None for a dump the line checks reject.

    Tokens are the runs of bytes outside _SPACE_RANGES, each in the line of
    the next break; a line whose first token starts with '#' is a comment,
    and every other line must hold three tokens, the ket, re and im.
    Single-character kets go through _DIGIT_BYTES, comma kets through one
    split of their join; a repeat is a pair of neighbours after a sort; the
    amplitude parts, free of '_', are read by one float() each, which
    reads bytes as ASCII only.
    """
    data, codes, breaks = line_bytes(text, _STATE_TRANSLATION)
    edges = np.flatnonzero(np.diff(~in_ranges(codes, _SPACE_RANGES), prepend=False, append=False))
    starts, stops = edges[0::2], edges[1::2]
    ends = np.append(np.flatnonzero(breaks), len(codes))
    line = np.searchsorted(ends, starts)  # each token's line, counted from 0
    first = np.ones(len(starts), dtype=bool)
    first[1:] = line[1:] != line[:-1]
    head = np.flatnonzero(first)  # the first token of each line that has one
    note = codes[starts[head]] == ord("#")  # of each line that has a token, whether it is a comment
    headers = [h for h, s in zip(head[note].tolist(), starts[head[note]].tolist()) if data.startswith(_HEADER, s)]
    rows = head[~note]  # the first token, the ket, of each ket line
    if len(headers) != 1 or rows.size and rows[0] < headers[0]:
        return None
    at = headers[0]
    try:
        d, n = _parse_header(data[starts[at] : ends[line[at]]].decode("utf-8", "surrogatepass"), 0)
        if d < 2 or n < 1:
            return None
        check_state_size(d, n)
    except (ValueError, ResourceGuardError):
        return None
    if (np.diff(head, append=len(starts))[~note] != 3).any():
        return None
    spaced = data.translate(_SPLIT_SPACES) if in_ranges(codes, _UNSPLIT_RANGES).any() else data
    tokens = spaced.split()  # the same runs, as bytes objects
    commas = np.bincount(np.searchsorted(starts, np.flatnonzero(codes == ord(",")), "right") - 1, minlength=len(starts))
    comma_form = (commas[rows] > 0) | (d > 36)
    plain = rows[~comma_form]
    if (commas[rows[comma_form]] != n - 1).any() or (stops[plain] - starts[plain] != n).any():
        return None
    digits = np.empty((len(rows), n), dtype=np.int64)
    chars = codes[starts[plain][:, None] + np.arange(n)]
    digits[~comma_form] = np.frombuffer(chars.tobytes().translate(_DIGIT_BYTES), dtype=np.uint8).reshape(chars.shape)
    if comma_form.any():
        picked = np.zeros(len(starts), dtype=bool)
        picked[rows[comma_form]] = True
        pieces = b",".join(compress(tokens, picked.tolist())).split(b",")
        if not b"".join(pieces).isdigit():  # ASCII decimal digits: int() alone also takes signs, '_' and spaces
            return None
        try:
            values = list(map(int, pieces))  # an empty piece raises, as does one past 4300 digits
        except ValueError:
            return None
        if max(values) >= d:
            return None
        digits[comma_form] = np.array(values, dtype=np.int64).reshape(-1, n)
    if (digits >= d).any():
        return None
    ranked = np.sort(digits @ d ** np.arange(n - 1, -1, -1))
    if (ranked[1:] == ranked[:-1]).any():
        return None
    picked = np.zeros(len(starts), dtype=bool)
    picked[rows + 1] = picked[rows + 2] = True
    numbers = list(compress(tokens, picked.tolist()))  # re and im of each ket line, in turn
    if b"_" in data and b"_" in b" ".join(numbers):  # float() takes '_' between digits, and of bytes reads ASCII only
        return None
    try:
        amps = np.fromiter(map(float, numbers), dtype=np.float64, count=len(numbers)).view(np.complex128)
    except ValueError:
        return None
    if not np.isfinite(amps).all():
        return None
    return SupportState(d, n, np.ascontiguousarray(digits.T), amps)


def _parse_digits(text: str, d: int, n: int, lineno: int) -> int:
    # dump_state writes the comma form for any d > 36, one qudit included; its
    # digits are ASCII decimal, so int()'s signs, underscores and other scripts
    # do not pass, and a bad digit becomes -1
    if d > 36 or "," in text:
        vals = [int(v) if v.isascii() and v.isdecimal() else -1 for v in text.split(",")]
    else:
        vals = [_DIGITS36.find(c) for c in text]
    if len(vals) != n or any(not 0 <= v < d for v in vals):
        raise ValueError(f"line {lineno}: bad basis index {text!r} for d={d}, n={n}")
    return ket_index(vals, d)


def _raise_first_bad_line(text: str) -> None:
    """Raise the error of the first line of a dump that _scan_state rejected, checking line by line.

    Each line's checks run in this order: the header (a second one, its
    keys, d, qudits, the size guard), a ket line before any header, the
    token count, the ket's digits, a repeat, ASCII amplitudes float()
    reads, and finite ones; a dump without a header is named last.
    """
    d = n = None
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# quditgraph-state"):
                if d is not None:
                    raise ValueError(f"line {lineno}: second '# quditgraph-state' header")
                d, n = _parse_header(raw, lineno)
                if d < 2:
                    raise ValueError(f"line {lineno}: dimension d={d} must be at least 2")
                if n < 1:
                    raise ValueError(f"line {lineno}: qudit count qudits={n} must be at least 1")
                check_state_size(d, n)
            continue
        if d is None:
            raise ValueError("state dump is missing its '# quditgraph-state d=.. qudits=..' header")
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'index re im', got {raw!r}")
        index = _parse_digits(parts[0], d, n, lineno)
        if index in seen:
            raise ValueError(f"line {lineno}: ket {parts[0]!r} listed twice")
        seen.add(index)
        re_im = parts[1] + parts[2]
        try:
            if not re_im.isascii() or "_" in re_im:
                raise ValueError
            amp = complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise ValueError(f"line {lineno}: amplitude needs re and im as ASCII numbers, got {raw!r}") from None
        if not cmath.isfinite(amp):
            raise ValueError(f"line {lineno}: amplitude {amp!r} is not finite")
    if d is None:
        raise ValueError("state dump is missing its '# quditgraph-state d=.. qudits=..' header")
    raise RuntimeError("the bulk dump scan rejected a dump that passes the line checks")


def parse_state_dump(text: str) -> tuple[np.ndarray, int, int]:
    """parse_state as dense amplitudes; returns (amps, d, n)."""
    state = parse_state(text)
    return state.dense(), state.d, state.n
