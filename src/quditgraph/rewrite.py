"""Symbolic circuit algebra: affine tracking, rewrite rules, canonical form.

A circuit of A/D/C/W gates acting on a register initialized to a mix of
uniform-superposition wires and zero wires produces a uniform superposition
over an affine row space.  The SymbolicState tracks that space exactly as a
k x N coefficient matrix over the field plus an offset vector, where k is
the number of superposition wires, and support() lists its d^k kets.

Canonicalization reduces any C-only circuit to a directed bipartite graph:
source vertices are the wires carrying the superposition, sink vertices the
rest, and each edge carries a nonzero field label.  The reduction picks the
lexicographically earliest set of k linearly independent wire columns as the
sources, which makes the output deterministic and idempotent.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .gf import Field
from .simulator import (
    GATE_ARITY,
    GATE_KINDS,
    Gate,
    GateColumns,
    GateError,
    GateList,
    KIND_A,
    KIND_C,
    KIND_D,
    KIND_HAS_PARAM,
    KIND_TWO_WIRES,
    KIND_W,
    StateVector,
    SupportState,
    _SPACE_RANGES,
    _ascii_int,
    _run_raw,
    check_gates,
    check_ket_count,
    check_state_size,
    in_ranges,
    init_state,
    int_column,
    ket_order,
    line_bytes,
    validate_gates,
)


class CircuitParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

class Circuit:
    """A circuit over a field: its wire count, s/0 init pattern and gates as GateColumns.

    gates may be given as GateColumns or as Gate objects.  The init pattern
    and then every gate (validate_gates) are checked once, on construction:
    a bad init entry raises ValueError, a bad gate GateError, whose index
    names it.  The gates property builds the Gate tuple when it is first
    read.
    """

    def __init__(self, field: Field, n_qudits: int, init: Sequence[str], gates: GateList):
        self.field = field
        self.n_qudits = n_qudits
        self.init = tuple(init)
        if len(self.init) != n_qudits:
            raise ValueError("init pattern length must equal the qudit count")
        for token in self.init:
            if token not in ("s", "0"):
                raise ValueError(f"init entries must be 's' or '0', got {token!r}")
        self.columns = validate_gates(field, n_qudits, gates)

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        return self.columns.gates()

    @property
    def k(self) -> int:
        return sum(1 for t in self.init if t == "s")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.field == other.field and self.n_qudits == other.n_qudits and self.init == other.init
                and self.columns == other.columns)

    def __repr__(self) -> str:
        return f"Circuit(field={self.field!r}, n_qudits={self.n_qudits}, init={self.init}, gates={len(self.columns)})"

    def simulate(self) -> StateVector:
        amps = init_state(self.field, self.n_qudits, self.init).amps
        return StateVector(self.field, self.n_qudits, _run_raw(self.field, self.n_qudits, self.columns, amps))


# ---------------------------------------------------------------------------
# Field linear algebra (whole-stack array ops)
# ---------------------------------------------------------------------------

def _eliminate(fld: Field, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of a checked int64 (batch, rows, cols) stack, in place.

    Returns m, its rows reduced but not yet in echelon order, and the
    (batch, cols) pivot mask.  Each column step works on every matrix at once
    with field array ops: the first nonzero entry among the rows holding no
    pivot yet becomes the pivot, and the column is cleared in every other
    row; a matrix with no such entry is left unchanged.
    """
    batch, rows, cols = m.shape
    pivots = np.zeros((batch, cols), dtype=bool)
    if m.size == 0:
        return m, pivots
    lanes = np.arange(batch)
    free = np.ones((batch, rows), dtype=bool)  # rows not yet holding a pivot
    for c in range(cols):
        col = m[:, :, c]
        cand = (col != 0) & free
        has = cand.any(axis=1)
        if not has.any():
            continue
        p = cand.argmax(axis=1)
        # Free rows are zero left of column c, so only columns c.. change.
        row = m[lanes, p, c:]
        prow = fld.mul_arr(fld.inv_arr(row[:, 0])[:, None], row)
        # Subtract f * prow from every row: f is the entry in column c, and
        # pivot - 1 on the pivot row itself, which turns that row into prow.
        f = col * has[:, None]
        f[lanes, p] = fld.sub_arr(row[:, 0], 1) * has
        m[:, :, c:] = fld.sub_arr(m[:, :, c:], fld.mul_arr(f[:, :, None], prow[:, None, :]))
        free[lanes, p] &= ~has
        pivots[:, c] = has
        if not free.any():
            break
    return m, pivots


def rank_exponents(fld: Field, blocks: np.ndarray, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """RDM rank exponents of standard-form graph states from their label blocks.

    blocks is a (batch, k, N - k) stack: the state is uniform over the row
    space of [I_k | B], with sources S = wires 1..k and sinks O = wires
    k+1..N.  On each side A of a cut its reduced spectrum is flat of rank
    d^e, e = rank B[S - A, O & A] + rank B[S & A, O - A] (the rank of
    [I_k | B] on the columns of A is |S & A| + rank B[S - A, O & A]).
    Returns e as a (batch, len(subsets)) array, one column per subset of
    1-based wires.

    The subsets become one boolean cut-by-wire mask; the row and column
    masks of all 2 * len(subsets) sub-blocks are its source and sink halves
    and their negations, and the entry indices of every sub-block of one
    shape come from one np.nonzero of those masks, with no step per cut.
    An empty sub-block has rank 0, and a one-row or one-column sub-block
    rank 1 exactly when one of its entries is nonzero.  Every other one is
    gathered in its (r, c) orientation with r >= c, the narrow way for
    _eliminate (the loop of _rref_eliminate, without its echelon sort; one
    column step per column), and the sub-blocks are grouped by that shape.
    A group of m sub-blocks per labelling with d^(rc) <= m * batch has no
    more possible matrices than sub-blocks: all d^(rc) are reduced by one
    _eliminate call into a table of pivot counts, and each sub-block's rank
    is read at its code, the base-d number of its entries in the oriented
    layout (last entry least significant, the order of np.indices).  Every
    other group (in classify the whole k x (N - k) block, and nearly all of
    a batch of one) is reduced directly, all its sub-blocks of every
    labelling stacked into one _eliminate call, each rank its pivot count.
    So no elimination stack is larger than the sub-blocks it ranks.  Raises
    ValueError for an entry outside [0, d) or a wire outside 1..N.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    if blocks.ndim != 3:
        raise ValueError(f"rank_exponents expects a (batch, k, N - k) stack, got shape {blocks.shape}")
    fld.check_arr(blocks)
    batch, k, n_sinks = blocks.shape
    n_cuts = len(subsets)
    sizes = np.fromiter(map(len, subsets), dtype=np.int64, count=n_cuts)
    wires = np.fromiter(itertools.chain.from_iterable(subsets), dtype=np.int64, count=int(sizes.sum()))
    cut = np.repeat(np.arange(n_cuts), sizes)
    outside = (wires < 1) | (wires > k + n_sinks)
    if outside.any():
        raise ValueError(f"subset {tuple(subsets[cut[outside.argmax()]])} names a wire outside 1..{k + n_sinks}")
    side = np.zeros((n_cuts, k + n_sinks), dtype=bool)
    side[cut, wires - 1] = True
    # slot j < n_cuts holds cut j's B[S - A, O & A], slot n_cuts + j its B[S & A, O - A]
    row_mask = np.concatenate([~side[:, :k], side[:, :k]])
    col_mask = np.concatenate([side[:, k:], ~side[:, k:]])
    rows, cols = row_mask.sum(axis=1), col_mask.sum(axis=1)
    # oriented shape (r, c), r >= c -> its sub-blocks' slots and their entries' indices into the flattened block
    groups: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}
    for r, c in sorted(set(zip(rows.tolist(), cols.tolist()))):
        if r and c:
            slots = np.flatnonzero((rows == r) & (cols == c))
            row_at = np.nonzero(row_mask[slots])[1].reshape(len(slots), r)
            col_at = np.nonzero(col_mask[slots])[1].reshape(len(slots), c)
            index = row_at[:, :, None] * n_sinks + col_at[:, None, :]
            if r < c:
                index = index.transpose(0, 2, 1)
            groups.setdefault(index.shape[1:], []).append((slots, index.reshape(len(slots), r * c)))
    entries = np.ascontiguousarray(blocks.reshape(batch, k * n_sinks).T)  # one row per entry of B
    ranks = np.zeros((2 * n_cuts, batch), dtype=np.min_scalar_type(min(k, n_sinks)))  # no e exceeds min(k, N - k)
    for (r, c), parts in groups.items():
        slots = np.concatenate([slots for slots, _ in parts])
        index = np.concatenate([index for _, index in parts])  # (sub-blocks, r * c)
        if c == 1:
            ranks[slots] = (entries[index] != 0).any(axis=1)
        elif fld.d ** (r * c) <= len(slots) * batch:
            every = np.indices((fld.d,) * (r * c)).reshape(r * c, -1).T.reshape(-1, r, c)
            table = _eliminate(fld, every)[1].sum(axis=1)
            codes = entries[index[:, 0]]
            for e in range(1, r * c):
                codes = codes * fld.d + entries[index[:, e]]
            ranks[slots] = table[codes]
        else:
            stack = entries[index].transpose(0, 2, 1).reshape(len(slots) * batch, r, c)
            ranks[slots] = _eliminate(fld, stack)[1].sum(axis=1).reshape(len(slots), batch)
    exponents = ranks[:n_cuts]
    exponents += ranks[n_cuts:]
    return np.array(exponents.T, dtype=np.int64, order="C")


def mat_rref(fld: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over the field; returns (rref, pivot columns).

    The pivot rows come first, in pivot-column order: each pivot column
    holds a single 1, in its pivot row, and the other rows are zero.  The
    form is unique, so both paths give the same output: rows packed one
    byte per entry (_rref_packed) over every packs_in_bytes field, and
    _eliminate (_rref_eliminate) over the rest.  Raises ValueError for a
    non-matrix or an entry outside [0, d).
    """
    m = np.array(mat, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"mat_rref expects a (rows, cols) matrix, got shape {m.shape}")
    fld.check_arr(m)
    return _rref_packed(fld, m) if packs_in_bytes(fld) else _rref_eliminate(fld, m)


def _rref_eliminate(fld: Field, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """mat_rref of a checked int64 matrix by _eliminate on a copy, then the pivot rows sorted."""
    stack, mask = _eliminate(fld, m.copy()[None])
    m, pivots = stack[0], np.flatnonzero(mask[0])
    rref = np.zeros_like(m)
    rref[: pivots.size] = m[np.nonzero(m[:, pivots].T)[1]]
    return rref, pivots.tolist()


def _rref_packed(fld: Field, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """mat_rref of a checked int64 matrix over a packs_in_bytes field, on rows packed into Python ints.

    Row i is one int with column c in byte c, so a row operation acts on a
    whole row: the first row at or below the next pivot row with a nonzero
    byte c becomes that pivot row, scaled to a leading 1 by one
    bytes.translate, and every other row whose byte c holds some f != 0
    sheds f times it, as one XOR over GF(2^m), or over GF(p) one addition
    of -f times it and a translate through s mod p: the arithmetic of
    _track_packed.  Each multiple of a pivot row is translated once.  The
    pivot rows stay in order at the top, so no sort follows.
    """
    rows, cols = m.shape
    mul, mod = _byte_tables(fld, np.arange(1, fld.d))
    inv, neg = fld.inv_table.tolist(), fld.neg_table.tolist()
    char2 = fld.p == 2
    load = int.from_bytes
    packed = m.astype(np.uint8).tobytes()
    work = [load(packed[i * cols : (i + 1) * cols], "little") for i in range(rows)]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        shift = 8 * c
        i = next((i for i in range(r, rows) if work[i] >> shift & 255), None)
        if i is None:
            continue
        prow, work[i] = work[i], work[r]
        lead = prow >> shift & 255
        if lead != 1:
            prow = load(prow.to_bytes(cols, "little").translate(mul[inv[lead]]), "little")
        work[r] = 0  # left out of its own clearing
        pivots.append(c)
        multiples = {1: prow}  # g -> g * prow, each translated once
        for j, row in enumerate(work):
            f = row >> shift & 255
            if not f:
                continue
            g = f if char2 else neg[f]
            term = multiples.get(g)
            if term is None:
                term = multiples[g] = load(prow.to_bytes(cols, "little").translate(mul[g]), "little")
            work[j] = row ^ term if char2 else load((row + term).to_bytes(cols, "little").translate(mod), "little")
        work[r] = prow
    rref = np.zeros_like(m)
    rank = len(pivots)
    packed = b"".join(row.to_bytes(cols, "little") for row in work[:rank])
    rref[:rank] = np.frombuffer(packed, dtype=np.uint8).reshape(rank, cols)
    return rref, pivots


def affine_update(fld: Field, rows: np.ndarray, kind: str, wires: Sequence[int], param) -> None:
    """Apply one A/D/C/W gate in place to rows [M; b] of shape (..., k + 1, N).

    Each (k + 1) x N matrix holds the k coefficient rows and then the offset
    row of an affine image x -> xM + b, so a gate updates whole wire columns.
    wires holds the gate's 1-based wire numbers.  param is None, a scalar,
    or an array that broadcasts against (..., 1), such as (batch, 1) for a
    (batch, k + 1, N) stack: one parameter per matrix.  Nothing is
    range-checked; callers validate the gate first.  H and V gates have no
    affine form and raise ValueError.  A C gate with the scalar label 1
    adds the control column as it is, over characteristic 2 as one
    in-place XOR; any other label, an array of them included, multiplies.
    """
    if kind == "C":
        m, n = wires[0] - 1, wires[1] - 1
        if not (isinstance(param, (int, np.integer)) and param == 1):
            rows[..., n] = fld.add_arr(rows[..., n], fld.mul_arr(param, rows[..., m]))
        elif fld.p == 2:
            rows[..., n] ^= rows[..., m]
        else:
            rows[..., n] = fld.add_arr(rows[..., n], rows[..., m])
    elif kind == "A":
        q = wires[0] - 1
        rows[..., -1:, q] = fld.add_arr(rows[..., -1:, q], param)
    elif kind == "D":
        q = wires[0] - 1
        rows[..., q] = fld.mul_arr(param, rows[..., q])
    elif kind == "W":
        a, b = wires[0] - 1, wires[1] - 1
        rows[..., [a, b]] = rows[..., [b, a]]
    else:
        raise ValueError(f"{kind} gate has no affine representation")


def packs_in_bytes(fld: Field) -> bool:
    """Whether SymbolicState.apply tracks fld on byte-packed columns (else one affine_update per gate).

    An element must fit in a byte, and adding two packed columns must be one
    integer operation: XOR over GF(2^m) up to GF(256), integer addition over
    a prime field up to p = 127, whose slot sums stay below 2p - 1 <= 253,
    so no carry crosses into the next byte.
    """
    return fld.d <= 256 if fld.p == 2 else fld.n == 1 and fld.p <= 127


def _byte_tables(fld: Field, labels: np.ndarray) -> tuple[dict[int, bytes], Optional[bytes]]:
    """bytes.translate tables of a packs_in_bytes field, for elements packed one per byte.

    Returns mul, which maps each label a to the 256-byte table of slot s ->
    a * s, and over GF(p) the table of s -> s mod p, which turns a byte-wise
    sum of two packed elements back into elements (None over GF(2^m), where
    a sum is an XOR).  Slots that never hold an element map anywhere.
    """
    slots = np.arange(256)
    if fld.p == 2:
        products = fld.mul_arr(labels[:, None], slots & (fld.d - 1))
        mod = None
    else:
        products = labels[:, None] * (slots % fld.p) % fld.p
        mod = (slots % fld.p).astype(np.uint8).tobytes()
    return dict(zip(labels.tolist(), map(np.ndarray.tobytes, products.astype(np.uint8)))), mod


def _track_packed(fld: Field, rows: np.ndarray, columns: GateColumns) -> None:
    """Apply validated A/D/C/W gates in time order to rows [M; b] of shape (k + 1, N), in place.

    Each wire's column becomes one Python int, row r in byte r and the
    offset in byte k, so a gate is one big-int operation on whole columns:
    a multiplication by a label is one bytes.translate through its 256-entry
    table, a sum is one XOR (characteristic 2) or one addition followed by a
    translate through the table of s mod p.  W swaps two ints.  fld must
    pass packs_in_bytes.
    """
    size = rows.shape[0]
    shift = 8 * (size - 1)  # the offset byte
    packed = np.ascontiguousarray(rows.T, dtype=np.uint8).tobytes()
    load = int.from_bytes
    cols = [0, *(load(packed[i : i + size], "little") for i in range(0, len(packed), size))]  # by 1-based wire
    mul, mod = _byte_tables(fld, np.flatnonzero(np.bincount(columns.param, minlength=1)))  # the parameters in use
    gates = zip(columns.kind.tolist(), columns.wire1.tolist(), columns.wire2.tolist(), columns.param.tolist())
    if fld.p == 2:
        for kind, a, b, x in gates:
            if kind == KIND_C:
                if x == 1:
                    cols[b] ^= cols[a]
                elif x:
                    cols[b] ^= load(cols[a].to_bytes(size, "little").translate(mul[x]), "little")
            elif kind == KIND_D:
                cols[a] = load(cols[a].to_bytes(size, "little").translate(mul[x]), "little")
            elif kind == KIND_A:
                cols[a] ^= x << shift
            else:
                cols[a], cols[b] = cols[b], cols[a]
    else:
        for kind, a, b, x in gates:
            if kind == KIND_C:
                if x == 1:
                    cols[b] = load((cols[b] + cols[a]).to_bytes(size, "little").translate(mod), "little")
                elif x:
                    term = load(cols[a].to_bytes(size, "little").translate(mul[x]), "little")
                    cols[b] = load((cols[b] + term).to_bytes(size, "little").translate(mod), "little")
            elif kind == KIND_D:
                cols[a] = load(cols[a].to_bytes(size, "little").translate(mul[x]), "little")
            elif kind == KIND_A:
                cols[a] = load((cols[a] + (x << shift)).to_bytes(size, "little").translate(mod), "little")
            else:
                cols[a], cols[b] = cols[b], cols[a]
    unpacked = np.frombuffer(b"".join(c.to_bytes(size, "little") for c in cols[1:]), dtype=np.uint8)
    rows[...] = unpacked.reshape(-1, size).T


# ---------------------------------------------------------------------------
# Symbolic states
# ---------------------------------------------------------------------------

class SymbolicState:
    """Exact algebraic image of an A/D/C/W circuit on an s/0 register.

    The dense state it denotes is d^(-k/2) * sum over u in F^k of the
    basis ket whose digit on wire q is sum_i matrix[i, q-1]*u_i + offset[q-1].
    matrix and offsets are views of one (k + 1) x N array, the matrix rows
    then the offsets, so a gate updates a wire's whole column at once.
    """

    def __init__(self, fld: Field, n_qudits: int, matrix: np.ndarray, offsets: np.ndarray):
        self.field = fld
        self.n = int(n_qudits)
        matrix = np.asarray(matrix, dtype=np.int64).reshape(-1, self.n)
        self._rows = np.concatenate([matrix, np.asarray(offsets, dtype=np.int64).reshape(1, self.n)])
        fld.check_arr(self._rows)
        self.matrix, self.offsets = self._rows[:-1], self._rows[-1]

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pattern(cls, fld: Field, pattern: Sequence[str]) -> "SymbolicState":
        n = len(pattern)
        k = sum(1 for t in pattern if t == "s")
        matrix = np.zeros((k, n), dtype=np.int64)
        row = 0
        for q, token in enumerate(pattern):
            if token == "s":
                matrix[row, q] = 1
                row += 1
            elif token != "0":
                raise ValueError(f"pattern entries must be 's' or '0', got {token!r}")
        return cls(fld, n, matrix, np.zeros(n, dtype=np.int64))

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "SymbolicState":
        return cls.from_pattern(circuit.field, circuit.init).apply(circuit.columns)

    def copy(self) -> "SymbolicState":
        return SymbolicState(self.field, self.n, self.matrix.copy(), self.offsets.copy())

    def apply(self, gates: GateList) -> "SymbolicState":
        """Apply a gate list in place, gate by gate in time order.

        The gates are checked once (validate_gates), and H and V gates, which
        have no affine form, raise ValueError, before any column changes.
        The field alone picks how a gate updates the columns, with the same
        rows:
        - GF(2^m) up to GF(256) and prime fields up to GF(127)
          (packs_in_bytes): each wire's column is packed into one Python int,
          one byte per row (_track_packed), so a gate is one or two C-level
          operations whatever k and N are.
        - every other field, where an element does not fit in a byte or a
          sum of packed columns is not one integer operation: one
          affine_update per gate.
        """
        columns = validate_gates(self.field, self.n, gates)
        affine = np.isin(columns.kind, (KIND_A, KIND_D, KIND_C, KIND_W))
        if not affine.all():
            raise ValueError(f"{GATE_KINDS[columns.kind[affine.argmin()]]} gate has no affine representation")
        if packs_in_bytes(self.field):
            _track_packed(self.field, self._rows, columns)
            return self
        for kind, a, b, x in zip(columns.kind.tolist(), columns.wire1.tolist(), columns.wire2.tolist(),
                                 columns.param.tolist()):
            affine_update(self.field, self._rows, GATE_KINDS[kind], (a, b), x)
        return self

    def support(self) -> SupportState:
        """The d^k kets uM + b (u in F^k), ascending, each of the float64 amplitude d^(-k/2), under the ket guard.

        Dependent rows repeat a ket, once per u that reaches it; SupportState.dense adds repeats up.
        """
        fld, d, n, k = self.field, self.field.d, self.n, self.k
        check_ket_count(d ** k, n)
        digits = self.offsets[:, None]  # (n, d^i) after i rows, one column per (u_1..u_i), u_1 slowest
        for row in self.matrix:
            digits = fld.add_arr(digits[:, :, None], fld.mul_arr(row[:, None, None], np.arange(d))).reshape(n, -1)
        amps = np.full(d ** k, d ** (-k / 2))
        return SupportState(d, n, digits[:, ket_order(d, digits)], amps)

    def dense_amps(self) -> np.ndarray:
        """Reconstruct the dense amplitude vector, under the d^n guard before any ket is listed."""
        check_state_size(self.field.d, self.n)
        return self.support().dense()

    def standard_form(self) -> tuple["GraphState", np.ndarray]:
        """The paper's standard form [I_r | B]; returns (graph, residual).

        graph: the GraphState whose sources are the wires of the
        lexicographically earliest independent columns (the pivots of
        mat_rref) and whose block B holds the labels on the other wires,
        ascending.  residual: the offsets on those sink wires once the pivot
        offsets are absorbed into u, i.e. the offset reduced modulo the row
        space, a canonical representative (zero for C-only circuits).
        """
        fld = self.field
        rref, pivots = mat_rref(fld, self.matrix)
        sinks = sorted(set(range(self.n)) - set(pivots))
        block = rref[: len(pivots), sinks]
        residual = self.offsets[sinks]
        shifts = self.offsets[pivots]
        for row in np.flatnonzero(shifts).tolist():  # none for C-only circuits
            residual = fld.sub_arr(residual, fld.mul_arr(shifts[row], block[row]))
        return GraphState(fld, tuple(c + 1 for c in pivots), tuple(c + 1 for c in sinks), block), residual


def states_equal_symbolic(s1: SymbolicState, s2: SymbolicState) -> bool:
    """Exact state equality: same field, wire count and row count k, and equal standard forms.

    k fixes the weight of each ket (dependent rows repeat it), so two row
    spaces alike with different k are different states.
    """
    if s1.field != s2.field or s1.n != s2.n or s1.k != s2.k:
        return False
    (g1, r1), (g2, r2) = s1.standard_form(), s2.standard_form()
    return g1 == g2 and np.array_equal(r1, r2)


# ---------------------------------------------------------------------------
# Graph states
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GraphState:
    """A graph state in the paper's standard form: uniform over the row space of [I | B].

    The sources S = s_wires carry I, the sinks O = o_wires the label block
    B: block[r, c] labels the edge from s_wires[r] to o_wires[c], 0 where
    there is none.  block is stored as a read-only |S| x |O| int64 copy, so
    an edge cannot repeat or run from a sink.  make_graph_state is the entry
    from an edge list.
    """

    field: Field
    s_wires: tuple[int, ...]
    o_wires: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self):
        s, o = set(self.s_wires), set(self.o_wires)
        if s & o:
            raise ValueError("source and sink wire sets overlap")
        if s | o != set(range(1, self.n + 1)):  # a repeated wire leaves a gap
            raise ValueError("wires must cover 1..N")
        block = np.asarray(self.block)
        if block.dtype.kind not in "iu":  # a float or bool block would be truncated silently
            raise ValueError(f"label block must hold integers, got dtype {block.dtype}")
        if block.shape != (len(self.s_wires), len(self.o_wires)):
            raise ValueError(f"label block of shape {block.shape}, expected ({len(self.s_wires)}, {len(self.o_wires)})")
        self.field.check_arr(block)  # before the int64 copy, which would wrap an unsigned label past 2^63
        block = np.array(block, dtype=np.int64)
        block.flags.writeable = False
        object.__setattr__(self, "block", block)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GraphState) and self.field == other.field and self.s_wires == other.s_wires
                and self.o_wires == other.o_wires and np.array_equal(self.block, other.block))

    @property
    def n(self) -> int:
        return len(self.s_wires) + len(self.o_wires)

    @functools.cached_property
    def edge_table(self) -> np.ndarray:
        """The edge table: a read-only int64 row (source, sink, label) per nonzero label, in (source, sink) order.

        np.nonzero of the block with its rows and columns put in ascending
        wire order lists the edges in that order, with no sort.  edges,
        to_circuit and every graph writer read this table.
        """
        s_wires, o_wires = np.array(self.s_wires, dtype=np.int64), np.array(self.o_wires, dtype=np.int64)
        s_order, o_order = s_wires.argsort(), o_wires.argsort()
        block = self.block[s_order[:, None], o_order]
        rows, cols = block.nonzero()
        table = np.array([s_wires[s_order][rows], o_wires[o_order][cols], block[rows, cols]]).T
        table.flags.writeable = False
        return table

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The rows of edge_table as tuples: (source, sink, label) of every edge, in (source, sink) order."""
        return tuple(map(tuple, self.edge_table.tolist()))

    def to_symbolic(self) -> SymbolicState:
        """The coefficient matrix [I | B], its columns moved onto the wires, with zero offsets."""
        m = np.hstack([np.eye(len(self.s_wires), dtype=np.int64), self.block])
        return SymbolicState(self.field, self.n, m[:, np.argsort(self.s_wires + self.o_wires)], np.zeros(self.n, dtype=np.int64))

    def to_circuit(self) -> Circuit:
        init = tuple("s" if q in self.s_wires else "0" for q in range(1, self.n + 1))
        wires = self.edge_table.T.copy()  # writable columns, as a parsed circuit's are
        return Circuit(self.field, self.n, init, GateColumns(np.full(len(self.edge_table), KIND_C), *wires))

    def state(self) -> StateVector:
        return StateVector(self.field, self.n, self.to_symbolic().dense_amps())


def make_graph_state(fld: Field, s_wires: Iterable[int], o_wires: Iterable[int],
                     edges: Iterable[tuple[int, int, int]]) -> GraphState:
    """The GraphState of an edge list: sorts the wires, drops zero labels, and fills the block.

    Checks in this order, each with ValueError: the wires (GraphState), a
    (source, sink) pair listed twice, then each edge in sorted order, first
    that it runs from a source to a sink, then that its label is a nonzero
    field element, before it is written into int64.
    """
    s_wires, o_wires = tuple(sorted(s_wires)), tuple(sorted(o_wires))
    block = np.zeros((len(s_wires), len(o_wires)), dtype=np.int64)
    GraphState(fld, s_wires, o_wires, block)  # the wire checks come first
    cleaned = sorted((i, j, b) for i, j, b in edges if b != 0)
    if len({(i, j) for i, j, _ in cleaned}) != len(cleaned):
        raise ValueError("an edge between the same source and sink is listed twice")
    row, col = {w: r for r, w in enumerate(s_wires)}, {w: c for c, w in enumerate(o_wires)}
    for i, j, b in cleaned:
        if i not in row or j not in col:
            raise ValueError(f"edge {(i, j)} does not run from a source to a sink wire")
        if not 0 < b < fld.d:
            raise ValueError(f"edge label {b} must be a nonzero field element")
        block[row[i], col[j]] = b
    return GraphState(fld, s_wires, o_wires, block)


def graph_from_symbolic(sym: SymbolicState) -> tuple[GraphState, dict[int, int]]:
    """The graph of sym.standard_form() and its residual as local shifts.

    sym must have full rank (else RuntimeError) and 1 <= k <= N - 1 (else
    ValueError).  Whatever shift survives on sink wires is returned as a
    map wire -> field element (empty for C-only circuits).
    """
    graph, residual = sym.standard_form()
    if len(graph.s_wires) != sym.k:
        raise RuntimeError("coefficient matrix lost rank; inputs must be unitary gate images")
    if sym.k == 0 or sym.k == sym.n:
        raise ValueError("standard form needs at least one 's' and one '0' wire (1 <= k <= N - 1)")
    return graph, {graph.o_wires[c]: int(residual[c]) for c in np.flatnonzero(residual)}


def canonicalize(circuit: Circuit) -> tuple[tuple[int, ...], GraphState]:
    """Reduce a C-only circuit to its standard bipartite graph form.

    Returns (wire_order, graph): `graph` reproduces the input state exactly
    on the original wire labels, and `wire_order` lists sources before sinks,
    i.e. the particle permutation that moves the graph into the
    sources-first layout.
    """
    other = circuit.columns.kind != KIND_C
    if other.any():
        raise ValueError(f"canonicalize expects a C-only circuit, found {GATE_KINDS[circuit.columns.kind[other.argmax()]]} gate")
    graph, residual = graph_from_symbolic(SymbolicState.from_circuit(circuit))
    if residual:  # pragma: no cover - impossible for C-only circuits
        raise RuntimeError("C-only circuit produced affine offsets")
    return graph.s_wires + graph.o_wires, graph


def pulls_back_to_register(circuit: Circuit, graph: GraphState) -> bool:
    """Exact check that graph is the state of an A/D/C/W circuit, with no dense state and no size guard.

    The graph's rows [I | B] and its zero offset row (to_symbolic) run
    back through the circuit, the inverse of each gate in reverse time
    order, one affine_update per gate: C(a) becomes C(-a), A(a) becomes
    A(-a), D(a) becomes D(1/a), and W stays W.  The circuit's map is
    invertible, so the pulled-back rows stay independent, and they span the
    register's s wires, the offset lying in that span, exactly when the
    graph state is the circuit's state.  So the answer is true exactly when
    the graph has circuit.k sources and every pulled-back row, offset
    included, is zero on the circuit's 0 wires.  A graph over another field
    or wire count is false.  Over packs_in_bytes fields this shares no code
    with SymbolicState.apply (_track_packed), which produced the graph, so a
    defect of that path cannot cancel out; over the others both run
    affine_update, which the tests check against dense simulation.  An H or
    V gate raises ValueError.
    """
    fld, columns = circuit.field, circuit.columns
    if graph.field != fld or graph.n != circuit.n_qudits or len(graph.s_wires) != circuit.k:
        return False
    rows = np.asfortranarray(graph.to_symbolic()._rows)  # each wire's column contiguous
    inverse = np.where(columns.kind == KIND_D, fld.inv_table[columns.param], fld.neg_table[columns.param])
    for kind, a, b, x in zip(columns.kind[::-1].tolist(), columns.wire1[::-1].tolist(),
                             columns.wire2[::-1].tolist(), inverse[::-1].tolist()):
        affine_update(fld, rows, GATE_KINDS[kind], (a, b), x)
    zero = [q for q, token in enumerate(circuit.init) if token == "0"]
    return not rows[:, zero].any()


# ---------------------------------------------------------------------------
# Pairwise rewrite rules
# ---------------------------------------------------------------------------

class Relation(NamedTuple):
    """One rewrite rule: the operator product g1 * g2 (g2 acts first) on wires 1..n_wires and its equal product.

    a ranges over range(lo[0], d) and b over range(lo[1], d): lo is 0 for
    any element, 1 for a nonzero one.  lhs holds (kind, wires, "a" or "b")
    of g1 and then of g2.  rhs(field, a, b) takes int64 arrays of the cases'
    parameters, one entry per case, and returns the right-hand side as a
    list of forms (where, factors): where is None (every case) or the
    boolean mask of the cases the form holds for, and factors lists (kind,
    wires, param) in operator order, param None or an array of one entry per
    case, read only where its form holds.  The rules are data, not a
    gate-pair API: relations_suite is their one reader.
    """

    n_wires: int
    lo: tuple[int, int]
    lhs: tuple[tuple[str, tuple[int, ...], str], tuple[str, tuple[int, ...], str]]
    rhs: Callable[[Field, np.ndarray, np.ndarray], list]


def _every(*factors) -> list:
    """The one form of a right-hand side that holds for every case."""
    return [(None, list(factors))]


def _opposed_pair(f: Field, a: np.ndarray, b: np.ndarray) -> list:
    """C(1,2)a * C(2,1)b: four factors where u = 1 + ab != 0, and where u = 0 (so b != 0) a swap and three."""
    u = f.add_arr(1, f.mul_arr(a, b))
    v = f.inv_arr(u)
    return [(u != 0, [("D", (1,), v), ("D", (2,), u), ("C", (2, 1), f.mul_arr(u, b)), ("C", (1, 2), f.mul_arr(v, a))]),
            (u == 0, [("W", (1, 2), None), ("D", (1,), a), ("D", (2,), b), ("C", (1, 2), f.inv_arr(b))])]


# name -> Relation: the one record of each rule; relations_suite (the relations-test verb) reads it
RELATIONS: dict[str, Relation] = {
    "add_add_merge": Relation(1, (0, 0), (("A", (1,), "a"), ("A", (1,), "b")),
                              lambda f, a, b: _every(("A", (1,), f.add_arr(a, b)))),
    "scale_scale_merge": Relation(1, (1, 1), (("D", (1,), "a"), ("D", (1,), "b")),
                                  lambda f, a, b: _every(("D", (1,), f.mul_arr(a, b)))),
    "scale_add_exchange": Relation(1, (1, 0), (("D", (1,), "a"), ("A", (1,), "b")),
                                   lambda f, a, b: _every(("A", (1,), f.mul_arr(a, b)), ("D", (1,), a))),
    "cnot_control_add": Relation(2, (0, 0), (("C", (1, 2), "a"), ("A", (1,), "b")),
                                 lambda f, a, b: _every(("A", (2,), f.mul_arr(a, b)), ("A", (1,), b), ("C", (1, 2), a))),
    "cnot_target_add": Relation(2, (0, 0), (("C", (1, 2), "a"), ("A", (2,), "b")),
                                lambda f, a, b: _every(("A", (2,), b), ("C", (1, 2), a))),
    "cnot_control_scale": Relation(2, (0, 1), (("C", (1, 2), "a"), ("D", (1,), "b")),
                                   lambda f, a, b: _every(("D", (1,), b), ("C", (1, 2), f.mul_arr(b, a)))),
    "cnot_target_scale": Relation(2, (0, 1), (("C", (1, 2), "a"), ("D", (2,), "b")),
                                  lambda f, a, b: _every(("D", (2,), b), ("C", (1, 2), f.mul_arr(f.inv_arr(b), a)))),
    "cnot_merge": Relation(2, (0, 0), (("C", (1, 2), "a"), ("C", (1, 2), "b")),
                           lambda f, a, b: _every(("C", (1, 2), f.add_arr(a, b)))),
    "cnot_opposed_pair": Relation(2, (0, 0), (("C", (1, 2), "a"), ("C", (2, 1), "b")), _opposed_pair),
    "cnot_shared_control": Relation(3, (0, 0), (("C", (1, 2), "a"), ("C", (1, 3), "b")),
                                    lambda f, a, b: _every(("C", (1, 3), b), ("C", (1, 2), a))),
    "cnot_shared_target": Relation(3, (0, 0), (("C", (1, 3), "a"), ("C", (2, 3), "b")),
                                   lambda f, a, b: _every(("C", (2, 3), b), ("C", (1, 3), a))),
    "cnot_chain": Relation(3, (0, 0), (("C", (2, 3), "b"), ("C", (1, 2), "a")),
                           lambda f, a, b: _every(("C", (1, 3), f.mul_arr(a, b)), ("C", (1, 2), a), ("C", (2, 3), b))),
    "cnot_chain_reverse": Relation(3, (0, 0), (("C", (1, 2), "a"), ("C", (2, 3), "b")),
                                   lambda f, a, b: _every(("C", (2, 3), b), ("C", (1, 2), a),
                                                          ("C", (1, 3), f.neg_table[f.mul_arr(a, b)]))),
}


# ---------------------------------------------------------------------------
# Relation suite: every rewrite rule checked as an operator identity
# ---------------------------------------------------------------------------

def affine_maps_equal(fld: Field, n_wires: int, batch: int, lhs: Sequence[tuple], rhs: Sequence[tuple]) -> np.ndarray:
    """Exact equality of a batch of A/D/C/W operator-product pairs of one shape.

    Each side lists its factors (kind, wires, param) in operator order, the
    first factor applied last.  param is None, or a (batch, 1) integer array
    holding that factor's parameter in every pair of the batch.  Such a
    product is the affine map |x> -> |xM + b>.  Each side starts from the
    identity rows [I; 0] as one (batch, N + 1, N) stack, its factors are
    applied in time order with affine_update, and a pair is equal exactly
    when its rows are.  Row spaces alone would not do: every bijection spans
    the whole space.  Returns a (batch,) boolean array.

    One check_gates call checks every factor of both sides, lhs first, on
    columns that hold each factor once if it has no parameter and twice if
    it has one, at the smallest and the largest parameter of the batch, so a
    parameter outside [0, d) or a D(0) raises its GateError (a ValueError);
    an H or V factor raises ValueError when its side is applied, and one in
    lhs raises before any check of rhs.
    """
    def rows(side: Sequence[tuple]) -> np.ndarray:
        stack = np.zeros((batch, n_wires + 1, n_wires), dtype=np.int64)
        stack[:, :n_wires] = np.eye(n_wires, dtype=np.int64)
        for kind, wires, param in reversed(side):
            affine_update(fld, stack, kind, wires, param)
        return stack

    lhs_affine = not {kind for kind, _, _ in lhs} & {"H", "V"}
    factors = [*lhs, *rhs] if lhs_affine else lhs
    params = [param for _, _, param in factors if param is not None]
    bounds = np.concatenate(params, axis=1) if params else np.zeros((batch, 0), dtype=np.int64)
    low, high = iter(bounds.min(axis=0).tolist()), iter(bounds.max(axis=0).tolist())
    columns = [(GATE_KINDS.index(kind), wires[0], wires[-1] if len(wires) == 2 else 0, value)
               for kind, wires, param in factors for value in ((0,) if param is None else (next(low), next(high)))]
    check_gates(fld, n_wires, GateColumns(*np.array(columns, dtype=np.int64).reshape(-1, 4).T))
    return (rows(lhs) == rows(rhs)).all(axis=(1, 2))


RELATIONS_SAMPLES = 1000  # random cases of one relations_suite call past RELATIONS_EXHAUSTIVE_MAX_D
RELATIONS_EXHAUSTIVE_MAX_D = 5  # exhaustive mode lists 13 d^2 cases at most: 325 at d = 5


def relations_cases(fld: Field, seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cases relations_suite checks over fld, in check order, as three int64 arrays: rule, a and b.

    rule indexes list(RELATIONS).  Up to order RELATIONS_EXHAUSTIVE_MAX_D:
    every admissible parameter pair of every rule, each once, rule by rule
    in table order and a slowest.  Past it: RELATIONS_SAMPLES cases from
    default_rng(seed), drawn in three array calls, first the rule indices
    into sorted(RELATIONS), then every a and then every b, each as
    lo + integers(d - lo) with the lower end lo of its rule's domain
    range(lo, d).  The case count does not grow with d, and a case may be
    drawn more than once.
    """
    lo = np.array([rule.lo for rule in RELATIONS.values()])
    d = fld.d
    if d <= RELATIONS_EXHAUSTIVE_MAX_D:
        grids = [np.indices((d - lo_a, d - lo_b)).reshape(2, -1) + [[lo_a], [lo_b]] for lo_a, lo_b in lo.tolist()]
        a, b = np.hstack(grids)
        return np.repeat(np.arange(len(lo)), [grid.shape[1] for grid in grids]), a, b
    names = list(RELATIONS)
    rng = np.random.default_rng(seed)
    rule = np.argsort(names)[rng.integers(len(names), size=RELATIONS_SAMPLES)]  # sorted position -> table index
    lo_a, lo_b = lo[rule].T
    a = lo_a + rng.integers(d - lo_a)
    b = lo_b + rng.integers(d - lo_b)
    return rule, a, b


def relations_suite(fld: Field, seed: int = 0) -> dict:
    """Verify every rewrite rule as an operator identity: the one reader of RELATIONS.

    The cases are relations_cases(fld, seed): exhaustive up to order
    RELATIONS_EXHAUSTIVE_MAX_D, at most 13 d^2 of them, and RELATIONS_SAMPLES
    seeded random draws past it.  Every draw is checked and counted as
    drawn, so a case drawn twice is checked twice.  Each rule's rhs is
    computed once, over the parameter arrays of all its draws in draw
    order, and each of its forms (cnot_opposed_pair has two) is decided by
    one affine_maps_equal call on the parameter columns of its draws,
    exactly and without a dense operator, so every field order the Field
    class supports can be tested.  Those calls run in the order of their
    forms' first draws, and each validates every factor column, so a bad
    factor raises ValueError.  A rule is ok only when it was checked at
    least once and never failed, so a sample that misses a rule cannot pass
    it.  Its first failure is its earliest failing draw.
    """
    d = fld.d
    rule, a, b = relations_cases(fld, seed)

    def columns(side: list, at: np.ndarray) -> list[tuple]:
        return [(kind, wires, None if param is None else param[at, None]) for kind, wires, param in side]

    groups = []  # (draw indices, wire count, lhs, rhs) of each (rule, form), parameters as columns
    for r, relation in enumerate(RELATIONS.values()):
        index = np.flatnonzero(rule == r)
        if not index.size:
            continue
        params = {"a": a[index], "b": b[index]}
        lhs = [(kind, wires, params[name]) for kind, wires, name in relation.lhs]
        for where, rhs in relation.rhs(fld, params["a"], params["b"]):
            at = np.arange(index.size) if where is None else np.flatnonzero(where)
            if at.size:
                groups.append((index[at], relation.n_wires, columns(lhs, at), columns(rhs, at)))
    ok = np.ones(len(rule), dtype=bool)
    for index, n_wires, lhs, rhs in sorted(groups, key=lambda group: group[0][0]):
        ok[index] = affine_maps_equal(fld, n_wires, index.size, lhs, rhs)
    names = list(RELATIONS)
    checked = np.bincount(rule, minlength=len(names)).tolist()
    results = {name: {"checked": checked[r], "first_failure": None} for r, name in enumerate(names)}
    failed = np.flatnonzero(~ok)
    for j in failed[np.unique(rule[failed], return_index=True)[1]].tolist():  # each rule's earliest
        results[names[rule[j]]]["first_failure"] = {"params": (int(a[j]), int(b[j])), "max_deviation": 1.0}
    for entry in results.values():
        entry["ok"] = entry["checked"] > 0 and entry["first_failure"] is None
    return {
        "field": fld.descriptor(),
        "mode": "exhaustive" if d <= RELATIONS_EXHAUSTIVE_MAX_D else f"random[{RELATIONS_SAMPLES}]",
        "decided_by": "affine-rows",
        "relations": results,
        "ok": all(r["ok"] for r in results.values()),
    }


# ---------------------------------------------------------------------------
# Circuit file format
# ---------------------------------------------------------------------------

# tokens on a gate line by kind code; code -1, an unknown kind, expects none
_LINE_TOKENS = np.append(2 + KIND_TWO_WIRES + KIND_HAS_PARAM, 0)
_INT64_DIGITS = 18  # a number of at most 18 digits is read in int64, a longer one by int()
_KIND_OF_BYTE = np.full(256, -1, dtype=np.int64)  # kind code of a one-letter token, -1 for any other byte
_KIND_OF_BYTE[list("".join(GATE_KINDS).encode())] = np.arange(len(GATE_KINDS))


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format (README, "Circuit file format").

    Lines end where str.splitlines ends them, and '#' starts a comment that
    runs to the end of its line.  The field, qudits and init lines, the
    first three lines that hold more than a comment, are read one by one;
    the gate lines after them at once, from the UTF-8 bytes of the text
    (_scan_gate_lines).  A parse error names the first line at fault: a gate
    line with a non-ASCII character outside its comment, an unknown kind, a
    wrong argument count or an argument that is not an ASCII decimal
    integer first, then a bad init entry, then the first gate that Circuit
    rejects.
    """
    data, codes, breaks = line_bytes(text)
    ends = np.flatnonzero(breaks)
    fld = None
    n_qudits = None
    init = None
    stage = 0
    start = 0
    for lineno in range(1, len(ends) + 2):
        stop = int(ends[lineno - 1]) if lineno <= len(ends) else len(data)
        line = data[start:stop].decode("utf-8", "surrogatepass").split("#", 1)[0].strip()
        start = stop + 1
        if not line:
            continue
        parts = line.split()
        try:
            if stage == 0:
                if parts[0] != "field" or len(parts) not in (3, 4):
                    raise CircuitParseError("expected 'field p n [poly_index]'", lineno)
                fld = Field.from_descriptor(" ".join(parts[1:]))
                stage = 1
            elif stage == 1:
                if parts[0] != "qudits" or len(parts) != 2:
                    raise CircuitParseError("expected 'qudits N'", lineno)
                n_qudits = _ascii_int(parts[1])
                if n_qudits < 1:
                    raise CircuitParseError("qudit count must be positive", lineno)
                stage = 2
            else:
                if parts[0] != "init" or len(parts) != n_qudits + 1:
                    raise CircuitParseError(f"expected 'init' with {n_qudits} entries", lineno)
                init = tuple(parts[1:])
                stage = 3
                break
        except CircuitParseError:
            raise
        except (ValueError, IndexError) as exc:
            raise CircuitParseError(str(exc), lineno) from exc
    if stage != 3:
        raise CircuitParseError("incomplete circuit: need field, qudits and init lines")
    scanned = _scan_gate_lines(codes[start:], breaks[start:])
    if scanned is None:
        raise _first_bad_gate_line(text.splitlines()[lineno:], lineno + 1)
    columns, offsets = scanned
    try:
        return Circuit(fld, n_qudits, init, columns)
    except GateError as exc:
        below = int(np.count_nonzero(breaks[start : start + offsets[exc.index]]))  # lines before the gate's
        raise CircuitParseError(str(exc), lineno + 1 + below) from exc
    except ValueError as exc:  # Circuit checks the init entries before any gate
        raise CircuitParseError(str(exc), lineno) from exc


def _scan_gate_lines(codes: np.ndarray, breaks: np.ndarray) -> Optional[tuple[GateColumns, np.ndarray]]:
    """The gate lines in the bytes codes as unchecked GateColumns, and the offset of each gate's line in codes.

    breaks marks the byte that ends each line.  Each step is one array
    operation over the bytes or the tokens: comments are blanked out from
    each line's first '#' to its break, tokens are the runs of bytes that
    are not ASCII whitespace, a gate's kind is its line's first token, and
    the other tokens are read as numbers through a right-aligned matrix of
    their last 18 digits, one row per digit place (int() reads a longer
    one).  A number past int64 makes the columns object arrays of Python
    ints, for Circuit's check to report as written.  Returns None when a
    line has a token that is not a kind or not an optional '-' and ASCII
    digits (a non-ASCII byte outside a comment makes one), or a wrong token
    count for its kind: _first_bad_gate_line names it.
    """
    bounds = np.flatnonzero(breaks)
    word = ~in_ranges(codes, _SPACE_RANGES)
    hashes = np.flatnonzero(codes == ord("#"))
    if hashes.size:  # +1 at each line's first '#' and -1 at its break: a comment is where the sum is 1
        line = np.searchsorted(bounds, hashes)
        leading = np.ones(len(line), dtype=bool)
        leading[1:] = line[1:] != line[:-1]
        edge = np.zeros(len(codes) + 1, dtype=np.int8)
        edge[hashes[leading]] = 1
        edge[np.append(bounds, len(codes))[line[leading]]] = -1
        word &= np.cumsum(edge[:-1], dtype=np.int8) == 0
    edges = np.flatnonzero(np.diff(word, prepend=False, append=False))
    starts, stops = edges[0::2], edges[1::2]
    if not starts.size:
        empty = np.zeros(0, dtype=np.int64)
        return GateColumns(empty, empty, empty, empty), empty
    first = np.zeros(len(starts), dtype=bool)  # a line's first token: the first after a break
    first[0] = True
    after = np.searchsorted(starts, bounds)
    first[after[after < len(starts)]] = True
    head = np.flatnonzero(first)
    kind = np.where(stops[head] - starts[head] == 1, _KIND_OF_BYTE[codes[starts[head]]], -1)
    if (np.diff(head, append=len(starts)) != _LINE_TOKENS[kind]).any():
        return None
    args = ~first
    stop = stops[args]
    start = starts[args]
    neg = codes[start] == ord("-")
    start += neg
    if not (stop > start).all():
        return None
    width = min(int((stop - start).max()), _INT64_DIGITS)
    at = stop - np.arange(width, 0, -1)[:, None]  # (width, args): the last row holds the units
    digits = np.take(codes, np.maximum(at, 0)) - np.uint8(ord("0"))  # a byte that is no digit wraps past 9
    digits[at < start] = 0
    if (digits > 9).any():
        return None
    values = 10 ** np.arange(width - 1, -1, -1) @ digits
    values[neg] *= -1
    longer = np.flatnonzero(stop - start > _INT64_DIGITS)
    if longer.size:
        tokens = [codes[a:b].tobytes() for a, b in zip(start[longer].tolist(), stop[longer].tolist())]
        if not all(map(bytes.isdigit, tokens)):
            return None
        exact = int_column([-int(token) if sign else int(token) for token, sign in zip(tokens, neg[longer].tolist())])
        values = values.astype(exact.dtype)
        values[longer] = exact
    n_args = _LINE_TOKENS[kind] - 1
    at = np.cumsum(n_args) - n_args  # index of each gate's first argument in values
    values = np.append(values, 0)  # pads the second-argument read of a final one-argument gate
    n_wires = 1 + KIND_TWO_WIRES[kind]
    columns = GateColumns(
        kind,
        values[at],
        np.where(n_wires == 2, values[at + 1], 0),
        np.where(KIND_HAS_PARAM[kind], values[at + n_wires], 0),
    )
    return columns, starts[head]


def _first_bad_gate_line(lines: Sequence[str], first_line: int) -> Exception:
    """The CircuitParseError of the first of lines that _scan_gate_lines rejects; lines count from first_line.

    A line's checks run in this order: a non-ASCII character outside its
    comment, its kind, its argument count, then each argument, with int()'s
    own message when int() rejects it too.
    """
    for line_no, raw in enumerate(lines, start=first_line):
        line = raw.split("#", 1)[0]
        if not line.isascii():
            char = next(c for c in line if not c.isascii())
            return CircuitParseError(f"non-ASCII character {char!r} outside a comment", line_no)
        parts = line.split()
        if not parts:
            continue
        if parts[0] not in GATE_ARITY:
            return CircuitParseError(f"unknown gate {parts[0]!r}", line_no)
        n_wires, has_param = GATE_ARITY[parts[0]]
        if len(parts) != 1 + n_wires + has_param:
            return CircuitParseError(f"{parts[0]} gate takes {n_wires + has_param} argument(s)", line_no)
        for token in parts[1:]:
            try:
                _ascii_int(token)
            except ValueError:
                try:
                    int(token)
                except ValueError as exc:
                    return CircuitParseError(str(exc), line_no)
                return CircuitParseError(f"argument {token!r} is not an ASCII decimal integer", line_no)
    return RuntimeError("the gate-line scan rejected lines that pass the line check")


# ---------------------------------------------------------------------------
# Graph serialization
# ---------------------------------------------------------------------------

def format_rows(template: str, rows: np.ndarray, sep: str = "") -> str:
    """template filled in with each row of an integer table, the results joined by sep.

    One % over the template repeated once per row, reading the table as one
    flat list: no per-row format call.
    """
    return sep.join([template] * len(rows)) % tuple(rows.ravel().tolist())


def graph_to_json_dict(g: GraphState) -> dict:
    """The graph as a JSON-ready dict: its field, S, O and one {"from", "to", "label"} dict per row of g.edge_table.

    The CLI writes the same JSON text from the edge table directly, with no
    dict per edge.
    """
    return {
        "field": {"p": g.field.p, "n": g.field.n, "poly": g.field.poly_index},
        "S": list(g.s_wires),
        "O": list(g.o_wires),
        "edges": [{"from": i, "to": j, "label": b} for i, j, b in g.edge_table.tolist()],
    }


def _require_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{where} is missing {missing[0]!r}")


def graph_from_json_dict(data: dict) -> GraphState:
    """Inverse of graph_to_json_dict; ValueError unless data has its layout.

    A missing key is named with the object it is missing from, edges
    counted from 1: "graph JSON edge 1 is missing 'label'".
    """
    if not isinstance(data, dict):
        raise ValueError(f"graph JSON must be an object, got {type(data).__name__}")
    _require_keys(data, ("field", "S", "O", "edges"), "graph JSON")
    if not (isinstance(data["field"], dict) and all(isinstance(data[key], list) for key in ("S", "O", "edges"))
            and all(isinstance(e, dict) for e in data["edges"])):
        raise ValueError("graph JSON needs a 'field' object, 'S' and 'O' lists and an 'edges' list of objects")
    fd = data["field"]
    _require_keys(fd, ("p", "n", "poly"), "graph JSON field")
    for number, e in enumerate(data["edges"], start=1):
        _require_keys(e, ("from", "to", "label"), f"graph JSON edge {number}")
    # bool is an int subclass; a float or a string would be read as some other graph or field
    bad = [v for v in (fd["p"], fd["n"], fd["poly"]) if type(v) is not int]
    if bad:
        raise ValueError(f"field p, n and poly must be JSON integers, got {bad[0]!r}")
    fld = Field.from_descriptor(f"{fd['p']} {fd['n']} {fd['poly']}")
    edges = [(e["from"], e["to"], e["label"]) for e in data["edges"]]
    bad = [v for v in (*data["S"], *data["O"], *(v for e in edges for v in e)) if type(v) is not int]
    if bad:
        raise ValueError(f"wire numbers and labels must be JSON integers, got {bad[0]!r}")
    if len(data["S"]) + len(data["O"]) < 2:
        raise ValueError("a graph needs at least two wires")
    return make_graph_state(fld, data["S"], data["O"], edges)


def graph_to_dot(g: GraphState) -> str:
    """DOT rendering: sources as doublecircles on one rank, sinks below, the edges one format_rows of g.edge_table."""
    srow = " ".join(f"q{i} [shape=doublecircle, label=\"{i}\"];" for i in g.s_wires)
    orow = " ".join(f"q{j} [shape=circle, label=\"{j}\"];" for j in g.o_wires)
    return ("digraph graphstate {\n  rankdir=TB;\n  { rank=same; " + srow + " }\n  { rank=same; " + orow + " }\n"
            + format_rows('  q%d -> q%d [label="%d"];\n', g.edge_table) + "}\n")
