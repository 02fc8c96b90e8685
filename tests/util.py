"""Shared helpers for the test suite."""

from __future__ import annotations

import cmath
import functools
import json

import numpy as np

from quditgraph import (Circuit, Field, Gate, GraphState, ResourceGuardError, SupportState, SymbolicState,
                        bipartition_subsets, gate_matrix, sequence_matrix)
from quditgraph.classify import LABELLING_LIMIT, unique_rows
from quditgraph.gf import _ascii_int
from quditgraph.rewrite import graph_to_json_dict, rank_exponents
from quditgraph.simulator import DEFAULT_TOL, StateVector, check_state_size, ket_digits, ket_index, spectrum

field_for = functools.cache(Field.of_order)


def random_init(n: int, k: int, rng: np.random.Generator) -> tuple[str, ...]:
    wires = rng.permutation(n)[:k]
    return tuple("s" if q in wires else "0" for q in range(n))


def random_c_circuit(fld: Field, n: int, k: int, n_gates: int, rng: np.random.Generator) -> Circuit:
    init = random_init(n, k, rng)
    gates = []
    for _ in range(n_gates):
        m, t = rng.permutation(n)[:2] + 1
        gates.append(Gate("C", (int(m), int(t)), int(rng.integers(fld.d))))
    return Circuit(fld, n, init, tuple(gates))


def random_cadw_circuit(fld: Field, n: int, k: int, n_gates: int, rng: np.random.Generator) -> Circuit:
    init = random_init(n, k, rng)
    gates = []
    for _ in range(n_gates):
        kind = ["C", "A", "D", "W"][rng.integers(4)]
        if kind in ("C", "W"):
            m, t = rng.permutation(n)[:2] + 1
            param = int(rng.integers(fld.d)) if kind == "C" else None
            gates.append(Gate(kind, (int(m), int(t)), param))
        elif kind == "A":
            gates.append(Gate("A", (int(rng.integers(n)) + 1,), int(rng.integers(fld.d))))
        else:
            gates.append(Gate("D", (int(rng.integers(n)) + 1,), int(rng.integers(1, fld.d))))
    return Circuit(fld, n, init, tuple(gates))


def random_gate(fld: Field, n_wires: int, rng: np.random.Generator, kinds: str = "ADHVCW") -> Gate:
    """One random gate of the given kinds; C and W only on two or more wires."""
    usable = [k for k in kinds if n_wires > 1 or k not in "CW"]
    kind = usable[rng.integers(len(usable))]
    if kind in ("C", "W"):
        m, t = rng.permutation(n_wires)[:2] + 1
        return Gate(kind, (int(m), int(t)), int(rng.integers(fld.d)) if kind == "C" else None)
    wire = (int(rng.integers(n_wires)) + 1,)
    if kind == "A":
        return Gate("A", wire, int(rng.integers(fld.d)))
    if kind == "D":
        return Gate("D", wire, int(rng.integers(1, fld.d)))
    return Gate(kind, wire)


def rule_lhs(relation, a: int, b: int, wire_of=None) -> list[Gate]:
    """The left-hand side g1, g2 of a rewrite.RELATIONS entry as gates at (a, b), its wires put on wire_of[w] (else w)."""
    params = {"a": a, "b": b}
    return [Gate(kind, tuple(wires if wire_of is None else map(wire_of.__getitem__, wires)), params[name])
            for kind, wires, name in relation.lhs]


def rule_rhs(fld: Field, relation, a: int, b: int, wire_of=None) -> list[Gate]:
    """The right-hand side of a rewrite.RELATIONS entry as gates at (a, b), its wires put on wire_of[w] (else w)."""
    forms = relation.rhs(fld, np.array([a]), np.array([b]))
    held = [factors for where, factors in forms if where is None or where[0]]
    assert len(held) == 1, forms  # the forms of a rule split its cases
    return [Gate(kind, tuple(wires if wire_of is None else map(wire_of.__getitem__, wires)),
                 None if param is None else int(param[0])) for kind, wires, param in held[0]]


def spoiled(relation, change, hit=None):
    """A rewrite.RELATIONS entry with change(field, factors) applied to its right-hand side where hit(field, a, b) holds.

    With hit None the change applies to every case.  Each form splits in
    two: its cases outside hit, unchanged, and those inside, changed.  An
    int parameter in a changed factor holds for every case.
    """
    def rhs(f, a, b):
        inside = np.ones(a.shape, dtype=bool) if hit is None else hit(f, a, b)
        forms = []
        for where, factors in relation.rhs(f, a, b):
            held = np.ones(a.shape, dtype=bool) if where is None else where
            changed = [(kind, wires, None if param is None else np.broadcast_to(param, a.shape))
                       for kind, wires, param in change(f, factors)]
            forms += [(held & ~inside, factors), (held & inside, changed)]
        return forms
    return relation._replace(rhs=rhs)


def negate_last(f: Field, factors: list) -> list:
    """A right-hand side with the parameter of its last factor negated: for the reverse chain, wrong where -1 != 1."""
    kind, wires, param = factors[-1]
    return factors[:-1] + [(kind, wires, f.neg_table[param])]


def classify_full_sweep(fld: Field, n_qudits: int) -> dict:
    """classify ranking every k x (N-k) label block, no orbit of row scaling quotiented out: the oracle for classify."""
    d = fld.d
    if n_qudits < 2:
        raise ValueError("classification needs at least two qudits")
    if n_qudits > 65:
        raise ResourceGuardError(f"classify {n_qudits} over GF({d}) sweeps at least {d}^{n_qudits - 1} labellings, "
                                 "over the 2^16 guard")
    labellings = 0
    for k in range(1, n_qudits // 2 + 1):
        labellings += d ** (k * (n_qudits - k))
        if labellings > LABELLING_LIMIT:
            shown = labellings if labellings < 10 ** 12 else f"2^{labellings.bit_length() - 1}"
            raise ResourceGuardError(f"classify {n_qudits} over GF({d}) sweeps at least {shown} labellings, over the 2^16 guard")
    subsets = bipartition_subsets(n_qudits)
    sizes = np.array([len(subset) for subset in subsets])
    classes = []
    seen_keys: dict[tuple, int] = {}
    for k in range(1, n_qudits // 2 + 1):
        n_sinks = n_qudits - k
        # every k x (N-k) labelling, in itertools.product order (last label fastest)
        labels = np.indices((d,) * (k * n_sinks)).reshape(k * n_sinks, -1).T
        edge = labels.reshape(-1, k, n_sinks) != 0
        labels = labels[edge.any(axis=2).all(axis=1) & edge.any(axis=1).all(axis=1)]
        if not len(labels):
            continue
        codes = (n_qudits - rank_exponents(fld, labels.reshape(-1, k, n_sinks), subsets)) * n_qudits + sizes
        codes.sort(axis=1)
        keys, first, counts = unique_rows(codes)
        for key in map(tuple, keys.tolist()):
            if seen_keys.setdefault(key, k) != k:
                raise RuntimeError("invariant signature crossed class boundaries")
        representative = graph_to_json_dict(GraphState(fld, tuple(range(1, k + 1)), tuple(range(k + 1, n_qudits + 1)),
                                                       np.ones((k, n_sinks), dtype=np.int64)))
        del representative["field"]
        classes.append({
            "sources": k,
            "sinks": n_sinks,
            "graphs": len(labels),
            "representative": representative,
            "signature_orbits": [{"count": int(c), "representative_labels": labels[i].tolist()}
                                 for c, i in zip(counts, first)],
        })
    return {"field": fld.descriptor(), "n": n_qudits, "count": len(classes), "classes": classes}


def edges_oracle(g: GraphState) -> tuple[tuple[int, int, int], ...]:
    """GraphState.edges as it was defined before the edge table: a Python sort of the nonzero labels."""
    rows, cols = np.nonzero(g.block)
    return tuple(sorted(zip(np.array(g.s_wires)[rows].tolist(), np.array(g.o_wires)[cols].tolist(),
                            g.block[rows, cols].tolist())))


def json_oracle(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) plus a line break, each GraphState in obj written as graph_to_json_dict.

    The edge dicts are built from edges_oracle, so the oracle does not read
    the edge table it checks.
    """
    def graph_dict(value):
        if type(value) is not GraphState:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        edges = [{"from": i, "to": j, "label": b} for i, j, b in edges_oracle(value)]
        return {**graph_to_json_dict(value), "edges": edges}
    return json.dumps(obj, indent=2, sort_keys=True, default=graph_dict) + "\n"


def normalize_text_oracle(perm, g: GraphState) -> str:
    """normalize --format text without its verification line, one f-string per edge of edges_oracle."""
    lines = [f"permutation: {' '.join(map(str, perm))}", f"S: {' '.join(map(str, g.s_wires))}",
             f"O: {' '.join(map(str, g.o_wires))}", *(f"edge {i} -> {j} label {b}" for i, j, b in edges_oracle(g))]
    return "\n".join(lines) + "\n"


def dot_oracle(g: GraphState) -> str:
    """graph_to_dot one line per edge of edges_oracle."""
    lines = ["digraph graphstate {", "  rankdir=TB;"]
    lines.append("  { rank=same; " + " ".join(f"q{i} [shape=doublecircle, label=\"{i}\"];" for i in g.s_wires) + " }")
    lines.append("  { rank=same; " + " ".join(f"q{j} [shape=circle, label=\"{j}\"];" for j in g.o_wires) + " }")
    lines += [f"  q{i} -> q{j} [label=\"{b}\"];" for i, j, b in edges_oracle(g)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_graph_state(fld: Field, n: int, rng: np.random.Generator, density: float = 0.5) -> GraphState:
    """A GraphState built directly, its sources and sinks each in a random (not ascending) wire order."""
    wires = (rng.permutation(n) + 1).tolist()
    k = int(rng.integers(1, n))
    block = rng.integers(1, fld.d, size=(k, n - k)) * (rng.random((k, n - k)) < density)
    return GraphState(fld, tuple(wires[:k]), tuple(wires[k:]), block)


def ket_strings(amps: np.ndarray, d: int, n: int, tol: float = 1e-12) -> list[str]:
    """Digit strings of the nonzero basis kets, sorted by index."""
    out = []
    for idx in np.nonzero(np.abs(amps) > tol)[0]:
        digits = []
        v = int(idx)
        for _ in range(n):
            digits.append(v % d)
            v //= d
        out.append("".join(str(x) for x in reversed(digits)))
    return out


def poly_add(fld: Field, a: int, b: int) -> int:
    """Field sum from coefficient vectors: the independent oracle for Field arithmetic."""
    return element(fld, [ca + cb for ca, cb in zip(_coeffs(fld, a), _coeffs(fld, b))])


def poly_mul(fld: Field, a: int, b: int) -> int:
    """Field product by coefficient convolution and long reduction modulo fld.poly."""
    p, n = fld.p, fld.n
    ca, cb = _coeffs(fld, a), _coeffs(fld, b)
    conv = [0] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            conv[i + j] = (conv[i + j] + ca[i] * cb[j]) % p
    for k in range(2 * n - 2, n - 1, -1):
        lead = conv[k]
        if lead:
            conv[k] = 0
            for i, c in enumerate(fld.poly[:-1]):
                conv[k - n + i] = (conv[k - n + i] - lead * c) % p
    return element(fld, conv[:n])


def element(fld: Field, coeffs) -> int:
    """The element index of a coefficient vector of length n (lowest degree first), each coefficient taken mod p."""
    e = 0
    for c in reversed(list(coeffs)):
        e = e * fld.p + int(c) % fld.p
    return e


def _coeffs(fld: Field, e: int) -> list[int]:
    """Base-p digits of e, lowest first, computed here rather than read from the field."""
    out = []
    for _ in range(fld.n):
        e, c = divmod(e, fld.p)
        out.append(c)
    return out


def scalar_rref(fld: Field, mat) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination one scalar Field call per entry: the oracle for mat_rref."""
    m = [[int(v) for v in row] for row in np.asarray(mat).tolist()]
    rows, cols = np.shape(mat)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = fld.inv(m[r][c])
        m[r] = [fld.mul(inv, v) for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [fld.sub(a, fld.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return np.array(m, dtype=np.int64).reshape(rows, cols), pivots


def scalar_matmul(fld: Field, a, b) -> np.ndarray:
    """Matrix product over the field with scalar Field calls."""
    rows, inner = np.shape(a)
    cols = np.shape(b)[1]
    out = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc = fld.add(acc, fld.mul(int(a[i][t]), int(b[t][j])))
            out[i, j] = acc
    return out


def support_of(amps: np.ndarray, d: int, n: int, tol: float = 0.0) -> SupportState:
    """A dense amplitude vector in the support form: its kets of magnitude above tol, ascending."""
    kets = np.flatnonzero(np.abs(amps) > tol)
    return SupportState(d, n, ket_digits(kets, d, n), amps[kets])


def dense_amps_scatter(sym: SymbolicState) -> np.ndarray:
    """SymbolicState.dense_amps as a wire-by-wire scatter: the oracle for support().dense()."""
    fld, d, n, k = sym.field, sym.field.d, sym.n, sym.k
    elements = np.arange(d)

    def wire_digits(q):
        # digit of wire q for every u in F^k, u_1 slowest: one new axis per u_i
        digit = sym.offsets[q]
        for i in range(k):
            digit = fld.add_arr(digit[..., None], fld.mul_arr(sym.matrix[i, q], elements))
        return np.ravel(digit)

    amps = np.zeros(d ** n, dtype=np.complex128)
    np.add.at(amps, ket_index(map(wire_digits, range(n)), d), d ** (-k / 2))
    return amps


def dense_verification(circuit: Circuit, graph) -> dict:
    """normalize --verify by dense simulation: the oracle for rewrite.pulls_back_to_register.

    The graph's d^k kets are distinct, so equal supports decide; the
    deviation of the amplitudes is for information.
    """
    amps = circuit.simulate().amps
    support = graph.to_symbolic().support()
    kets = ket_index(support.digits, support.d)
    equal = bool(np.array_equal(np.flatnonzero(amps), kets))
    amps[kets] -= support.amps
    return {"equal": equal, "max_deviation": float(np.max(np.abs(amps)))}


def dump_state_loop(amps: np.ndarray, d: int, n: int, header=()) -> str:
    """dump_state as one Python test per amplitude: the oracle for its vectorised form."""
    lines = [f"# quditgraph-state d={d} qudits={n}"]
    lines += [f"# {h}" for h in header]
    for i in range(len(amps)):
        a = amps[i]
        if abs(a) > 1e-14:
            digits = []
            v = i
            for _ in range(n):
                v, r = divmod(v, d)
                digits.append(r)
            digits.reverse()
            if d <= 36:
                index = "".join("0123456789abcdefghijklmnopqrstuvwxyz"[r] for r in digits)
            else:
                index = ",".join(str(r) for r in digits)
            lines.append(f"{index} {float(a.real)!r} {float(a.imag)!r}")
    return "\n".join(lines) + "\n"


def parse_state_loop(text: str) -> SupportState:
    """parse_state as one Python pass per line, with its checks, their order and their messages: the oracle for its bulk form."""
    d = n = None
    kets: dict[int, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# quditgraph-state"):
                if d is not None:
                    raise ValueError(f"line {lineno}: second '# quditgraph-state' header")
                pairs = [part.split("=") for part in raw.split()[2:]]
                fields = dict(pair for pair in pairs if len(pair) == 2)
                try:
                    if len(fields) != len(pairs):
                        raise ValueError
                    d, n = _ascii_int(fields["d"]), _ascii_int(fields["qudits"])
                except (KeyError, ValueError):
                    raise ValueError(f"line {lineno}: dump header needs d=<integer> and qudits=<integer>, got {raw!r}") from None
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
        if d > 36 or "," in parts[0]:
            vals = [int(v) if v.isascii() and v.isdecimal() else -1 for v in parts[0].split(",")]
        else:
            vals = ["0123456789abcdefghijklmnopqrstuvwxyz".find(c) for c in parts[0]]
        if len(vals) != n or any(not 0 <= v < d for v in vals):
            raise ValueError(f"line {lineno}: bad basis index {parts[0]!r} for d={d}, n={n}")
        index = ket_index(vals, d)
        if index in kets:
            raise ValueError(f"line {lineno}: ket {parts[0]!r} listed twice")
        re_im = parts[1] + parts[2]
        try:
            if not re_im.isascii() or "_" in re_im:
                raise ValueError
            amp = complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise ValueError(f"line {lineno}: amplitude needs re and im as ASCII numbers, got {raw!r}") from None
        if not cmath.isfinite(amp):
            raise ValueError(f"line {lineno}: amplitude {amp!r} is not finite")
        kets[index] = amp
    if d is None:
        raise ValueError("state dump is missing its '# quditgraph-state d=.. qudits=..' header")
    digits = ket_digits(np.array(list(kets), dtype=np.int64), d, n)
    return SupportState(d, n, digits, np.array(list(kets.values()), dtype=np.complex128))


def oracle_gate_matrix(fld: Field, n_wires: int, gate: Gate) -> np.ndarray:
    """Dense unitary of one gate from coefficient arithmetic, with no kernel.

    H is the d x d Fourier matrix Kronecker-multiplied with identities on the
    other wires; every other gate is the permutation matrix sending each
    basis ket to its image, U[image(x), x] = 1.
    """
    d = fld.d
    if gate.kind == "H":
        omega = np.exp(2j * np.pi / fld.p)
        h = np.array([[omega ** (sum(a * b for a, b in zip(_coeffs(fld, x), _coeffs(fld, y))) % fld.p)
                       for y in range(d)] for x in range(d)]) / np.sqrt(d)
        out = np.ones((1, 1), dtype=complex)
        for w in range(1, n_wires + 1):
            out = np.kron(out, h if w == gate.wires[0] else np.eye(d))
        return out
    out = np.zeros((d ** n_wires, d ** n_wires), dtype=complex)
    m, t = gate.wires[0] - 1, gate.wires[-1] - 1
    for index in range(d ** n_wires):
        x = [index // d ** (n_wires - 1 - q) % d for q in range(n_wires)]  # x[q] is the digit of wire q + 1
        y = list(x)
        if gate.kind == "A":
            y[m] = poly_add(fld, x[m], gate.param)
        elif gate.kind == "D":
            y[m] = poly_mul(fld, gate.param, x[m])
        elif gate.kind == "V":
            y[m] = element(fld, reversed(_coeffs(fld, x[m])))
        elif gate.kind == "W":
            y[m], y[t] = x[t], x[m]
        else:  # C
            y[t] = poly_add(fld, x[t], poly_mul(fld, gate.param, x[m]))
        out[sum(v * d ** (n_wires - 1 - q) for q, v in enumerate(y)), index] = 1
    return out


def oracle_sequence_matrix(fld: Field, n_wires: int, ops) -> np.ndarray:
    """Operator product (ops[0] leftmost) as one dense matrix product per gate: the oracle for sequence_matrix."""
    out = np.eye(fld.d ** n_wires, dtype=complex)
    for gate in ops:
        out = out @ oracle_gate_matrix(fld, n_wires, gate)
    return out


def dense_conjugation_holds(fld: Field, a: int, tol: float = 1e-10) -> bool:
    """The H/V conjugation identity on dense d^2 x d^2 operators: the oracle for check_conjugation_identity.

    C_12(a) conjugated by (H^dagger V) on wire 1 and (V H) on wire 2, with
    H^dagger expanded as H D(-1), is compared with C_21(a) entrywise.
    """
    minus_one = fld.neg(1)
    lhs = sequence_matrix(fld, 2, [
        Gate("H", (1,)), Gate("D", (1,), minus_one), Gate("V", (1,)),
        Gate("V", (2,)), Gate("H", (2,)),
        Gate("C", (1, 2), a),
        Gate("H", (2,)), Gate("D", (2,), minus_one), Gate("V", (2,)),
        Gate("V", (1,)), Gate("H", (1,)),
    ])
    return bool(np.abs(lhs - gate_matrix(fld, 2, Gate("C", (2, 1), a))).max() <= tol)


def rank(rho: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """The number of eigenvalues of a density matrix above tol: the dense rank oracle."""
    return int(np.count_nonzero(spectrum(rho) > tol))


def states_equal_up_to_phase(s1: StateVector, s2: StateVector, tol: float = DEFAULT_TOL) -> bool:
    """Same field and wire count, and |<s1|s2>| within tol of 1."""
    if s1.field != s2.field or s1.n != s2.n:
        return False
    return bool(abs(abs(np.vdot(s1.amps, s2.amps)) - 1.0) <= tol)


def serialize_circuit(circuit: Circuit) -> str:
    """A circuit in the line format that parse_circuit reads: field, qudits and init lines, then one line per gate."""
    lines = [
        f"field {circuit.field.descriptor()}",
        f"qudits {circuit.n_qudits}",
        "init " + " ".join(circuit.init),
    ]
    for g in circuit.gates:
        body = " ".join(str(w) for w in g.wires)
        if g.param is not None:
            body += f" {g.param}"
        lines.append(f"{g.kind} {body}")
    return "\n".join(lines) + "\n"
