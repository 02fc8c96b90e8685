"""Workloads of the quditgraph CLI benchmark.

A workload is one round of CLI ops (argv lists for ``quditgraph.cli.main``)
plus the input files they read, all generated from the seed.  The seed picks
wires, labels, gate order, irreducible polynomials and op order; it never
changes a size, so every seed costs the program the same work.

Input generation uses numpy only: quditgraph receives nothing but the
generated ``.qc``, ``.json`` and ``.state`` files and the argv.  The oracles
(``check_*``) run after the timed loop and may use quditgraph, because they
check its outputs against an independent route through the library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("dense_circuits", "symbolic_circuits", "classify", "verdicts")

# Irreducible polynomial indices (``field p n poly`` descriptors) by (p, n).
# Any index of a monic degree-1 polynomial is irreducible.
POLYS = {(2, 2): [3], (2, 3): [3, 5], (3, 2): [1, 5, 8], (2, 4): [3, 9, 15], (2, 5): [5, 9, 15, 23, 27, 29]}

# Sizes the generators refuse: the program has no guard against them yet.
MAKE_MES_UNSAFE_D = 128     # square_state allocates d^4 amplitudes; d=128 is 4.3 GB
RELATIONS_UNSAFE_D = 25     # dense 3-wire operators of d^6 entries, 4 GB and more
DUAL_CHECK_UNSAFE_D = 32    # d^2 x d^2 conjugation matrices for every label

_DIGITS36 = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass
class Op:
    """One CLI invocation and the oracle for its (exit code, stdout)."""

    verb: str
    argv: list[str]
    check: Optional[Callable[[int, str], Optional[str]]]  # returns None when the output is right

    @property
    def label(self) -> str:
        return " ".join(a if " " not in a else repr(a) for a in self.argv)


@dataclass
class Workload:
    ops: list[Op]
    fields: list[tuple[int, int]]          # fields a CLI call of this workload builds
    probe: list[Op] = field(default_factory=list)  # known-defect ops, run untimed


def _poly(rng, p: int, n: int) -> int:
    return int(rng.choice(POLYS[(p, n)])) if n > 1 else int(rng.integers(p))


def _descriptor(rng, p: int, n: int) -> str:
    return f"{p} {n} {_poly(rng, p, n)}"


# ---------------------------------------------------------------------------
# Input generators (numpy only)
# ---------------------------------------------------------------------------

def _init_pattern(rng, n_wires: int) -> list[str]:
    init = ["0"] * n_wires
    for q in rng.choice(n_wires, size=n_wires // 2, replace=False):
        init[q] = "s"
    return init


def _gate_line(rng, kind: str, n_wires: int, d: int) -> str:
    if kind in "CW":
        a, b = rng.choice(n_wires, size=2, replace=False) + 1
        return f"C {a} {b} {rng.integers(1, d)}" if kind == "C" else f"W {a} {b}"
    wire = rng.integers(1, n_wires + 1)
    if kind in "AD":
        return f"{kind} {wire} {rng.integers(1, d)}"
    return f"{kind} {wire}"


def _kinds(rng, counts: dict[str, int]) -> list[str]:
    return list(rng.permutation([k for k, c in counts.items() for _ in range(c)]))


def circuit_text(rng, p: int, n: int, n_wires: int, gates: int, mix: str) -> str:
    """A seeded circuit file; every seed gives the same gate counts per kind.

    mix "C": generalized CNOTs only.  mix "ADCW": permutation gates.  mix
    "HV": an initial H on two |0> wires and one |s> wire, then A/D/C/V/W
    gates with adjacent H pairs spliced in.  H^2 permutes basis states, so the
    output has exactly d^(N/2 + 1) nonzero amplitudes for every seed and the
    dump cost does not depend on the seed.
    """
    d = p ** n
    init = _init_pattern(rng, n_wires)
    lines = [f"field {_descriptor(rng, p, n)}", f"qudits {n_wires}", "init " + " ".join(init)]
    if mix == "C":
        body = [_gate_line(rng, "C", n_wires, d) for _ in range(gates)]
    elif mix == "ADCW":
        c = gates // 2
        a = d_ = gates // 5
        body = [_gate_line(rng, k, n_wires, d)
                for k in _kinds(rng, {"C": c, "A": a, "D": d_, "W": gates - c - a - d_})]
    elif mix == "HV":
        zeros = [q + 1 for q, t in enumerate(init) if t == "0"]
        ones = [q + 1 for q, t in enumerate(init) if t == "s"]
        first = list(rng.choice(zeros, size=2, replace=False)) + [int(rng.choice(ones))]
        lines += [f"H {q}" for q in first]
        rest = gates - 3
        pairs = max(1, rest // 10)
        v = max(1, rest // 10)
        c = (rest - 2 * pairs - v) // 2
        a = (rest - 2 * pairs - v - c) // 3
        counts = {"P": pairs, "V": v, "C": c, "A": a, "D": a, "W": rest - 2 * pairs - v - c - 2 * a}
        body = []
        for k in _kinds(rng, counts):
            if k == "P":
                wire = rng.integers(1, n_wires + 1)
                body.append(f"H {wire}\nH {wire}")
            else:
                body.append(_gate_line(rng, k, n_wires, d))
    else:
        raise ValueError(f"unknown gate mix {mix!r}")
    return "\n".join(lines + body) + "\n"


def _gf_add(p: int, n: int):
    """Field addition on element indices: digitwise mod p (XOR for p = 2)."""
    if p == 2:
        return np.bitwise_xor
    if n == 1:
        return lambda a, b: (a + b) % p
    raise ValueError("only prime fields and GF(2^m) are generated")


def dump_text(d: int, kets: np.ndarray, amp: float, header: str) -> str:
    """Write a state dump in the CLI's format (d <= 36): one line per ket."""
    lines = [f"# quditgraph-state d={d} qudits={kets.shape[1]}", f"# {header}"]
    lines += [f"{''.join(_DIGITS36[v] for v in row)} {amp!r} 0.0" for row in kets]
    return "\n".join(lines) + "\n"


def non_mes_dump(rng, p: int, n: int, twist: int) -> str:
    """Square state over GF(p^n) with twist 0 or 1, locally relabelled.

    Such a square state is known not to be maximally entangled.  A seeded
    permutation of each party's basis labels is a local unitary, so the
    verdict stays false.
    """
    d = p ** n
    i, k = (a.reshape(-1) for a in np.meshgrid(np.arange(d), np.arange(d), indexing="ij"))
    add = _gf_add(p, n)
    kets = np.stack([i, add(i, k) if twist else i, k, add(i, k)], axis=1)
    perms = np.stack([rng.permutation(d) for _ in range(4)])
    kets = perms[np.arange(4), kets]
    kets = kets[np.lexsort(kets.T[::-1])]
    return dump_text(d, kets, 1.0 / d, f"square twist={twist} relabelled")


def graph_json(rng, p: int, n: int, n_wires: int) -> str:
    """Seeded bipartite graph: N/2 random source wires, each edge present with probability 0.6."""
    d = p ** n
    wires = rng.permutation(n_wires) + 1
    sources = sorted(int(w) for w in wires[: n_wires // 2])
    sinks = sorted(int(w) for w in wires[n_wires // 2:])
    edges = [{"from": i, "to": j, "label": int(rng.integers(1, d))}
             for i in sources for j in sinks if rng.random() < 0.6]
    graph = {"field": {"p": p, "n": n, "poly": _poly(rng, p, n)}, "S": sources, "O": sinks, "edges": edges}
    return json.dumps(graph, indent=1)


# ---------------------------------------------------------------------------
# Oracles.  Each returns None when the output is right, else the reason.
# ---------------------------------------------------------------------------

def _expect_rc(rc: int, want: int) -> Optional[str]:
    return None if rc == want else f"exit code {rc}, expected {want}"


def _parse_dump(text: str):
    from quditgraph.simulator import parse_state_dump
    return parse_state_dump(text)


def check_simulate_symbolic(circuit_path: Path):
    """A/D/C/W circuits: the dump equals the symbolic state's dense amplitudes."""
    def check(rc: int, out: str) -> Optional[str]:
        from quditgraph.rewrite import SymbolicState, parse_circuit
        if rc != 0:
            return _expect_rc(rc, 0)
        amps, _, _ = _parse_dump(out)
        want = SymbolicState.from_circuit(parse_circuit(circuit_path.read_text())).dense_amps()
        dev = float(np.max(np.abs(amps - want)))
        return None if dev <= 1e-12 else f"dump deviates from the symbolic state by {dev:.3e}"
    return check


def inverse_gates(circuit):
    """Gate list undoing a circuit: H^-1 = H^3, V and W are involutions."""
    from quditgraph.simulator import Gate
    fld = circuit.field
    out = []
    for g in reversed(circuit.gates):
        if g.kind in ("A", "C"):
            out.append(Gate(g.kind, g.wires, fld.neg(g.param)))
        elif g.kind == "D":
            out.append(Gate("D", g.wires, fld.inv(g.param)))
        elif g.kind == "H":
            out += [g, g, g]
        else:
            out.append(g)
    return out


def check_simulate_inverse(circuit_path: Path):
    """Circuits with H or V: unit norm, and the inverse circuit restores the register."""
    def check(rc: int, out: str) -> Optional[str]:
        from quditgraph.rewrite import parse_circuit
        from quditgraph.simulator import StateVector, init_state, run_gates
        if rc != 0:
            return _expect_rc(rc, 0)
        amps, _, _ = _parse_dump(out)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-9:
            return f"norm {norm!r} is not 1"
        circuit = parse_circuit(circuit_path.read_text())
        back = run_gates(StateVector(circuit.field, circuit.n_qudits, amps), inverse_gates(circuit))
        start = init_state(circuit.field, circuit.n_qudits, circuit.init)
        dev = float(np.max(np.abs(back.amps - start.amps)))
        return None if dev <= 1e-9 else f"inverse circuit misses the initial register by {dev:.3e}"
    return check


def _graph_from_text(fld, out: str):
    from quditgraph.rewrite import make_graph_state
    rows = dict(line.split(":", 1) for line in out.splitlines() if not line.startswith("edge"))
    edges = [(int(w[1]), int(w[3]), int(w[5])) for w in (line.split() for line in out.splitlines())
             if w and w[0] == "edge"]
    graph = make_graph_state(fld, map(int, rows["S"].split()), map(int, rows["O"].split()), edges)
    return graph, [int(w) for w in rows["permutation"].split()]


def check_normalize(circuit_path: Path, fmt: str, verify: bool):
    """The emitted graph's symbolic state equals the circuit's (states_equal_symbolic)."""
    def check(rc: int, out: str) -> Optional[str]:
        from quditgraph.rewrite import SymbolicState, graph_from_json_dict, parse_circuit, states_equal_symbolic
        if rc != 0:
            return _expect_rc(rc, 0)
        circuit = parse_circuit(circuit_path.read_text())
        if fmt == "json":
            report = json.loads(out)
            graph, perm = graph_from_json_dict(report["graph"]), report["permutation"]
            if verify and not (report["verification"] or {}).get("equal"):
                return "dense verification did not report equal"
        else:
            graph, perm = _graph_from_text(circuit.field, out)
        if list(perm) != list(graph.s_wires + graph.o_wires):
            return "permutation does not list sources before sinks"
        if not states_equal_symbolic(graph.to_symbolic(), SymbolicState.from_circuit(circuit)):
            return "graph state differs from the circuit state"
        return None
    return check


def product_free_count(d: int, k: int, m: int) -> int:
    """k x m matrices over GF(d) with no zero row and no zero column (inclusion-exclusion)."""
    return sum((-1) ** (i + j) * math.comb(k, i) * math.comb(m, j) * d ** ((k - i) * (m - j))
               for i in range(k + 1) for j in range(m + 1))


CLASS_COUNTS = {2: 1, 3: 1, 4: 2, 5: 2}  # acceptance criterion 09


def check_classify(n_qudits: int, d: int):
    """Class count as in acceptance 09, and every class holds all product-free labelings."""
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return _expect_rc(rc, 0)
        report = json.loads(out)
        if report["count"] != CLASS_COUNTS[n_qudits]:
            return f"{report['count']} classes, expected {CLASS_COUNTS[n_qudits]}"
        for cls in report["classes"]:
            want = product_free_count(d, cls["sources"], cls["sinks"])
            if cls["graphs"] != want:
                return f"class |S|={cls['sources']} holds {cls['graphs']} graphs, expected {want}"
        return None
    return check


def check_make_mes(path: Path, d: int):
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return _expect_rc(rc, 0)
        if not out.startswith(f"wrote {path}"):
            return f"unexpected output {out[:80]!r}"
        head = path.read_text().split("\n", 1)[0]
        return None if head == f"# quditgraph-state d={d} qudits=4" else f"bad dump header {head!r}"
    return check


def check_refusal(rc: int, out: str) -> Optional[str]:
    """make-mes for d = 2 mod 4 refuses with exit 1 and ok=false."""
    if rc != 1:
        return _expect_rc(rc, 1)
    return None if json.loads(out)["ok"] is False else "refusal reports ok"


def check_verdict(expected: bool):
    def check(rc: int, out: str) -> Optional[str]:
        bad = _expect_rc(rc, 0 if expected else 1)
        if bad:
            return bad
        return None if json.loads(out)["verdict"] is expected else "verdict disagrees with the exit code"
    return check


def check_dual(rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return _expect_rc(rc, 0)
    return None if json.loads(out)["signature_match"] else "dual signatures differ"


def check_relations(rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return _expect_rc(rc, 0)
    return "a relation failed" if "FAIL" in out else None


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

# (verb, gate mix, p, n, qudits, gates): 2^12 to 2^20 amplitudes, straddling
# the 2 MiB L2 cache of a core (2^17 complex amplitudes).  Op costs step by
# about 1.5x, so the ops at the median and the tail rank do not swap places
# between runs.
DENSE = [
    ("simulate", "HV", 2, 1, 12, 100),
    ("normalize", "C", 2, 2, 7, 60),
    ("simulate", "ADCW", 3, 1, 9, 100),
    ("simulate", "HV", 2, 2, 8, 60),
    ("normalize", "C", 3, 1, 11, 40),
    ("simulate", "HV", 2, 2, 9, 40),
    ("normalize", "C", 2, 1, 19, 20),
    ("simulate", "ADCW", 2, 1, 19, 30),
    ("simulate", "HV", 2, 1, 20, 20),
]

# (p, n, qudits, gates, format): far beyond the 2^24 dense guard.
SYMBOLIC = [
    (2, 1, 24, 500, "json"),
    (3, 1, 32, 1000, "text"),
    (2, 2, 48, 1500, "json"),
    (7, 1, 64, 2000, "text"),
    (2, 3, 96, 3000, "json"),
    (2, 2, 64, 2000, "text"),
    (2, 1, 96, 3000, "json"),
    (2, 3, 40, 1000, "text"),
    (7, 1, 24, 500, "json"),
]

# (qudits, p, n).  GF(5) at N=5 is left out: one call takes about 28 s.  An
# odd op count keeps the pooled median inside one op's samples.
CLASSIFY = [(3, 5, 1), (4, 2, 1), (5, 2, 1), (4, 3, 1), (5, 3, 1), (4, 2, 2), (5, 2, 2), (4, 5, 1), (4, 7, 1)]
CLASSIFY_PROBE = [(6, 2, 1), (6, 3, 1)]  # die on "invariant signature crossed class boundaries"

MES_DIMS = [5, 15, 25, 4, 12, 20, 28, 32]   # odd, and 0 mod 4 up to 32
MES_REFUSED = 6                          # 2 mod 4
NON_MES = [(2, 4), (7, 1)]  # square states over GF(16) and GF(7)
DUAL = [(2, 1, 8), (3, 1, 7), (2, 2, 7), (5, 1, 6), (7, 1, 5), (2, 3, 5), (3, 2, 5)]  # (p, n, qudits)
RELATION_FIELDS = [2, 3, 4, 5, 7, 8, 9]


def _refuse_unsafe() -> None:
    if max(MES_DIMS + [MES_REFUSED]) >= MAKE_MES_UNSAFE_D:
        raise ValueError(f"make-mes with d >= {MAKE_MES_UNSAFE_D} allocates d^4 amplitudes unguarded")
    if max(RELATION_FIELDS) >= RELATIONS_UNSAFE_D:
        raise ValueError(f"relations-test with d >= {RELATIONS_UNSAFE_D} builds operators of 4 GB or more")
    if max(p ** n for p, n, _ in DUAL) >= DUAL_CHECK_UNSAFE_D:
        raise ValueError(f"dual-check with d >= {DUAL_CHECK_UNSAFE_D} builds d^2 x d^2 matrices per label")


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _dense(rng, workdir: Path) -> Workload:
    ops = []
    for i, (verb, mix, p, n, n_wires, gates) in enumerate(DENSE):
        path = _write(workdir / f"dense{i}.qc", circuit_text(rng, p, n, n_wires, gates, mix))
        if verb == "normalize":
            ops.append(Op(verb, ["normalize", str(path), "--verify"], check_normalize(path, "json", True)))
        elif mix == "HV":
            ops.append(Op(verb, ["simulate", str(path)], check_simulate_inverse(path)))
        else:
            ops.append(Op(verb, ["simulate", str(path)], check_simulate_symbolic(path)))
    return Workload(ops, sorted({(p, n) for _, _, p, n, _, _ in DENSE}))


def _symbolic(rng, workdir: Path) -> Workload:
    ops = []
    for i, (p, n, n_wires, gates, fmt) in enumerate(SYMBOLIC):
        path = _write(workdir / f"symbolic{i}.qc", circuit_text(rng, p, n, n_wires, gates, "C"))
        ops.append(Op("normalize", ["normalize", str(path), "--format", fmt], check_normalize(path, fmt, False)))
    return Workload(ops, sorted({(p, n) for p, n, _, _, _ in SYMBOLIC}))


def _classify(rng, workdir: Path) -> Workload:
    def op(n_qudits, p, n, check):
        return Op("classify", ["classify", str(n_qudits), "--field", _descriptor(rng, p, n)], check)
    ops = [op(nq, p, n, check_classify(nq, p ** n)) for nq, p, n in CLASSIFY]
    probe = [op(nq, p, n, None) for nq, p, n in CLASSIFY_PROBE]
    return Workload(ops, sorted({(p, n) for _, p, n in CLASSIFY}), probe)


def _prime_power(d: int) -> tuple[int, int]:
    p = next(f for f in range(2, d + 1) if d % f == 0)
    return p, round(math.log(d, p))


def _verdicts(rng, workdir: Path, seed: int) -> Workload:
    makes = []
    checks = []
    for d in MES_DIMS:
        path = workdir / f"mes{d}.state"
        makes.append(Op("make-mes", ["make-mes", str(d), "--output", str(path)], check_make_mes(path, d)))
        checks.append(Op("verify-mes", ["verify-mes", str(path)], check_verdict(True)))
    makes.append(Op("make-mes", ["make-mes", str(MES_REFUSED)], check_refusal))
    for i, (p, n) in enumerate(NON_MES):
        twist = int(rng.integers(2))
        path = _write(workdir / f"nonmes{i}.state", non_mes_dump(rng, p, n, twist))
        checks.append(Op("verify-mes", ["verify-mes", str(path)], check_verdict(False)))
    for i, (p, n, n_wires) in enumerate(DUAL):
        path = _write(workdir / f"graph{i}.json", graph_json(rng, p, n, n_wires))
        checks.append(Op("dual-check", ["dual-check", str(path)], check_dual))
    fields = ",".join(map(str, RELATION_FIELDS))
    checks.append(Op("relations-test", ["relations-test", "--fields", fields, "--seed", str(seed)], check_relations))
    # each make-mes must precede the verify-mes of its dump
    ops = [makes[i] for i in rng.permutation(len(makes))] + [checks[i] for i in rng.permutation(len(checks))]
    built = {_prime_power(d) for d in RELATION_FIELDS} | {(p, n) for p, n, _ in DUAL}
    built |= {(2, round(math.log2(d & -d))) for d in MES_DIMS if d % 4 == 0}
    return Workload(ops, sorted(built))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload under workdir; the op order is seeded too."""
    _refuse_unsafe()
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "verdicts":
        return _verdicts(rng, workdir, seed)
    wl = {"dense_circuits": _dense, "symbolic_circuits": _symbolic, "classify": _classify}[name](rng, workdir)
    wl.ops = [wl.ops[i] for i in rng.permutation(len(wl.ops))]
    return wl
