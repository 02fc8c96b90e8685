"""Shared helpers for the test suite."""

from __future__ import annotations

import functools

import numpy as np

from quditgraph import Circuit, Field, Gate

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
