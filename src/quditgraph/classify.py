"""Classification of standard-form graph states at small N.

Duality lets the enumeration fix the source side as the smaller one, so only
source-set sizes k = 1 .. floor(N/2) occur, and particle permutations let it
fix the sources as wires 1..k.  Every labeling of the k x (N-k) edge matrix
is swept, keeping graphs where no qudit stays in a product state (no
isolated vertex).

Each k is one class of the reported table - that is the granularity at which
the families of entangled types live (sweeping all labels of one class stays
within it).  That no local-unitary move crosses classes is a premise checked
at run time (RuntimeError when an invariant recurs in another class); it is
known to fail at N >= 6.  Within a class the enumeration additionally buckets
the label assignments by an exact local-unitary invariant and reports those
orbits, since for some fields the labels split a class into several invariant
orbits (the square with twist 1 is not equivalent to the square with twist 2
over GF(3), for instance).  That finer structure is data, not a class count.

The invariant is the RDM rank profile, with no tolerance and no dense state:
a graph state is uniform over an affine space, so each RDM is flat and one
rank (symbolic_rdm_rank) fixes its spectrum.  Sorted (-rank, |A|) pairs order
orbits exactly as sorted spectra do.
The guard bounds what the sweep visits: at most 2^16 labellings, the sum
over k = 1..N/2 of d^(k(N-k)) (about 40 s at 0.65 ms each, as measured for N = 5
over GF(5)).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .entangle import symbolic_rdm_rank
from .gf import Field
from .rewrite import SymbolicState
from .simulator import ResourceGuardError, bipartition_subsets

LABELLING_LIMIT = 2 ** 16


def classify(fld: Field, n_qudits: int) -> dict:
    """Classify product-free standard-form graph states on n_qudits wires."""
    d = fld.d
    if n_qudits < 2:
        raise ValueError("classification needs at least two qudits")
    labellings = 0
    for k in range(1, n_qudits // 2 + 1):
        labellings += d ** (k * (n_qudits - k))
        if labellings > LABELLING_LIMIT:  # stop here: at a huge N the full sum alone is costly
            shown = labellings if labellings < 10 ** 12 else f"2^{labellings.bit_length() - 1}"
            raise ResourceGuardError(f"classify {n_qudits} over GF({d}) sweeps at least {shown} labellings, over the 2^16 guard")
    subsets = bipartition_subsets(n_qudits)
    classes = []
    seen_keys: dict[tuple, int] = {}
    for k in range(1, n_qudits // 2 + 1):
        n_sinks = n_qudits - k
        orbits: dict[tuple, dict] = {}
        total = 0
        for labels in product(range(d), repeat=k * n_sinks):
            grid = np.array(labels, dtype=np.int64).reshape(k, n_sinks)
            if any(not grid[i].any() for i in range(k)):
                continue  # isolated source vertex: its qudit stays in |s>
            if any(not grid[:, j].any() for j in range(n_sinks)):
                continue  # isolated sink vertex: its qudit stays in |0>
            matrix = np.hstack([np.eye(k, dtype=np.int64), grid])
            sym = SymbolicState(fld, n_qudits, matrix, np.zeros(n_qudits, dtype=np.int64))
            key = tuple(sorted((-symbolic_rdm_rank(sym, a), len(a)) for a in subsets))
            if key in seen_keys and seen_keys[key] != k:
                raise RuntimeError("invariant signature crossed class boundaries")
            seen_keys[key] = k
            entry = orbits.get(key)
            if entry is None:
                orbits[key] = {"count": 1, "representative_labels": [int(v) for v in labels]}
            else:
                entry["count"] += 1
            total += 1
        if total == 0:
            continue
        rep_edges = [
            {"from": i + 1, "to": k + j + 1, "label": 1}
            for i in range(k)
            for j in range(n_sinks)
        ]
        classes.append(
            {
                "sources": k,
                "sinks": n_sinks,
                "graphs": total,
                "representative": {"S": list(range(1, k + 1)), "O": list(range(k + 1, n_qudits + 1)), "edges": rep_edges},
                "signature_orbits": [
                    {"count": orbits[key]["count"], "representative_labels": orbits[key]["representative_labels"]}
                    for key in sorted(orbits)
                ],
            }
        )
    return {
        "field": fld.descriptor(),
        "n": n_qudits,
        "count": len(classes),
        "classes": classes,
    }
