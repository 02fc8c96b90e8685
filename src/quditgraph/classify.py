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
rank fixes its spectrum.  For the standard form [I_k | B] that rank is d^e
with e = rank B[S - A, O & A] + rank B[S & A, O - A], read off the label
block B alone.  Sorted (-rank, |A|) pairs order orbits exactly as sorted
spectra do.  The sweep holds all label blocks of one k as one array and gets
the exponents of every labelling and bipartition from one
rewrite.rank_exponents call, the formula's one owner: it ranks each shape of
sub-block of B once, from a table of all its matrices, unless the shape has
more matrices than sub-blocks (the full block, for one).  The sweep visits at
most 2^16 labellings, the sum over k = 1..N/2 of d^(k(N-k)).  The cost per
labelling grows with N, not with the field's order: measured on a 2-core Xeon,
N = 5 over GF(5) (16250 labellings) takes about 18 ms, some 1.1 us per
labelling, N = 3 over GF(256) (65536) 20 ms, and N = 2 over GF(65521) 8 ms.
"""

from __future__ import annotations

import numpy as np

from .gf import Field
from .rewrite import GraphState, graph_to_json_dict, rank_exponents
from .simulator import ResourceGuardError, bipartition_subsets

LABELLING_LIMIT = 2 ** 16


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_index=True, return_counts=True) of a nonempty 2-d integer array.

    One lexsort over the columns, first column most significant, and a
    comparison of neighbouring sorted rows.  lexsort is stable, so the first
    row of each run is the first occurrence of its key.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.flatnonzero(np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)]))
    return ranked[starts], order[starts], np.diff(np.append(starts, len(rows)))


def classify(fld: Field, n_qudits: int) -> dict:
    """Classify product-free standard-form graph states on n_qudits wires."""
    d = fld.d
    if n_qudits < 2:
        raise ValueError("classification needs at least two qudits")
    if n_qudits > 65:  # k = 1 alone sweeps d^(N - 1) > 2^64 labellings: that power is named, not computed
        raise ResourceGuardError(f"classify {n_qudits} over GF({d}) sweeps at least {d}^{n_qudits - 1} labellings, "
                                 "over the 2^16 guard")
    labellings = 0
    for k in range(1, n_qudits // 2 + 1):
        labellings += d ** (k * (n_qudits - k))
        if labellings > LABELLING_LIMIT:  # stop here: at a huge N the full sum alone is costly
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
        # an isolated source stays in |s>, an isolated sink in |0>
        labels = labels[edge.any(axis=2).all(axis=1) & edge.any(axis=1).all(axis=1)]
        total = len(labels)
        if total == 0:
            continue
        # RDM rank d^e, coded so that codes order like the pairs (-rank, |A|):
        # larger e first, then smaller |A|.
        codes = (n_qudits - rank_exponents(fld, labels.reshape(total, k, n_sinks), subsets)) * n_qudits + sizes
        codes.sort(axis=1)
        # unique rows come out in lexicographic order, i.e. sorted by key
        keys, first, counts = unique_rows(codes)
        for key in map(tuple, keys.tolist()):
            if seen_keys.setdefault(key, k) != k:
                raise RuntimeError("invariant signature crossed class boundaries")
        representative = graph_to_json_dict(GraphState(fld, tuple(range(1, k + 1)), tuple(range(k + 1, n_qudits + 1)),
                                                       np.ones((k, n_sinks), dtype=np.int64)))
        del representative["field"]  # the report names the field once
        classes.append(
            {
                "sources": k,
                "sinks": n_sinks,
                "graphs": total,
                "representative": representative,
                "signature_orbits": [
                    {"count": int(c), "representative_labels": labels[i].tolist()}
                    for c, i in zip(counts, first)
                ],
            }
        )
    return {
        "field": fld.descriptor(),
        "n": n_qudits,
        "count": len(classes),
        "classes": classes,
    }
