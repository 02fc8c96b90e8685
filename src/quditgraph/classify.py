"""Classification of standard-form graph states at small N.

Duality lets the enumeration fix the source side as the smaller one, so only
source-set sizes k = 1 .. floor(N/2) occur, and particle permutations let it
fix the sources as wires 1..k.  Every labeling of the k x (N-k) edge matrix
counts, keeping graphs where no qudit stays in a product state (no isolated
vertex), but the sweep ranks one block per orbit of source scaling.  D(lambda)
on source wire i is a local unitary that scales row i of the block B by
lambda and keeps every RDM rank.  On product-free blocks, whose rows are all
nonzero, the (d - 1)^k scalings act freely, so each orbit holds exactly
(d - 1)^k blocks, and its first block in itertools.product order (last label
fastest) is the one whose every row has first nonzero label 1, since element
index 1 is the field's unit and 0 the only smaller index.  The sweep lists
just those row-normalized blocks, in product order, built from the
row-normalized rows (normalized_rows lists them directly, never the other
d^(N-k) - (d^(N-k) - 1)/(d - 1) rows), and multiplies every
class and orbit count by (d - 1)^k: counts, orbit order and
representative_labels equal those of the full sweep (over GF(2) the sweep is
the full one), with (d - 1)^k times fewer blocks ranked.

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
spectra do.  The sweep holds the swept label blocks of one k as one array
and gets the exponents of every block and bipartition from one
rewrite.rank_exponents call, the formula's one owner: it reads one-row and
one-column sub-blocks as "is any entry nonzero" and ranks each larger shape
of sub-block of B once, from a table of all its matrices, unless the shape
has more matrices than sub-blocks (the full block, for one).  The 2^16 guard
counts the labellings a sweep stands for, the sum over k = 1..N/2 of
d^(k(N-k)), not the blocks it ranks, so the same inputs are refused as by a
full sweep.  Measured in process on a 2-core Xeon: N = 5 over GF(5) (16250
labellings, 920 blocks ranked) takes about 2.8 ms against 24 ms for the full
sweep in the same session; N = 3 over GF(256) (65536 labellings) takes
0.22 ms and N = 2 over GF(65521) 0.14 ms, against 2.5 ms and 1.2 ms when
the rows were filtered from all d^(N-k) rows.
"""

from __future__ import annotations

import numpy as np

from .gf import Field
from .rewrite import rank_exponents
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


def normalized_rows(d: int, length: int) -> np.ndarray:
    """Every row of length labels over GF(d) whose first nonzero label is 1, in lexicographic order.

    Listed directly, not filtered from all d^length rows.  Read as base-d
    numbers, these rows are the integers in [d^t, 2 d^t) for t = 0 ..
    length - 1: a leading 1 with t free digits after it, the blocks running
    from most leading zeros to fewest.
    """
    starts = d ** np.arange(length)
    numbers = np.concatenate([np.arange(start, 2 * start) for start in starts.tolist()])
    return numbers[:, None] // starts[::-1] % d


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
        # one block per orbit of row scaling: every row's first nonzero label is 1
        rows = normalized_rows(d, n_sinks)
        # their k-row blocks in itertools.product order (last label fastest)
        labels = rows[np.indices((len(rows),) * k).reshape(k, -1).T].reshape(-1, k * n_sinks)
        # an isolated sink stays in |0> (no row is zero, so no source is isolated)
        labels = labels[(labels.reshape(-1, k, n_sinks) != 0).any(axis=1).all(axis=1)]
        total = len(labels)  # at least 1: the all-ones block is row-normalized and product-free
        orbit = (d - 1) ** k  # the blocks each swept block stands for
        # RDM rank d^e, coded so that codes order like the pairs (-rank, |A|):
        # larger e first, then smaller |A|.
        codes = (n_qudits - rank_exponents(fld, labels.reshape(total, k, n_sinks), subsets)) * n_qudits + sizes
        codes.sort(axis=1)
        # unique rows come out in lexicographic order, i.e. sorted by key
        keys, first, counts = unique_rows(codes)
        for key in map(tuple, keys.tolist()):
            if seen_keys.setdefault(key, k) != k:
                raise RuntimeError("invariant signature crossed class boundaries")
        # the all-ones block as graph_to_json_dict writes it, without "field": the report names the field once
        sources, sinks = list(range(1, k + 1)), list(range(k + 1, n_qudits + 1))
        representative = {"S": sources, "O": sinks,
                          "edges": [{"from": i, "to": j, "label": 1} for i in sources for j in sinks]}
        classes.append(
            {
                "sources": k,
                "sinks": n_sinks,
                "graphs": total * orbit,
                "representative": representative,
                "signature_orbits": [
                    {"count": int(c) * orbit, "representative_labels": labels[i].tolist()}
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
