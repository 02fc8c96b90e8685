from itertools import product

import numpy as np
import pytest

from quditgraph import Field, ResourceGuardError, SymbolicState, bipartition_subsets, classify
from quditgraph.rewrite import rank_exponents
from quditgraph.simulator import signature_key

from util import field_for, scalar_rref


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n,expected", [(2, 1), (3, 1), (4, 2), (5, 2)])
def test_class_counts_small_registers(d, n, expected):
    report = classify(field_for(d), n)
    assert report["count"] == expected


def test_two_qudit_class_is_the_entangled_pair():
    report = classify(field_for(3), 2)
    cls = report["classes"][0]
    assert cls["sources"] == 1 and cls["sinks"] == 1
    assert cls["graphs"] == 2  # labels 1 and 2
    assert len(cls["signature_orbits"]) == 1
    assert cls["representative"]["edges"] == [{"from": 1, "to": 2, "label": 1}]


def test_four_qudit_classes_split_into_label_orbits_over_gf3():
    # the two-source class holds several invariant orbits once labels vary:
    # the generic square, the degenerate (twist 1) square family, and the
    # disconnected two-pair layouts
    report = classify(field_for(3), 4)
    by_k = {cls["sources"]: cls for cls in report["classes"]}
    assert len(by_k[1]["signature_orbits"]) == 1
    assert len(by_k[2]["signature_orbits"]) == 3


def test_qubit_four_qudit_orbits():
    report = classify(field_for(2), 4)
    by_k = {cls["sources"]: cls for cls in report["classes"]}
    assert by_k[1]["graphs"] == 1
    assert by_k[2]["graphs"] == 7
    assert len(by_k[2]["signature_orbits"]) == 2


def test_classify_counts_match_duality_bound():
    # class count equals the number of admissible source-set sizes
    for d in (2, 3):
        for n in (2, 3, 4, 5):
            assert classify(field_for(d), n)["count"] == n // 2


@pytest.mark.parametrize("p,n", [(65521, 1), (2, 16)])
def test_two_qudits_over_the_largest_fields(p, n):
    # every nonzero label gives the entangled pair; d - 1 labellings, one class
    fld = Field(p, n)
    report = classify(fld, 2)
    assert report["count"] == 1
    assert report["classes"][0]["graphs"] == fld.d - 1
    assert [o["count"] for o in report["classes"][0]["signature_orbits"]] == [fld.d - 1]


def test_classify_guard_and_validation():
    with pytest.raises(ValueError):
        classify(field_for(2), 1)
    with pytest.raises(ResourceGuardError):
        classify(field_for(9), 9)


def test_classify_deterministic():
    a = classify(field_for(3), 4)
    b = classify(field_for(3), 4)
    assert a == b


def _labelings(d, n):
    """(k, labels, coefficient matrix) of every product-free standard-form graph, in sweep order."""
    for k in range(1, n // 2 + 1):
        for labels in product(range(d), repeat=k * (n - k)):
            grid = np.array(labels, dtype=np.int64).reshape(k, n - k)
            if grid.any(axis=1).all() and grid.any(axis=0).all():
                yield k, list(labels), np.hstack([np.eye(k, dtype=np.int64), grid])


def _partition(keyed):
    """Labelings grouped by key, groups in sorted key order."""
    groups = {}
    for key, item in keyed:
        groups.setdefault(key, []).append(item)
    return [groups[key] for key in sorted(groups)]


@pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3, 4) for n in (2, 3, 4, 5)] + [(5, 3), (5, 4)])
def test_rank_profile_partitions_like_dense_spectra(d, n):
    # dense oracle: rounded RDM spectra of the built state; exact key: the
    # sorted (-rank, |A|) profile classify uses
    fld = field_for(d)
    subsets = bipartition_subsets(n)
    dense, exact = [], []
    by_k = {}
    for k, labels, matrix in _labelings(d, n):
        sym = SymbolicState(fld, n, matrix, np.zeros(n, dtype=np.int64))
        dense.append((signature_key(sym.dense_amps(), d, n), (k, labels)))
        by_k.setdefault(k, []).append((labels, matrix))
    for k, graphs in by_k.items():
        exponents = rank_exponents(fld, np.array([matrix for _, matrix in graphs]), subsets)
        for (labels, _), row in zip(graphs, exponents.tolist()):
            exact.append((tuple(sorted((-d ** e, len(a)) for e, a in zip(row, subsets))), (k, labels)))
    groups = _partition(dense)
    assert _partition(exact) == groups
    reported = [
        (cls["sources"], orbit["count"], orbit["representative_labels"])
        for cls in classify(fld, n)["classes"]
        for orbit in cls["signature_orbits"]
    ]
    from_dense = sorted(((g[0][0], len(g), g[0][1]) for g in groups), key=lambda t: t[0])
    assert reported == from_dense


@pytest.mark.parametrize("d", [2, 3, 4, 9])
def test_rank_exponents_match_scalar_rref(d):
    # e = r_A + r_B - k with r_A, r_B the scalar Gauss-Jordan ranks of the two
    # column blocks; repeated, scaled and zero columns make blocks lose rank
    fld = field_for(d)
    rng = np.random.default_rng(d)
    for n, k in [(2, 1), (3, 2), (4, 2), (5, 3), (6, 4)]:
        mats = rng.integers(d, size=(24, k, n))
        mats[::3, :, -1] = mats[::3, :, 0]
        mats[1::3, :, -1] = fld.mul_arr(int(rng.integers(1, d)), mats[1::3, :, 0])
        mats[2::3, :, n // 2] = 0
        subsets = bipartition_subsets(n)
        got = rank_exponents(fld, mats, subsets)
        assert got.shape == (len(mats), len(subsets))
        for mat, row in zip(mats, got.tolist()):
            for subset, e in zip(subsets, row):
                side_b = [q for q in range(1, n + 1) if q not in subset]
                r_a = len(scalar_rref(fld, mat[:, [q - 1 for q in subset]])[1])
                r_b = len(scalar_rref(fld, mat[:, [q - 1 for q in side_b]])[1])
                assert e == r_a + r_b - k, (mat.tolist(), subset)
