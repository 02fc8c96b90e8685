import functools
import re
import sys
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from quditgraph import Field, ResourceGuardError, SymbolicState, bipartition_subsets, classify
from quditgraph.classify import normalized_rows, unique_rows
from quditgraph import rewrite
from quditgraph.rewrite import mat_rref, rank_exponents
from quditgraph.simulator import signature_key

from util import classify_full_sweep, field_for, scalar_rref


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


ORACLE_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 257, 65521]


@pytest.mark.parametrize("d", ORACLE_FIELDS)
def test_classify_equals_the_full_sweep(d):
    # classify ranks one block per orbit of row scaling; the oracle ranks every
    # block.  Reports match whole, and so do the guard and crossing errors.
    fld = field_for(d)
    answered = 0
    for n in range(2, 8):
        try:
            expected = classify_full_sweep(fld, n)
        except (ResourceGuardError, RuntimeError) as error:
            with pytest.raises(Exception) as raised:
                classify(fld, n)
            assert type(raised.value) is type(error) and str(raised.value) == str(error)
        else:
            assert classify(fld, n) == expected
            answered += 1
    assert answered >= 1


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 5), (5, 4), (7, 4), (9, 3)])
def test_classify_ranks_one_block_per_row_scaling_orbit(d, n, monkeypatch):
    # every block ranked has rows whose first nonzero label is 1, in product
    # order, and there are (d - 1)^k times fewer of them than graphs
    classify_module = sys.modules["quditgraph.classify"]  # the package's classify attribute is the function
    fld = field_for(d)
    ranked = []
    real = classify_module.rank_exponents

    def recording(f, blocks, subsets):
        ranked.append(blocks.copy())
        return real(f, blocks, subsets)

    monkeypatch.setattr(classify_module, "rank_exponents", recording)
    report = classify(fld, n)
    assert [blocks.shape[1] for blocks in ranked] == [cls["sources"] for cls in report["classes"]]
    for blocks, cls in zip(ranked, report["classes"]):
        k = cls["sources"]
        assert len(blocks) * (d - 1) ** k == cls["graphs"] == _product_free_count(d, k, n - k)
        rows = blocks.reshape(-1, n - k)
        assert (rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)] == 1).all()
        flat = blocks.reshape(len(blocks), -1).tolist()
        assert flat == sorted(flat) and len(set(map(tuple, flat))) == len(flat)


@pytest.mark.parametrize("d,length", [(2, 1), (2, 4), (3, 1), (3, 3), (4, 4), (5, 2), (7, 3), (9, 2), (16, 3),
                                      (256, 2), (257, 1), (65521, 1)])
def test_normalized_rows_are_the_filtered_product_rows(d, length):
    # the rows of the full product, in order, whose first nonzero label is 1
    rows = np.array(list(product(range(d), repeat=length)), dtype=np.int64)
    want = rows[rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)] == 1]
    got = normalized_rows(d, length)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert len(got) == (d ** length - 1) // (d - 1)


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
        exponents = rank_exponents(fld, np.array([matrix[:, k:] for _, matrix in graphs]), subsets)
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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_rank_exponents_match_scalar_rref(d):
    # e = r_A + r_B - k with r_A, r_B the scalar Gauss-Jordan ranks of the two
    # column blocks of [I_k | B].  Batches of 0, 1 and 30 random blocks reduce
    # most sub-blocks directly; zero rows and columns and repeated and scaled
    # columns of B make their sub-blocks lose rank.  All d^(k(N-k)) labellings
    # at once, where the oracle's cost allows, are a batch in which every
    # sub-block shape is read from its rank table; over GF(2) and GF(3) that
    # includes the full 2 x 3 block of N = 5, k = 2, transposed to 3 x 2.
    fld = field_for(d)
    rng = np.random.default_rng(d)
    rank = functools.cache(lambda columns: len(scalar_rref(fld, np.array(columns, dtype=np.int64).T)[1]))

    def check(blocks, n, k):
        subsets = bipartition_subsets(n)
        got = rank_exponents(fld, blocks, subsets)
        assert got.shape == (len(blocks), len(subsets)) and got.dtype == np.int64
        for block, row in zip(blocks, got.tolist()):
            columns = [tuple(column) for column in np.hstack([np.eye(k, dtype=np.int64), block]).T.tolist()]
            for subset, e in zip(subsets, row):
                r_a = rank(tuple(columns[q - 1] for q in subset))
                r_b = rank(tuple(columns[q - 1] for q in range(1, n + 1) if q not in subset))
                assert e == r_a + r_b - k, (block.tolist(), subset)

    for n, k in [(2, 1), (3, 1), (4, 1), (4, 3), (4, 2), (5, 2), (5, 3), (6, 2), (6, 4), (6, 5), (7, 1), (7, 3)]:
        blocks = rng.integers(d, size=(30, k, n - k))
        blocks[::5, :, -1] = blocks[::5, :, 0]
        blocks[1::5, :, -1] = fld.mul_arr(int(rng.integers(1, d)), blocks[1::5, :, 0])
        blocks[2::5, :, (n - k) // 2] = 0
        blocks[3::5, k // 2, :] = 0
        blocks[4::5, 0, :] = fld.mul_arr(int(rng.integers(1, d)), blocks[4::5, -1, :])
        for batch in (0, 1, 30):
            check(blocks[:batch], n, k)
        every = d ** (k * (n - k))
        if every * 2 ** n <= 2 ** 16:  # the oracle's cost: labellings times cuts
            check(np.indices((d,) * (k * (n - k))).reshape(k * (n - k), every).T.reshape(every, k, n - k), n, k)


def per_sub_block_exponents(fld, blocks, subsets):
    """rank_exponents one sub-block at a time, each rank the pivot count of its mat_rref: the oracle for the stacked form."""
    batch, k, n_sinks = blocks.shape
    out = np.zeros((batch, len(subsets)), dtype=np.int64)
    for j, subset in enumerate(subsets):
        side = set(subset)
        s_in, s_out = [r for r in range(k) if r + 1 in side], [r for r in range(k) if r + 1 not in side]
        o_in = [c for c in range(n_sinks) if k + c + 1 in side]
        o_out = [c for c in range(n_sinks) if k + c + 1 not in side]
        for i, block in enumerate(blocks):
            out[i, j] = sum(len(mat_rref(fld, block[np.ix_(rows, cols)])[1])
                            for rows, cols in ((s_out, o_in), (s_in, o_out)) if rows and cols)
    return out


@pytest.mark.parametrize("d, n, k, batch", [(9, 12, 6, 1), (9, 12, 4, 1), (16, 10, 5, 1), (2, 13, 6, 1), (3, 10, 3, 3),
                                            (5, 9, 4, 2), (7, 8, 4, 4), (4, 11, 3, 1), (3, 11, 8, 1)])
def test_rank_exponents_reduce_each_sub_block_shape_in_one_elimination(d, n, k, batch, monkeypatch):
    # half cuts of one to four labellings: most shapes are ranked directly, all their sub-blocks in one stack
    fld = field_for(d)
    rng = np.random.default_rng(1000 * d + n)
    blocks = rng.integers(d, size=(batch, k, n - k))
    blocks[:, :, -1] = fld.mul_arr(int(rng.integers(d)), blocks[:, :, 0])  # a dependent column
    subsets = list(combinations(range(1, n + 1), n // 2))
    shapes = []
    real = rewrite._eliminate

    def recording(f, m):
        shapes.append(m.shape[1:])
        return real(f, m)

    monkeypatch.setattr(rewrite, "_eliminate", recording)
    got = rank_exponents(fld, blocks, subsets)
    assert len(shapes) == len(set(shapes)) > 1
    assert np.array_equal(got, per_sub_block_exponents(fld, blocks, subsets))


@pytest.mark.parametrize("d, n, k, batch", [(3, 7, 1, 1), (5, 6, 5, 1), (4, 7, 2, 1), (7, 6, 4, 3), (16, 8, 1, 5),
                                            (2, 9, 8, 1)])
def test_rank_exponents_read_one_row_and_one_column_sub_blocks_without_elimination(d, n, k, batch, monkeypatch):
    # a sub-block with one row or one column has rank 1 exactly when one entry is
    # nonzero: no _eliminate call has such a shape, and every cut is ranked
    fld = field_for(d)
    rng = np.random.default_rng(7 * d + n)
    blocks = rng.integers(d, size=(batch, k, n - k))
    blocks[0, 0, :] = 0  # a zero row, and a zero column where there are two or more rows
    if k > 1:
        blocks[-1, :, -1] = 0
    subsets = [subset for size in range(n + 1) for subset in combinations(range(1, n + 1), size)]
    shapes = []
    real = rewrite._eliminate

    def recording(f, m):
        shapes.append(m.shape[1:])
        return real(f, m)

    monkeypatch.setattr(rewrite, "_eliminate", recording)
    got = rank_exponents(fld, blocks, subsets)
    assert all(min(shape) >= 2 for shape in shapes)
    assert (not shapes) == (min(k, n - k) == 1)
    assert np.array_equal(got, per_sub_block_exponents(fld, blocks, subsets))


def test_rank_exponents_past_one_byte():
    # exponents above 255 need more than the one byte that smaller blocks are counted in
    fld = field_for(2)
    got = rank_exponents(fld, np.eye(300, dtype=np.int64)[None], [tuple(range(1, 301)), (1, 301), (1, 302)])
    assert got.tolist() == [[300, 0, 2]] and got.dtype == np.int64


def test_rank_exponents_rejects_bad_input():
    fld = field_for(3)
    with pytest.raises(ValueError):
        rank_exponents(fld, np.array([[1, 2]]), [(1,)])  # not a stack of blocks
    with pytest.raises(ValueError):
        rank_exponents(fld, np.array([[[1, 3]]]), [(1,)])  # label outside GF(3)
    for subsets in ([(4,)], [(1, 2), (0,)], [(2,), (3, -1)], [(1,), (2, 3, 4)]):  # a wire outside 1..3
        bad = next(subset for subset in subsets if not set(subset) <= {1, 2, 3})
        with pytest.raises(ValueError, match=f"^subset {re.escape(str(tuple(bad)))} names a wire outside 1..3$"):
            rank_exponents(fld, np.array([[[1, 2]]]), subsets)


def _product_free_count(d, k, m):
    """k x m matrices over GF(d) with no zero row and no zero column, by inclusion-exclusion."""
    return sum((-1) ** (i + j) * comb(k, i) * comb(m, j) * d ** ((k - i) * (m - j))
               for i in range(k + 1) for j in range(m + 1))


@pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3, 4, 5) for n in (2, 3, 4, 5)] + [(7, 4), (8, 4), (9, 4)])
def test_class_sizes_match_product_free_count(d, n):
    # an independent count: every class holds all k x (N-k) label blocks
    # with no isolated source (zero row) and no isolated sink (zero column)
    report = classify(field_for(d), n)
    assert [cls["sources"] for cls in report["classes"]] == list(range(1, n // 2 + 1))
    for cls in report["classes"]:
        assert cls["graphs"] == _product_free_count(d, cls["sources"], cls["sinks"])
        assert sum(orbit["count"] for orbit in cls["signature_orbits"]) == cls["graphs"]


@pytest.mark.parametrize("shape, high", [((1, 1), 3), ((1, 5), 4), ((40, 1), 3), ((25, 3), 1), ((300, 4), 2),
                                         ((1000, 6), 3), ((60, 2), 10 ** 6)])
def test_unique_rows_matches_np_unique(shape, high):
    # keys in lexicographic order, the first index of each key and its count, as np.unique gives them
    rows = np.random.default_rng(shape[0] * high).integers(0, high, size=shape)
    want = np.unique(rows, axis=0, return_index=True, return_counts=True)
    got = unique_rows(rows)
    for w, g in zip(want, got):
        assert w.dtype == g.dtype and np.array_equal(w, g)
