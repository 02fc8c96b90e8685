import time

import numpy as np
import pytest

from quditgraph import Field, irreducible_polynomials, is_irreducible

from util import _coeffs, element, field_for, poly_add, poly_mul

# ---------------------------------------------------------------------------
# Reference tables for GF(4) with x^2 + x + 1 (indices 0,1,2,3)
# ---------------------------------------------------------------------------

F4_ADD = np.array([
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
])

F4_MUL = np.array([
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
])


def test_f4_tables_match_reference():
    f4 = Field(2, 2, (1, 1, 1))
    a, b = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert np.array_equal(f4.add_arr(a, b), F4_ADD)
    assert np.array_equal(f4.mul_arr(a, b), F4_MUL)


def test_f4_spec_values():
    f4 = field_for(4)
    assert f4.add(2, 2) == 0
    assert f4.add(2, 3) == 1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.inv(2) == 3


def test_identities_all_small_fields():
    for d in (2, 3, 4, 5, 7, 8, 9):
        fld = field_for(d)
        for a in range(fld.d):
            assert fld.add(a, 0) == a
            assert fld.mul(1, a) == a
            assert fld.mul(0, a) == 0


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _poly_eval(poly, z, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * z + c) % p
    return acc


def test_default_poly_gf8_is_irreducible_by_root_scan():
    f8 = Field(2, 3)
    assert f8.poly == (1, 1, 0, 1)  # x^3 + x + 1
    # independent check: a cubic over Z_2 is reducible iff it has a root
    assert all(_poly_eval(f8.poly, z, 2) != 0 for z in range(2))


def test_prime_field_default_poly_is_x():
    f3 = Field(3, 1)
    assert f3.poly == (0, 1)
    assert all(f3.add(a, b) == (a + b) % 3 for a in range(3) for b in range(3))
    assert all(f3.mul(a, b) == (a * b) % 3 for a in range(3) for b in range(3))


def test_construction_errors():
    with pytest.raises(ValueError):
        Field(4, 1)  # non-prime
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over Z_2
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1))  # wrong degree


def test_supplied_poly_is_respected():
    alt = Field(2, 3, (1, 0, 1, 1))  # x^3 + x^2 + 1
    assert alt.poly_index == 5
    assert alt != Field(2, 3)
    assert alt.mul(alt.inv(5), 5) == 1


def test_irreducible_enumeration_gf8():
    polys = irreducible_polynomials(2, 3)
    assert polys == [(1, 1, 0, 1), (1, 0, 1, 1)]
    assert all(is_irreducible(q, 2) for q in polys)


# ---------------------------------------------------------------------------
# Field axioms
# ---------------------------------------------------------------------------

AXIOM_FIELDS_EXHAUSTIVE = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
AXIOM_FIELDS_RANDOM = [(5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]


@pytest.mark.parametrize("p,n", AXIOM_FIELDS_EXHAUSTIVE)
def test_field_axioms_exhaustive(p, n):
    fld = Field(p, n)
    elems = range(fld.d)
    for a in elems:
        assert fld.add(a, fld.neg(a)) == 0
        if a != 0:
            assert fld.mul(a, fld.inv(a)) == 1
        for b in elems:
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            for c in elems:
                assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
                assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@pytest.mark.parametrize("p,n", AXIOM_FIELDS_RANDOM)
def test_field_axioms_random(p, n):
    fld = Field(p, n)
    rng = np.random.default_rng(7)
    triples = rng.integers(0, fld.d, size=(10_000, 3))
    for a, b, c in triples:
        a, b, c = int(a), int(b), int(c)
        assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
    for a in range(1, fld.d):
        assert fld.mul(a, fld.inv(a)) == 1


ORACLE_FIELDS = [(3, 3), (2, 8), (257, 1), (2, 9), (3, 10), (2, 16), (65521, 1)]


def test_tables_agree_with_manual_polynomial_arithmetic():
    # independent oracle: coefficient convolution + long reduction (tests/util.py)
    for d in (8, 9):
        fld = field_for(d)
        for a in range(d):
            for b in range(d):
                assert fld.add(a, b) == poly_add(fld, a, b)
                assert fld.mul(a, b) == poly_mul(fld, a, b)
    for p, n in ORACLE_FIELDS:
        fld = Field(p, n)
        rng = np.random.default_rng(p + n)
        for a, b in rng.integers(0, fld.d, size=(300, 2)).tolist():
            assert fld.add(a, b) == poly_add(fld, a, b), (fld, a, b)
            assert fld.mul(a, b) == poly_mul(fld, a, b), (fld, a, b)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_mul_matrix_rows_are_products_with_basis_powers(p, n):
    # row j of M_a is the coefficient vector of a * x^j, from long reduction (tests/util.py)
    for poly in irreducible_polynomials(p, n):
        fld = Field(p, n, poly)
        stack = fld.mul_matrix(np.arange(fld.d))
        assert stack.shape == (fld.d, n, n)
        for a in range(fld.d):
            expected = [_coeffs(fld, poly_mul(fld, a, p ** j)) for j in range(n)]
            assert fld.mul_matrix(a).tolist() == stack[a].tolist() == expected, (poly, a)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)] + ORACLE_FIELDS)
def test_exp_hits_every_nonzero_element_once(p, n):
    fld = Field(p, n)
    cycle = fld.exp[: fld.d - 1]
    assert cycle[0] == 1
    assert np.array_equal(np.bincount(cycle, minlength=fld.d), [0] + [1] * (fld.d - 1))
    # exp lists the powers of one element g: g^k * g = g^(k+1)
    g, head = int(fld.exp[1]), cycle[:50].tolist()
    assert [poly_mul(fld, x, g) for x in head] == fld.exp[1 : len(head) + 1].tolist()
    # log[0] lands every product with a zero factor in the zero tail of exp
    assert fld.mul_arr(0, 0) == 0 and fld.mul_arr(0, fld.d - 1) == 0 and fld.mul_arr(fld.d - 1, 0) == 0


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (17, 1), (5, 2)]
                         + ORACLE_FIELDS)
def test_element_one_is_the_unit(p, n):
    # classify's row normalization rests on this: scaling a row by the inverse
    # of its first nonzero label gives the row whose first nonzero label is index 1
    fld = Field(p, n)
    every = np.arange(fld.d)
    assert np.array_equal(fld.mul_arr(1, every), every) and np.array_equal(fld.mul_arr(every, 1), every)
    assert poly_mul(fld, 1, fld.d - 1) == fld.d - 1
    nonzero = every[1:]
    assert np.array_equal(fld.mul_arr(fld.inv_arr(nonzero), nonzero), np.ones(fld.d - 1, dtype=np.int64))


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field_for(5).inv(0)


def test_element_range_checked():
    with pytest.raises(ValueError):
        field_for(4).add(4, 0)


# ---------------------------------------------------------------------------
# Reversal and dot product
# ---------------------------------------------------------------------------

def test_reverse_spec_examples():
    f4 = field_for(4)
    assert f4.reverse(2) == 1
    assert f4.reverse(3) == 3
    f5 = field_for(5)
    assert all(f5.reverse(a) == a for a in range(f5.d))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
def test_reverse_involution_and_dot_invariance(p, n):
    # every field of order up to 64
    fld = Field(p, n)
    for a in range(fld.d):
        assert fld.reverse(fld.reverse(a)) == a
        for b in range(fld.d):
            assert fld.dot(fld.reverse(a), fld.reverse(b)) == fld.dot(a, b)


def test_dot_spec_examples():
    f4 = field_for(4)
    assert f4.dot(3, 3) == 0
    assert f4.dot(2, 3) == 1
    assert all(f4.dot(0, b) == 0 for b in range(f4.d))
    for a in range(f4.d):
        for b in range(f4.d):
            assert f4.dot(a, b) == f4.dot(b, a)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
def test_scaling_and_shift_are_bijections(p, n):
    # a_r * F = F and a_i + F = F as sets, for every a_r != 0 and a_i
    fld = Field(p, n)
    full = set(range(fld.d))
    for a in range(fld.d):
        assert {fld.add(a, x) for x in range(fld.d)} == full
        if a != 0:
            assert {fld.mul(a, x) for x in range(fld.d)} == full


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

def test_descriptor_round_trip():
    for d in (2, 3, 4, 5, 7, 8, 9):
        fld = field_for(d)
        assert Field.from_descriptor(fld.descriptor()) == fld
    assert field_for(4).descriptor() == "2 2 3"


def test_descriptor_errors():
    assert Field.from_descriptor("2 2") == field_for(4)  # poly index optional
    with pytest.raises(ValueError):
        Field.from_descriptor("2")
    with pytest.raises(ValueError):
        Field.from_descriptor("2 2 9")  # poly index out of range
    for text in ("+3 1", "3 1_0", "\u0663 1", "3 1 +0", "3 1.0"):  # int() reads all but the last
        with pytest.raises(ValueError, match="is not an ASCII decimal integer"):
            Field.from_descriptor(text)


@pytest.mark.parametrize("p, n, text", [
    (1000000000000000003, 1, "1000000000000000003 1"),  # trial division by is_prime runs for minutes
    (3, 1000000000, "3 1000000000 0"),  # 3^n alone runs for minutes
    (2, 1000000000, "2 1000000000"),
], ids=["huge-p", "huge-n-with-poly", "huge-n"])
def test_field_bounds_order_before_primality_and_powers(p, n, text):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds supported limit"):
        Field(p, n)
    with pytest.raises(ValueError, match="exceeds supported limit"):
        Field.from_descriptor(text)
    assert time.perf_counter() - t0 < 0.5


def test_of_order():
    for d, (p, n) in {2: (2, 1), 4: (2, 2), 9: (3, 2), 25: (5, 2), 128: (2, 7)}.items():
        assert Field.of_order(d) == Field(p, n)
    for d in (0, 1, 6, 12, 100, 1 << 17):
        with pytest.raises(ValueError):
            Field.of_order(d)


def test_coeff_round_trip():
    for d in (4, 8, 9):
        fld = field_for(d)
        for a in range(fld.d):  # the field's digit table read back by the coefficient oracle
            assert element(fld, fld.digits[a]) == a


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_array_ops_match_scalar_on_every_pair(d):
    fld = field_for(d)
    a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    for arr, scalar in ((fld.add_arr, fld.add), (fld.sub_arr, fld.sub), (fld.mul_arr, fld.mul)):
        want = [[scalar(x, y) for y in range(d)] for x in range(d)]
        assert np.array_equal(arr(a, b), want)
    assert fld.inv_arr(np.arange(d)).tolist() == [0] + [fld.inv(x) for x in range(1, d)]


@pytest.mark.parametrize("p,n", [(257, 1), (2, 9), (3, 6)])
def test_array_ops_match_scalar_untabulated(p, n):
    # fields past the former 256 table cap, against the polynomial oracle
    fld = Field(p, n)
    rng = np.random.default_rng(p + n)
    a, b = rng.integers(0, fld.d, size=(2, 200))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert fld.add_arr(a, b).tolist() == [poly_add(fld, x, y) for x, y in pairs]
    assert [poly_add(fld, c, y) for c, y in zip(fld.sub_arr(a, b).tolist(), b.tolist())] == a.tolist()
    assert fld.mul_arr(a, b).tolist() == [poly_mul(fld, x, y) for x, y in pairs]
    assert [poly_mul(fld, x, y) for x, y in zip(a.tolist(), fld.inv_arr(a).tolist())] == [int(x != 0) for x in a]
    assert fld.inv_arr(0) == 0
    assert {poly_add(fld, x, y) for x, y in enumerate(fld.neg_table.tolist())} == {0}
    # broadcasting, 0-d and empty operands
    assert fld.mul_arr(3, a[:5]).tolist() == [poly_mul(fld, 3, x) for x in a[:5].tolist()]
    assert fld.add_arr(np.int64(5), np.int64(7)) == poly_add(fld, 5, 7)
    assert fld.add_arr(np.zeros(0, dtype=np.int64), 1).shape == (0,)
    assert fld.mul_arr(np.zeros((0, 3), dtype=np.int64), 1).shape == (0, 3)


def test_check_arr():
    fld = field_for(3)
    fld.check_arr(np.array([[0, 1, 2]]))
    fld.check_arr(np.zeros((0, 4), dtype=np.int64))
    for bad in ([[5, 1]], [[-1, 1]]):
        with pytest.raises(ValueError, match="out of range"):
            fld.check_arr(np.array(bad))
