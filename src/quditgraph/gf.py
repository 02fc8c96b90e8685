"""Finite-field arithmetic GF(p^n) with integer-indexed elements.

An element is a polynomial c_0 + c_1*x + ... + c_{n-1}*x^{n-1} over Z_p,
reduced modulo a monic irreducible polynomial of degree n.  The canonical
external representation is the integer index

    e = sum_i c_i * p**i  in  [0, p**n),

so index 0 is the additive unit and index 1 the multiplicative unit.
Coefficient vectors are listed lowest degree first.

When no polynomial is supplied, the monic irreducible polynomial with the
smallest index (its non-leading coefficients read as a base-p integer) is
chosen, which is deterministic across runs.  For GF(4) this is x^2 + x + 1
and its addition and multiplication are

    +  0 1 2 3        *  0 1 2 3
    0  0 1 2 3        0  0 0 0 0
    1  1 0 3 2        1  0 1 2 3
    2  2 3 0 1        2  0 2 3 1
    3  3 2 1 0        3  0 3 1 2

For GF(8) the default is x^3 + x + 1.

Every field, of any order up to 2^16, carries the same O(d) tables: the
base-p digits of each element, its negative, inverse and coefficient
reversal, and exp/log of a primitive element g, built by doubling (the
powers g^m .. g^(2m-1) are g^0 .. g^(m-1) times g^m, a Z_p-linear map on
coefficient vectors).  A product is one gather, exp[log a + log b]; a sum is
XOR of the indices for p = 2 and digitwise addition mod p otherwise, a
single digit for a prime field.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

ORDER_LIMIT = 1 << 16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over Z_p.  Polynomials are tuples of coefficients,
# lowest degree first, with no trailing zeros (except the zero polynomial).
# ---------------------------------------------------------------------------

def _poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m."""
    r = list(a)
    dm = len(m) - 1
    for shift in range(len(r) - 1 - dm, -1, -1):
        lead = r[shift + dm]
        if lead:
            for i, mi in enumerate(m):
                r[shift + i] = (r[shift + i] - lead * mi) % p
    return _poly_trim(r[:dm])


def _poly_from_index(idx: int, p: int, degree: int) -> tuple[int, ...]:
    """Monic polynomial of the given degree whose low coefficients encode idx base p."""
    coeffs = []
    for _ in range(degree):
        coeffs.append(idx % p)
        idx //= p
    coeffs.append(1)
    return tuple(coeffs)


def _poly_index(poly: Sequence[int], p: int) -> int:
    idx = 0
    for c in reversed(poly[:-1]):
        idx = idx * p + c
    return idx


def _monic(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Every monic polynomial of the given degree over Z_p, by index order."""
    return (_poly_from_index(idx, p, degree) for idx in range(p ** degree))


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    poly = _poly_trim(poly)
    deg = len(poly) - 1
    if deg < 1 or poly[-1] != 1:
        return False
    if deg == 1:
        return True
    for div_deg in range(1, deg // 2 + 1):
        for div in _monic(p, div_deg):
            if not _poly_mod(poly, div, p):  # div divides poly
                return False
    return True


def default_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree n with the smallest index."""
    return next(poly for poly in _monic(p, n) if is_irreducible(poly, p))


def irreducible_polynomials(p: int, n: int) -> list[tuple[int, ...]]:
    """All monic irreducible polynomials of degree n over Z_p, by index order."""
    return [poly for poly in _monic(p, n) if is_irreducible(poly, p)]


def _ascii_int(text: str) -> int:
    """An optional '-' and ASCII decimal digits as an int; int()'s '+', '_' and other scripts raise ValueError.

    The one reader of the integers a user writes: field descriptors, the
    header and gate lines of a circuit file, dump headers and the CLI's
    integer arguments.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"{text!r} is not an ASCII decimal integer")
    return int(text)


def _field_order(p: int, n: int) -> int:
    """p^n, or ValueError unless p is prime, n >= 1 and p^n <= ORDER_LIMIT."""
    if not all(isinstance(v, (int, np.integer)) for v in (p, n)) or n < 1:
        raise ValueError(f"need an integer p and a positive integer degree n, got {p!r} and {n!r}")
    p, n = int(p), int(n)
    # p^n >= 2^n: p and n are bounded before is_prime and the power, which take unbounded time
    if p > ORDER_LIMIT or n >= ORDER_LIMIT.bit_length() or p ** n > ORDER_LIMIT:
        raise ValueError(f"field order {p}^{n} exceeds supported limit {ORDER_LIMIT}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    return p ** n


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

class Field:
    """GF(p^n) with elements addressed by integer index.

    Parameters
    ----------
    p : prime characteristic.
    n : extension degree, at least 1.
    poly : optional monic irreducible polynomial of degree n over Z_p,
        coefficients lowest degree first (length n + 1, last entry 1).
        Defaults to the smallest-index monic irreducible polynomial.
    """

    def __init__(self, p: int, n: int, poly: Optional[Sequence[int]] = None):
        d = _field_order(p, n)
        p, n = int(p), int(n)
        if poly is None:
            poly = default_irreducible(p, n)
        else:
            poly = tuple(int(c) % p for c in poly)
            if len(_poly_trim(poly)) != n + 1 or poly[-1] != 1:
                raise ValueError("poly must be monic of degree n")
            if not is_irreducible(poly, p):
                raise ValueError(f"polynomial {poly} is reducible over Z_{p}")
        self.p = p
        self.n = n
        self.d = d
        self.poly = tuple(poly)
        self.poly_index = _poly_index(self.poly, p)
        self._build_tables()

    # -- tables --------------------------------------------------------------

    def _build_tables(self) -> None:
        """The O(d) tables behind every operation.

        exp[k] = g^k for a primitive element g, listed twice (k < 2(d-1)) and
        followed by a zero tail; log inverts it, with log[0] = 2(d-1), so that
        exp[log a + log b] is the product, zero whenever a factor is.
        """
        d, p, n = self.d, self.p, self.n
        self.powers = p ** np.arange(n, dtype=np.int64)
        # mod_p[s] = s mod p for -p <= s < 2p, negative s indexing from the end:
        # every digit sum and difference lands in that range
        self.mod_p = np.arange(2 * p, dtype=np.int64) % p
        # digits[e, i] = c_i; np.indices counts with its last axis fastest, like c_0
        self.digits = np.indices((p,) * n, dtype=np.int64).reshape(n, d)[::-1].T.copy()
        self.neg_table = self.sub_arr(0, np.arange(d))
        self.reverse_table = self.digits[:, ::-1] @ self.powers

        # x^k mod poly for k < 2n - 1, as [i, j * n + l] -> coefficient l of
        # x^(i+j): mul_matrix reads it
        xpow = np.zeros((2 * n - 1, n), dtype=np.int64)
        for k in range(2 * n - 1):
            rem = _poly_mod([0] * k + [1], self.poly, p)
            xpow[k, : len(rem)] = rem
        self._shifted_xpow = xpow[np.add.outer(np.arange(n), np.arange(n))].reshape(n, n * n)

        def power(h: int, e: int) -> int:
            row, t = self.digits[1], self.mul_matrix(h)
            while e:
                if e & 1:
                    row = row @ t % p
                t = t @ t % p
                e >>= 1
            return int(row @ self.powers)

        # g is primitive iff g^((d-1)/q) != 1 for every prime q dividing d - 1
        factors = [q for q in range(2, d) if (d - 1) % q == 0 and is_prime(q)]
        g = next(h for h in range(1, d) if all(power(h, (d - 1) // q) != 1 for q in factors))
        # g^k for k < d - 1 by doubling: block [m, 2m) is block [0, m) times g^m
        rows = np.zeros((d - 1, n), dtype=np.int64)
        rows[0, 0] = 1
        m, t = 1, self.mul_matrix(g)
        while m < d - 1:
            take = min(m, d - 1 - m)
            rows[m : m + take] = rows[:take] @ t % p
            t = t @ t % p
            m *= 2
        cycle = rows @ self.powers
        self.exp = np.zeros(4 * d - 3, dtype=np.int64)
        self.exp[: d - 1] = self.exp[d - 1 : 2 * d - 2] = cycle
        self.log = np.empty(d, dtype=np.int64)
        self.log[cycle] = np.arange(d - 1)
        self.log[0] = 2 * (d - 1)
        self.inv_table = np.zeros(d, dtype=np.int64)
        self.inv_table[cycle] = self.exp[d - 1 : 0 : -1]  # 1 / g^k = g^(d-1-k)

    def mul_matrix(self, a) -> np.ndarray:
        """The n x n Z_p matrix M_a of multiplication by a: row j is the coefficients of a x^j.

        Multiplication is Z_p-linear on coefficient rows, digits[a e] =
        digits[e] @ M_a mod p.  An array of labels gives a (..., n, n) stack.
        """
        coeffs = self.digits[a]
        return (coeffs @ self._shifted_xpow).reshape(coeffs.shape[:-1] + (self.n, self.n)) % self.p

    def _check(self, *elems: int) -> None:
        for e in elems:
            if not 0 <= e < self.d:
                raise ValueError(f"element index {e} out of range for order-{self.d} field")

    def check_arr(self, a: np.ndarray) -> None:
        """Raise ValueError unless every entry of the array is an element index."""
        if a.size and (a.min() < 0 or a.max() >= self.d):
            bad = a[(a < 0) | (a >= self.d)].flat[0]
            raise ValueError(f"element index {bad} out of range for order-{self.d} field")

    # -- array arithmetic -----------------------------------------------------
    #
    # Elementwise over broadcast integer arrays.  They do not range-check:
    # callers validate their inputs once with check_arr, since a check per
    # call would cost as much as the operation.

    def add_arr(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.n == 1:
            return self.mod_p[np.add(a, b)]
        return self.mod_p[self.digits[a] + self.digits[b]] @ self.powers

    def sub_arr(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.n == 1:
            return self.mod_p[np.subtract(a, b)]
        return self.mod_p[self.digits[a] - self.digits[b]] @ self.powers

    def mul_arr(self, a, b) -> np.ndarray:
        return self.exp[self.log[a] + self.log[b]]

    def inv_arr(self, a) -> np.ndarray:
        """Inverses, with 0 mapped to 0 rather than raising."""
        return self.inv_table[a]

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_arr(a, b))

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.sub_arr(a, b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.mul_arr(a, b))

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def dot(self, a: int, b: int) -> int:
        """Coefficientwise dot product sum_i a_i b_i mod p (an integer in Z_p)."""
        self._check(a, b)
        return int(self.digits[a] @ self.digits[b] % self.p)

    def reverse(self, a: int) -> int:
        """Coefficient reversal: result coefficient n-1-k equals a's coefficient k."""
        self._check(a)
        return int(self.reverse_table[a])

    # -- descriptor -----------------------------------------------------------

    def descriptor(self) -> str:
        """Textual form `p n poly_index`."""
        return f"{self.p} {self.n} {self.poly_index}"

    @classmethod
    def of_order(cls, d: int) -> "Field":
        """GF(d) with its default polynomial; raises ValueError unless d is a prime power."""
        if d > ORDER_LIMIT:
            raise ValueError(f"field order {d} exceeds supported limit {ORDER_LIMIT}")
        if d >= 2:
            p = next(q for q in range(2, d + 1) if d % q == 0)
            n, m = 0, d
            while m % p == 0:
                m //= p
                n += 1
            if m == 1:
                return cls(p, n)
        raise ValueError(f"{d} is not a prime power")

    @classmethod
    def from_descriptor(cls, text: str) -> "Field":
        parts = text.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"field descriptor must be 'p n [poly_index]', got {text!r}")
        p, n, *index = map(_ascii_int, parts)
        if index and not 0 <= index[0] < _field_order(p, n):
            raise ValueError(f"polynomial index {index[0]} out of range in field descriptor {text!r}")
        return cls(p, n, _poly_from_index(index[0], p, n) if index else None)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.n, self.poly) == (other.p, other.n, other.poly)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.poly))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, n={self.n}, poly_index={self.poly_index})"
