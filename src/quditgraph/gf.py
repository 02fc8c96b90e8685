"""Finite-field arithmetic GF(p^n) with integer-indexed elements.

An element is a polynomial c_0 + c_1*x + ... + c_{n-1}*x^{n-1} over Z_p,
reduced modulo a monic irreducible polynomial of degree n.  The canonical
external representation is the integer index

    e = sum_i c_i * p**i  in  [0, p**n),

so index 0 is the additive unit and index 1 the multiplicative unit.
Coefficient tuples (low degree first) are the internal representation.

When no polynomial is supplied, the monic irreducible polynomial with the
smallest index (its non-leading coefficients read as a base-p integer) is
chosen, which is deterministic across runs.  For GF(4) this is x^2 + x + 1
and the resulting tables are

    +  0 1 2 3        *  0 1 2 3
    0  0 1 2 3        0  0 0 0 0
    1  1 0 3 2        1  0 1 2 3
    2  2 3 0 1        2  0 2 3 1
    3  3 2 1 0        3  0 3 1 2

For GF(8) the default is x^3 + x + 1.

Fields with order up to 256 carry dense lookup tables; larger fields (up to
2^16) compute on the fly.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

TABLE_LIMIT = 256
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
    while len(_poly_trim(r)) - 1 >= dm:
        r = list(_poly_trim(r))
        shift = len(r) - 1 - dm
        lead = r[-1]
        for i, mi in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * mi) % p
    return _poly_trim(r)


def _poly_divides(div: Sequence[int], a: Sequence[int], p: int) -> bool:
    return len(_poly_mod(a, div, p)) == 0


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


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    poly = _poly_trim(poly)
    deg = len(poly) - 1
    if deg < 1 or poly[-1] != 1:
        return False
    if deg == 1:
        return True
    for div_deg in range(1, deg // 2 + 1):
        for idx in range(p ** div_deg):
            div = _poly_from_index(idx, p, div_deg)
            if _poly_divides(div, poly, p):
                return False
    return True


def default_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree n with the smallest index."""
    for idx in range(p ** n):
        poly = _poly_from_index(idx, p, n)
        if is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible polynomial found for p={p}, n={n}")


def irreducible_polynomials(p: int, n: int) -> list[tuple[int, ...]]:
    """All monic irreducible polynomials of degree n over Z_p, by index order."""
    out = []
    for idx in range(p ** n):
        poly = _poly_from_index(idx, p, n)
        if is_irreducible(poly, p):
            out.append(poly)
    return out


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
        if not isinstance(p, (int, np.integer)) or not is_prime(int(p)):
            raise ValueError(f"p must be prime, got {p!r}")
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"extension degree must be a positive integer, got {n!r}")
        p, n = int(p), int(n)
        d = p ** n
        if d > ORDER_LIMIT:
            raise ValueError(f"field order {d} exceeds supported limit {ORDER_LIMIT}")
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

        # Reduction table: x^k mod poly as coefficient rows, k = 0..2n-2.
        self._xpow = np.zeros((2 * n - 1, n), dtype=np.int64)
        for k in range(2 * n - 1):
            rem = _poly_mod([0] * k + [1], self.poly, p)
            for i, c in enumerate(rem):
                self._xpow[k, i] = c

        self._has_tables = d <= TABLE_LIMIT
        if self._has_tables:
            self._build_tables()

    # -- representation -----------------------------------------------------

    def coeffs(self, e: int) -> tuple[int, ...]:
        """Coefficient vector (length n, lowest degree first) of element e."""
        self._check(e)
        out = []
        for _ in range(self.n):
            out.append(e % self.p)
            e //= self.p
        return tuple(out)

    def element(self, coeffs: Iterable[int]) -> int:
        """Element index from a coefficient vector."""
        coeffs = list(coeffs)
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        e = 0
        for c in reversed(coeffs):
            e = e * self.p + (int(c) % self.p)
        return e

    def elements(self) -> range:
        return range(self.d)

    def _check(self, *elems: int) -> None:
        for e in elems:
            if not 0 <= e < self.d:
                raise ValueError(f"element index {e} out of range for order-{self.d} field")

    def check_arr(self, a: np.ndarray) -> None:
        """Raise ValueError unless every entry of the array is an element index."""
        if a.size and (a.min() < 0 or a.max() >= self.d):
            bad = a[(a < 0) | (a >= self.d)].flat[0]
            raise ValueError(f"element index {bad} out of range for order-{self.d} field")

    # -- tables --------------------------------------------------------------

    def _build_tables(self) -> None:
        d, p, n = self.d, self.p, self.n
        cmat = np.zeros((d, n), dtype=np.int64)
        for e in range(d):
            v, k = e, 0
            while v:
                cmat[e, k] = v % p
                v //= p
                k += 1
        powers = p ** np.arange(n, dtype=np.int64)

        add_c = (cmat[:, None, :] + cmat[None, :, :]) % p
        self.add_table = (add_c @ powers).astype(np.int64)
        self.neg_table = ((-cmat) % p @ powers).astype(np.int64)
        self.sub_table = self.add_table[:, self.neg_table]

        mul = np.zeros((d, d), dtype=np.int64)
        for a in range(d):
            ca = cmat[a]
            for b in range(a, d):
                conv = np.convolve(ca, cmat[b]) % p
                red = (conv @ self._xpow[: len(conv)]) % p
                v = int(red @ powers)
                mul[a, b] = v
                mul[b, a] = v
        self.mul_table = mul

        self.inv_table = np.zeros(d, dtype=np.int64)
        for a in range(1, d):
            hits = np.where(mul[a] == 1)[0]
            if hits.size != 1:
                raise RuntimeError("multiplication table is not a group on nonzero elements")
            self.inv_table[a] = hits[0]

        self.reverse_table = (cmat[:, ::-1] @ powers).astype(np.int64)
        self.dot_table = (cmat @ cmat.T) % p

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self._has_tables:
            return int(self.add_table[a, b])
        return self.element((np.array(self.coeffs(a)) + self.coeffs(b)) % self.p)

    def neg(self, a: int) -> int:
        self._check(a)
        if self._has_tables:
            return int(self.neg_table[a])
        return self.element((-np.array(self.coeffs(a))) % self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if self._has_tables:
            return int(self.mul_table[a, b])
        conv = np.convolve(self.coeffs(a), self.coeffs(b)) % self.p
        red = (conv @ self._xpow[: len(conv)]) % self.p
        return self.element(red)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._has_tables:
            return int(self.inv_table[a])
        # a^(d-2) by square and multiply
        result, base, k = 1, a, self.d - 2
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def dot(self, a: int, b: int) -> int:
        """Coefficientwise dot product sum_i a_i b_i mod p (an integer in Z_p)."""
        self._check(a, b)
        if self._has_tables:
            return int(self.dot_table[a, b])
        return int(np.dot(self.coeffs(a), self.coeffs(b)) % self.p)

    def reverse(self, a: int) -> int:
        """Coefficient reversal: result coefficient n-1-k equals a's coefficient k."""
        self._check(a)
        if self._has_tables:
            return int(self.reverse_table[a])
        return self.element(tuple(reversed(self.coeffs(a))))

    # -- array arithmetic -----------------------------------------------------
    #
    # Elementwise over broadcast integer arrays, one table gather each.  They do
    # not range-check: callers validate their inputs once with check_arr, since
    # a check per gather would cost as much as the gather.  Fields without
    # tables fall back to the scalar methods entry by entry.

    def _scalar_arr(self, op, *arrs) -> np.ndarray:
        return np.vectorize(op, otypes=[np.int64])(*arrs)

    def add_arr(self, a, b) -> np.ndarray:
        if self._has_tables:
            return self.add_table[a, b]
        return self._scalar_arr(self.add, a, b)

    def sub_arr(self, a, b) -> np.ndarray:
        if self._has_tables:
            return self.sub_table[a, b]
        return self._scalar_arr(self.sub, a, b)

    def mul_arr(self, a, b) -> np.ndarray:
        if self._has_tables:
            return self.mul_table[a, b]
        return self._scalar_arr(self.mul, a, b)

    def inv_arr(self, a) -> np.ndarray:
        """Inverses, with 0 mapped to 0 (inv_table's entry) rather than raising."""
        if self._has_tables:
            return self.inv_table[a]
        return self._scalar_arr(lambda e: self.inv(e) if e else 0, a)

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
        if len(parts) == 2:
            p, n = int(parts[0]), int(parts[1])
            return cls(p, n)
        if len(parts) != 3:
            raise ValueError(f"field descriptor must be 'p n [poly_index]', got {text!r}")
        p, n, idx = (int(v) for v in parts)
        if not (is_prime(p) and n >= 1 and 0 <= idx < p ** n):
            raise ValueError(f"invalid field descriptor {text!r}")
        return cls(p, n, _poly_from_index(idx, p, n))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.n, self.poly) == (other.p, other.n, other.poly)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.poly))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, n={self.n}, poly_index={self.poly_index})"
