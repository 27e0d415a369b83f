"""Exact arithmetic over prime fields: square matrices and projective
canonical forms (matrices modulo the center of SL_n).  An element of
PSL_n(F_p) is a plain FpMatrix, its canonical coset representative.
`row_reduce` is the package's one Gauss-Jordan elimination, over F_p or
Q: every determinant, inverse and kernel past the closed forms uses it.
The lines over F_{p^2} that a 2x2 matrix fixes or moves
(`eigenlines_mod_center`, `line_image`) back the structural SL2 test.

Everything here is immutable, hashable and exact; no floats appear
anywhere.  Moduli and entries are validated when a matrix is built
from outside: a modulus must stay below 2**15, so that entry products
fit in a machine word, and pass trial division.  Products, negations,
scalings and inverses of validated matrices reduce every entry mod p
themselves and skip the checks.

The per-prime tables (`sqrt_table`, `nonresidue`, `nth_roots_of_unity`)
are cached for the process, keyed by a modulus that passed
`check_modulus` and so bounded by the primes below 2**15.
`_known_primes` holds the primes `is_prime` has confirmed, for the
`check_modulus` call of every checked FpMatrix construction.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

MAX_MODULUS = 1 << 15

_known_primes: set[int] = set()


def is_prime(n: int) -> bool:
    """Trial-division primality test, cached for repeat queries."""
    if not isinstance(n, int) or n < 2:
        return False
    if n in _known_primes:
        return True
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    _known_primes.add(n)
    return True


def primes(start: int = 2):
    """The primes at or above start, in increasing order, without end."""
    return filter(is_prime, itertools.count(start))


def prime_factors(n: int) -> list:
    """The distinct primes dividing n, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def check_modulus(p: int) -> None:
    """Reject a modulus that is not a prime below MAX_MODULUS.  The
    bound comes first, so a huge modulus never reaches trial division."""
    if isinstance(p, int) and p > MAX_MODULUS:
        raise ValueError(f"modulus {p} exceeds supported bound {MAX_MODULUS}")
    if not is_prime(p):
        raise ValueError(f"modulus {p!r} is not prime")


@lru_cache(maxsize=None)
def sqrt_table(p: int) -> dict:
    """Map each quadratic residue mod p to one of its square roots."""
    check_modulus(p)
    table: dict[int, int] = {}
    for x in range(p):
        table.setdefault(x * x % p, x)
    return table


@lru_cache(maxsize=None)
def nonresidue(p: int) -> int:
    """Smallest quadratic non-residue mod an odd prime p."""
    check_modulus(p)
    if p == 2:
        raise ValueError("F_2 has no quadratic non-residue")
    squares = sqrt_table(p)
    for d in range(2, p):
        if d not in squares:
            return d
    raise AssertionError("unreachable for odd prime modulus")


@lru_cache(maxsize=None)
def nth_roots_of_unity(p: int, n: int) -> tuple[int, ...]:
    """All solutions of x**n = 1 in F_p, in increasing order."""
    check_modulus(p)
    return tuple(x for x in range(1, p) if pow(x, n, p) == 1)


def row_reduce(rows, p: int | None = None) -> tuple[list, list, int | Fraction]:
    """Gauss-Jordan elimination of equal-length rows over F_p, or over Q
    when p is None: the reduced row echelon form, its pivot columns in
    increasing order, and the product of the pivots negated once per row
    swap (for a square matrix of full rank, its determinant)."""
    a = [[v if isinstance(v, Fraction) else Fraction(v) for v in r] if p is None
         else [v % p for v in r] for r in rows]
    pivots, det = [], 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = a[r][col]
        det = det * lead if piv == r else -det * lead
        # the pivot row is zero left of col, so only columns col on change
        if p is None:
            a[r][col:] = prow = [v / lead for v in a[r][col:]]
        else:
            det, s = det % p, pow(lead, p - 2, p)
            a[r][col:] = prow = [v * s % p for v in a[r][col:]]
        for i, row in enumerate(a):
            f = row[col]
            if f and i != r:
                row[col:] = [v - f * w for v, w in zip(row[col:], prow)] if p is None else \
                    [(v - f * w) % p for v, w in zip(row[col:], prow)]
        pivots.append(col)
    return a, pivots, det


def invert(rows, p: int | None = None) -> list:
    """The rows of A^-1 over F_p (Q when p is None), read off the reduced
    form of [A | I]: A is invertible exactly when every pivot lies in A."""
    n = len(rows)
    reduced, pivots, _ = row_reduce(
        [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(rows)], p)
    if pivots[-1] >= n:
        raise ZeroDivisionError("matrix is singular")
    return [r[n:] for r in reduced]


@dataclass(frozen=True)
class FpMatrix:
    """An n-by-n matrix over F_p.  Entries are residues stored row-major
    in a flat tuple; the object is hashable and usable as a set key."""

    modulus: int
    dim: int
    entries: tuple[int, ...]

    def __post_init__(self):
        check_modulus(self.modulus)
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.entries) != self.dim * self.dim:
            raise ValueError(f"expected {self.dim * self.dim} entries, got {len(self.entries)}")
        for e in self.entries:
            if not isinstance(e, int) or not 0 <= e < self.modulus:
                raise ValueError(f"entry {e!r} out of range for F_{self.modulus}")

    @classmethod
    def _reduced(cls, modulus: int, dim: int, entries: tuple) -> "FpMatrix":
        """A matrix from entries already reduced mod the checked modulus
        of another matrix, without __post_init__'s checks: the results
        of products, negation, scaling and inversion.  The fields are set
        one by one: filling __dict__ at once would give every matrix its
        own dict, about 140 more bytes."""
        m = object.__new__(cls)
        object.__setattr__(m, "modulus", modulus)
        object.__setattr__(m, "dim", dim)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def from_rows(cls, modulus: int, rows) -> "FpMatrix":
        rows = [list(r) for r in rows]
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square")
        flat = tuple(int(e) % modulus for r in rows for e in r)
        return cls(modulus, dim, flat)

    @classmethod
    def identity(cls, modulus: int, dim: int) -> "FpMatrix":
        flat = tuple(1 if i == j else 0 for i in range(dim) for j in range(dim))
        return cls(modulus, dim, flat)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = self.dim
        return tuple(self.entries[i * n:(i + 1) * n] for i in range(n))

    def _check(self, other: "FpMatrix") -> None:
        if not isinstance(other, FpMatrix):
            raise TypeError(f"expected FpMatrix, got {type(other).__name__}")
        if other.modulus != self.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __mul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        p, n, a, b = self.modulus, self.dim, self.entries, other.entries
        if n == 2:
            a0, a1, a2, a3 = a
            b0, b1, b2, b3 = b
            flat = ((a0 * b0 + a1 * b2) % p, (a0 * b1 + a1 * b3) % p,
                    (a2 * b0 + a3 * b2) % p, (a2 * b1 + a3 * b3) % p)
            return FpMatrix._reduced(p, 2, flat)
        out = []
        for i in range(n):
            arow = a[i * n:(i + 1) * n]
            for j in range(n):
                out.append(sum(arow[k] * b[k * n + j] for k in range(n)) % p)
        return FpMatrix._reduced(p, n, tuple(out))

    def __neg__(self) -> "FpMatrix":
        p = self.modulus
        return FpMatrix._reduced(p, self.dim, tuple((-x) % p for x in self.entries))

    def scaled(self, c: int) -> "FpMatrix":
        p = self.modulus
        return FpMatrix._reduced(p, self.dim, tuple(x * c % p for x in self.entries))

    def det(self) -> int:
        p, n, e = self.modulus, self.dim, self.entries
        if n == 1:
            return e[0]
        if n == 2:
            return (e[0] * e[3] - e[1] * e[2]) % p
        if n == 3:
            return (e[0] * (e[4] * e[8] - e[5] * e[7])
                    - e[1] * (e[3] * e[8] - e[5] * e[6])
                    + e[2] * (e[3] * e[7] - e[4] * e[6])) % p
        _, pivots, det = row_reduce(self.rows(), p)
        return det if len(pivots) == n else 0

    def inverse(self) -> "FpMatrix":
        p, n, e = self.modulus, self.dim, self.entries
        if n == 2:
            d = (e[0] * e[3] - e[1] * e[2]) % p
            if d == 0:
                raise ZeroDivisionError("matrix is singular")
            di = pow(d, p - 2, p)
            return FpMatrix._reduced(
                p, 2, (e[3] * di % p, -e[1] * di % p, -e[2] * di % p, e[0] * di % p))
        return FpMatrix._reduced(p, n, tuple(v for r in invert(self.rows(), p) for v in r))

    def __pow__(self, k: int) -> "FpMatrix":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        acc = FpMatrix.identity(self.modulus, self.dim)
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def is_identity(self) -> bool:
        return self.entries[0] == 1 and self.is_scalar()

    def is_scalar(self) -> bool:
        n, e = self.dim, self.entries
        return all(e[i * n + j] == (e[0] if i == j else 0) for i in range(n) for j in range(n))

    def encode(self) -> bytes:
        return struct.pack(f"<{len(self.entries)}H", *self.entries)

    def __repr__(self):
        return f"FpMatrix(mod {self.modulus}, {list(map(list, self.rows()))})"


def canonical_rep(m: FpMatrix) -> FpMatrix:
    """The PSL_n representative of m: among the scalings c*m with c an
    n-th root of unity, the one whose row-major entry tuple is
    lexicographically least."""
    p, n = m.modulus, m.dim
    if n == 2:
        neg = tuple(-x % p for x in m.entries)
        return m if m.entries <= neg else FpMatrix._reduced(p, 2, neg)
    best = m
    for c in nth_roots_of_unity(p, n):
        if c == 1:
            continue
        cand = m.scaled(c)
        if cand.entries < best.entries:
            best = cand
    return best


def projective_canonicalize(m: FpMatrix) -> FpMatrix:
    """Quotient a determinant-one matrix to its PSL_n class, held by its
    canonical representative."""
    if m.det() != 1:
        raise ValueError("projective canonicalization expects determinant 1")
    return canonical_rep(m)


def _fp2_mul(x, y, p, d):
    return ((x[0] * y[0] + d * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def _fp2_inv(x, p, d):
    n = (x[0] * x[0] - d * x[1] * x[1]) % p
    if n == 0:
        raise ZeroDivisionError("zero norm in quadratic extension")
    ni = pow(n, p - 2, p)
    return (x[0] * ni % p, (-x[1]) * ni % p)


def _line_id(v0, v1, p, d) -> int:
    """Identify the line spanned by (v0, v1) over F_{p^2}: lines (1, y)
    get id y0 + p*y1, the line (0, 1) gets id p*p."""
    if v0 != (0, 0):
        y = _fp2_mul(v1, _fp2_inv(v0, p, d), p, d)
        return y[0] + p * y[1]
    if v1 == (0, 0):
        raise ValueError("zero vector spans no line")
    return p * p


def _line_vector(lid: int, p: int):
    if lid == p * p:
        return ((0, 0), (1, 0))
    return ((1, 0), (lid % p, lid // p))


def line_image(m: FpMatrix, lid: int) -> int:
    """Image of a projective line over F_{p^2} under a matrix over F_p."""
    p = m.modulus
    d = nonresidue(p)
    a, b, c, e = m.entries
    v0, v1 = _line_vector(lid, p)
    w0 = ((a * v0[0] + b * v1[0]) % p, (a * v0[1] + b * v1[1]) % p)
    w1 = ((c * v0[0] + e * v1[0]) % p, (c * v0[1] + e * v1[1]) % p)
    return _line_id(w0, w1, p, d)


def eigenlines_mod_center(m: FpMatrix) -> tuple[int, ...]:
    """Eigenlines over F_{p^2} of a non-scalar determinant-one 2x2
    matrix, as sorted line ids.  One line when the discriminant
    vanishes, two otherwise."""
    p = m.modulus
    d = nonresidue(p)
    a, b, c, e = m.entries
    tr = (a + e) % p
    inv2 = pow(2, p - 2, p)
    disc = (tr * tr - 4) % p
    roots = sqrt_table(p)

    def kernel_line(lam):
        v0, v1 = (b % p, 0), ((lam[0] - a) % p, lam[1])
        if v0 == (0, 0) and v1 == (0, 0):
            v0, v1 = ((lam[0] - e) % p, lam[1]), (c % p, 0)
        return _line_id(v0, v1, p, d)

    if disc == 0:
        return (kernel_line((tr * inv2 % p, 0)),)
    if disc in roots:
        s = roots[disc]
        lams = sorted({(tr + s) * inv2 % p, (tr - s) * inv2 % p})
        return tuple(sorted(kernel_line((l, 0)) for l in lams))
    t2 = disc * pow(d, p - 2, p) % p
    s = roots[t2]
    lam = (tr * inv2 % p, s * inv2 % p)
    lam_conj = (lam[0], (p - lam[1]) % p)
    return tuple(sorted({kernel_line(lam), kernel_line(lam_conj)}))
