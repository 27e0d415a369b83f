"""Finite field and matrix layer checks against hand-computed values."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from genrank.fp import (FpMatrix, canonical_rep, invert, is_prime, nonresidue,
                        nth_roots_of_unity, projective_canonicalize,
                        row_reduce, sqrt_table)


def mat(p, rows):
    return FpMatrix.from_rows(p, rows)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(32003)
    assert is_prime(5)
    # the cache of known primes must not accept non-integers
    assert not is_prime(5.0)


def test_matrix_product_mod_5():
    # S and T, the standard special linear pair
    s = mat(5, [[0, -1], [1, 0]])
    t = mat(5, [[1, 1], [0, 1]])
    st = s * t
    assert st.rows() == ((0, 4), (1, 1))
    assert t.inverse().rows() == ((1, 4), (0, 1))
    assert (t * t.inverse()).is_identity()


def test_matrix_orders_mod_5():
    s = mat(5, [[0, -1], [1, 0]])
    t = mat(5, [[1, 1], [0, 1]])
    assert (s ** 4).is_identity() and not (s ** 2).is_identity()
    assert (t ** 5).is_identity() and not t.is_identity()
    assert mat(5, [[1, 0], [0, 1]]).is_identity()


def test_unipotent_order_equals_p():
    for p in (3, 7, 11, 13):
        t = mat(p, [[1, 1], [0, 1]])
        # p is prime, so t ** p = 1 with t != 1 gives order exactly p
        assert (t ** p).is_identity() and not t.is_identity()


def test_det_and_inverse_random_sweep():
    rng = random.Random(11)
    for p in (7, 13):
        checked = 0
        while checked < 60:
            entries = tuple(rng.randrange(p) for _ in range(4))
            m = FpMatrix(p, 2, entries)
            d = m.det()
            ad_minus_bc = (entries[0] * entries[3] - entries[1] * entries[2]) % p
            assert d == ad_minus_bc
            if d == 0:
                continue
            assert (m * m.inverse()).is_identity()
            checked += 1


def test_associativity_random_sweep():
    rng = random.Random(23)
    for p in (7, 13):
        ms = [FpMatrix(p, 2, tuple(rng.randrange(p) for _ in range(4)))
              for _ in range(30)]
        for _ in range(100):
            a, b, c = rng.choice(ms), rng.choice(ms), rng.choice(ms)
            assert (a * b) * c == a * (b * c)


def test_dim3_matrix_inverse():
    m = mat(7, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert m.det() == 1
    assert m.inverse().rows() == ((1, 6, 0), (0, 1, 0), (0, 0, 1))
    assert (m ** 7).is_identity() and not m.is_identity()


def _leibniz(rows, p):
    """The determinant as a signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += sign * math.prod(rows[i][perm[i]] for i in range(n))
    return total if p is None else total % p


def _rank(rows, p):
    """The size of the largest nonzero minor."""
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.combinations(range(len(rows[0])), k):
                if _leibniz([[rows[i][j] for j in cs] for i in rs], p):
                    return k
    return 0


@pytest.mark.parametrize("p", [3, 7, 31, None], ids=lambda p: f"F{p}" if p else "Q")
@pytest.mark.parametrize("n", range(1, 6))
def test_row_reduce_against_brute_force(n, p):
    rng = random.Random(100 * n + (p or 0))
    residue = (lambda v: v) if p is None else (lambda v: v % p)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if p is None else rng.randrange(p)

    for trial in range(20):
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:      # a last row that repeats the others' span
            rows[-1] = [residue(sum(2 * r[j] for r in rows[:-1])) for j in range(n)]
        det = _leibniz(rows, p)
        _, pivots, signed = row_reduce(rows, p)
        assert (signed if len(pivots) == n else 0) == det
        if p is not None:
            assert FpMatrix.from_rows(p, rows).det() == det
        if det:
            inv = invert(rows, p)
            assert [[residue(sum(a * b for a, b in zip(r, col))) for col in zip(*inv)]
                    for r in rows] == [[int(i == j) for j in range(n)] for i in range(n)]
            if p is not None:
                m = FpMatrix.from_rows(p, rows)
                assert (m * m.inverse()).is_identity()
        else:
            with pytest.raises(ZeroDivisionError, match="matrix is singular"):
                invert(rows, p)
            if p is not None:
                with pytest.raises(ZeroDivisionError, match="matrix is singular"):
                    FpMatrix.from_rows(p, rows).inverse()
        # the kernel of the first k rows, one vector per free column
        for k in range(1, n + 1):
            system = rows[:k]
            reduced, pivots, _ = row_reduce(system, p)
            kernel = []
            for free in (j for j in range(n) if j not in pivots):
                v = [int(j == free) for j in range(n)]
                for row, col in zip(reduced, pivots):
                    v[col] = residue(-row[free])
                kernel.append(v)
            assert len(kernel) == n - _rank(system, p)
            assert all(residue(sum(a * b for a, b in zip(r, v))) == 0
                       for r in system for v in kernel)


def test_sqrt_table():
    for p in (5, 7, 11, 13):
        table = sqrt_table(p)
        assert len(table) == (p + 1) // 2
        for r, root in table.items():
            assert (root * root) % p == r
        residues = {(x * x) % p for x in range(p)}
        assert set(table) == residues


def test_nonresidue():
    for p in (5, 7, 11, 13, 17):
        d = nonresidue(p)
        assert pow(d, (p - 1) // 2, p) == p - 1


def test_roots_of_unity():
    assert set(nth_roots_of_unity(5, 2)) == {1, 4}
    assert set(nth_roots_of_unity(7, 3)) == {1, 2, 4}
    assert set(nth_roots_of_unity(7, 2)) == {1, 6}


def test_projective_classes_of_sl2_5():
    # all determinant-one matrices over F_5, bucketed by class
    elements = []
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    if (a * d - b * c) % 5 == 1:
                        elements.append(FpMatrix(5, 2, (a, b, c, d)))
    assert len(elements) == 120
    classes = {projective_canonicalize(m) for m in elements}
    assert len(classes) == 60


def test_canonicalize_idempotent_and_constant_on_cosets():
    for p in (5, 7):
        t = mat(p, [[1, 1], [0, 1]])
        s = mat(p, [[0, -1], [1, 0]])
        for m in (t, s, s * t, t * s * t):
            neg = m.scaled(p - 1)
            assert canonical_rep(m) == canonical_rep(neg)
            assert canonical_rep(canonical_rep(m)) == canonical_rep(m)
            assert projective_canonicalize(m) == projective_canonicalize(neg)


def test_projective_rejects_bad_determinant():
    m = mat(5, [[2, 0], [0, 1]])
    assert m.det() == 2
    with pytest.raises(ValueError):
        projective_canonicalize(m)


def test_encode_is_injective_on_sl2_7():
    seen = {}
    count = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    if (a * d - b * c) % 7 == 1:
                        m = FpMatrix(7, 2, (a, b, c, d))
                        key = m.encode()
                        assert key not in seen
                        seen[key] = m
                        count += 1
    assert count == 7 * (7 * 7 - 1)


def test_derived_matrices_equal_checked_construction():
    # products, negations, scalings and inverses skip the entry checks:
    # each must equal, and hash as, the same entries built the checked way
    rng = random.Random(61)
    for p, n in ((2, 2), (5, 2), (7, 3), (3, 4)):
        mats = []
        while len(mats) < 3:
            m = FpMatrix(p, n, tuple(rng.randrange(p) for _ in range(n * n)))
            if m.det():
                mats.append(m)
        a, b, c = mats
        for got in (a * b, b * c * a, -a, a.scaled(p - 1), a.scaled(2), a.inverse(),
                    canonical_rep(b), a ** 5, a ** -3):
            same = FpMatrix(p, n, got.entries)
            assert got == same and hash(got) == hash(same)
            assert all(type(e) is int and 0 <= e < p for e in got.entries)


def test_outside_construction_keeps_every_check():
    for args in ((6, 2, (1, 0, 0, 1)), (1, 1, (0,)), (5, 2, (1, 0, 0, 5)),
                 (5, 2, (1, 0, 0, -1)), (5, 2, (1, 0, 0, 1.0)), (5, 2, (1, 0, 0)),
                 (1 << 16, 1, (1,))):
        with pytest.raises(ValueError):
            FpMatrix(*args)
    with pytest.raises(ValueError):
        FpMatrix.from_rows(9, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        FpMatrix.identity(4, 2)
