"""Reference computations the benchmark checks genrank's output against.

Everything here is plain Python on tuples of residues and shares no code
with genrank: matrices are row-major tuples, a projective (PSL) element
is the smaller of M and -M, and subgroup orders come from breadth-first
closure over right multiplication by the generators.  Expected counts
come from published formulas, never from a stored copy of genrank's
output.
"""

from __future__ import annotations

from fractions import Fraction


def sl_order(n: int, p: int) -> int:
    """|SL_n(F_p)| = prod_{i<n} (p^n - p^i) / (p - 1)."""
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out // (p - 1)


def psl2_order(p: int) -> int:
    return p * (p * p - 1) // 2


def group_order(kind: str, p: int) -> int:
    """Order of "sl2" or "psl2" over F_p."""
    return sl_order(2, p) if kind == "sl2" else psl2_order(p)


# ---------------------------------------------------------------------------
# Eulerian functions: phi_k(G), the number of generating k-tuples.
# ---------------------------------------------------------------------------

def eulerian_a5(k: int) -> int:
    """P. Hall, "The Eulerian functions of a group" (1936), for A5 = PSL2(5)."""
    return (60 ** k - 5 * 12 ** k - 6 * 10 ** k - 10 * 6 ** k
            + 20 * 3 ** k + 60 * 2 ** k - 60)


def eulerian_psl2_7(k: int) -> int:
    """Hall's Moebius sum over the subgroup lattice of PSL2(7): the
    maximal S4s (two classes of 7) and 7:3s (8), then D8 (21), S3 (28),
    C3 (56) and C2 (84); every other subgroup has Moebius value 0."""
    return (168 ** k - 14 * 24 ** k - 8 * 21 ** k + 21 * 8 ** k
            + 28 * 6 ** k + 56 * 3 ** k - 84 * 2 ** k)


def eulerian_sl2_5(k: int) -> int:
    """The centre of SL2(5) is Frattini, so phi_k(SL2(5)) = 2^k phi_k(A5)."""
    return 2 ** k * eulerian_a5(k)


def eulerian_elementary_abelian(p: int, d: int, k: int) -> int:
    """Generating k-tuples of (Z/p)^d: d x k matrices of rank d over F_p."""
    out = 1
    for i in range(d):
        out *= p ** k - p ** i
    return out


def generating_classes(phi_k: int, centre: int, order: int) -> int:
    """Conjugacy classes of generating tuples: G/Z(G) acts freely on
    generating tuples, so there are phi_k |Z| / |G| of them."""
    if (phi_k * centre) % order:
        raise ValueError("class count is not an integer")
    return phi_k * centre // order


# ---------------------------------------------------------------------------
# Matrices mod p and closure BFS.
# ---------------------------------------------------------------------------

def flatten(rows) -> tuple:
    return tuple(int(v) for row in rows for v in row)


def matmul(a: tuple, b: tuple, n: int, p: int) -> tuple:
    return tuple(sum(a[i * n + k] * b[k * n + j] for k in range(n)) % p
                 for i in range(n) for j in range(n))


def det2(m: tuple, p: int) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % p


def projective(m: tuple, p: int) -> tuple:
    """Coset representative of {M, -M}: the smaller tuple."""
    return min(m, tuple((-v) % p for v in m))


def identity(n: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def closure_order(gens, n: int, p: int, proj: bool = False) -> int:
    """Order of the subgroup of SL_n(F_p) (or PSL_2 when proj) that the
    matrices generate."""
    norm = (lambda m: projective(m, p)) if proj else (lambda m: m)
    gens = list(dict.fromkeys(norm(tuple(g)) for g in gens))
    e = norm(identity(n))
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = norm(matmul(a, g, n, p))
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return len(seen)


def generates(gens, kind: str, p: int) -> bool:
    """Do the 2x2 matrices generate all of sl2 or psl2 over F_p?"""
    return closure_order(gens, 2, p, kind == "psl2") == group_order(kind, p)


def irredundant_generating(gens, kind: str, p: int) -> tuple:
    """(generates, droppable): droppable lists the positions whose removal
    still leaves a generating tuple."""
    gens = list(gens)
    whole = generates(gens, kind, p)
    drops = [i for i in range(len(gens))
             if generates(gens[:i] + gens[i + 1:], kind, p)]
    return whole, drops


def product_closure_order(pairs, p1: int, p2: int) -> int:
    """Order of the subgroup of PSL2(p1) x PSL2(p2) generated by the
    (left, right) pairs of 2x2 matrices."""
    gens = list(dict.fromkeys((projective(tuple(a), p1), projective(tuple(b), p2))
                              for a, b in pairs))
    e = (identity(2), identity(2))
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x, y in frontier:
            for a, b in gens:
                z = (projective(matmul(x, a, 2, p1), p1),
                     projective(matmul(y, b, 2, p2), p2))
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# Rational matrices.
# ---------------------------------------------------------------------------

def reduce_mod_p(entries, p: int):
    """Entrywise reduction of rationals a/b to a * b^-1 mod p; None when
    p divides a denominator."""
    out = []
    for v in entries:
        f = Fraction(v)
        if f.denominator % p == 0:
            return None
        out.append(f.numerator * pow(f.denominator, p - 2, p) % p)
    return tuple(out)
