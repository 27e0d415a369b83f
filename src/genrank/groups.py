"""Finite group families, generating tuples, subgroup closure, and
generation tests.

The group kinds supported here are special linear and projective special
linear groups over prime fields, powers of cyclic groups, direct products,
and the additive integers: the kinds a descriptor names.  Elements are
plain values (matrices, residue vectors, tuples of factor elements, ints);
an element of PSL_n is the canonical representative matrix of its coset.
Each group kind validates and encodes its own elements.

Subgroup orders of SL/PSL tuples come from a Schreier-Sims stabilizer
chain of the action on nonzero vectors or on lines, which lists no
element; `closure` is the one routine that enumerates a subgroup.

Generation testing dispatches to a structural test for SL2/PSL2 with
p >= 5, to the stabilizer-chain order for other SL/PSL groups, to the
rank mod each prime for abelian groups, and to closure for the rest.
The structural test rests on the classification of subgroups of PSL2(F_p):
every proper subgroup either fixes a line over the quadratic extension
(triangularizable or inside a torus), permutes an unordered pair of such
lines (inside the normalizer of a torus, so of order at most p+1 up to
center), or is one of A4, S4, A5 of order at most 60 up to center.  A
subgroup escaping the first two conditions whose closure exceeds
center * max(60, p+1) elements is therefore the whole group.
"""

from __future__ import annotations

import itertools
import math
import struct
import time
from dataclasses import dataclass

import numpy as np

from .fp import (FpMatrix, canonical_rep, check_modulus, eigenlines_mod_center, is_prime,
                 line_image, nonresidue, nth_roots_of_unity, prime_coordinates, row_reduce,
                 sqrt_table)


class CapExceeded(Exception):
    """Raised when a closure run grows past its cap."""

    def __init__(self, visited: int):
        super().__init__(f"closure exceeded cap after {visited} elements")
        self.visited = visited


def sl_order(n: int, q: int) -> int:
    """|SL_n(F_q)| = q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1)."""
    out = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        out *= q ** i - 1
    return out


def psl_order(n: int, q: int) -> int:
    return sl_order(n, q) // math.gcd(n, q - 1)


class GroupSpec:
    """Base for group descriptors.  Subclasses supply identity, binary
    operation, inverse, element validation, byte encoding and, for a
    finite group, generators(); elements() is their closure.  A finite
    group encodes x as little-endian 16-bit words, each below its bound in
    word_moduli(); left_rows(g, rows) gives the words of g x for each row
    of words x, g given by its words, and decode(words) the element."""

    @property
    def order(self):
        raise NotImplementedError

    @property
    def is_abelian(self) -> bool:
        return False

    def descriptor(self) -> str:
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def validate(self, x) -> None:
        raise NotImplementedError

    def encode(self, x) -> bytes:
        raise NotImplementedError

    def generators(self) -> tuple:
        raise NotImplementedError

    def elements(self) -> list:
        """All elements, sorted by encoding, in a new list on each call.
        Finite groups only."""
        if self.order is None:
            raise ValueError(f"{self.descriptor()} is infinite")
        els = list(closure(GeneratingTuple(self, self.generators())).elements)
        if len(els) != self.order:
            raise AssertionError(
                f"enumerated {len(els)} elements of {self.descriptor()}, "
                f"expected {self.order}")
        return els

    def random_element(self, rng):
        raise NotImplementedError

    def __repr__(self):
        return self.descriptor()


def _sl_standard_generators(n: int, p: int) -> tuple[FpMatrix, ...]:
    if n == 2:
        s = FpMatrix.from_rows(p, [[0, -1], [1, 0]])
        t = FpMatrix.from_rows(p, [[1, 1], [0, 1]])
        return (s, t)
    # E_12(1) together with a determinant-one cyclic shift.
    e12 = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    e12[0][1] = 1
    shift = [[0] * n for _ in range(n)]
    sign = 1 if n % 2 == 1 else -1
    shift[0][n - 1] = sign
    for i in range(1, n):
        shift[i][i - 1] = 1
    return (FpMatrix.from_rows(p, e12), FpMatrix.from_rows(p, shift))


def _random_sl(n: int, p: int, rng) -> FpMatrix:
    """A uniform element of SL_n(F_p), without listing the group: a
    uniform invertible matrix with its first row divided by the
    determinant (each fibre of that map has p - 1 elements)."""
    while True:
        m = FpMatrix(p, n, tuple(rng.randrange(p) for _ in range(n * n)))
        d = m.det()
        if d:
            c = pow(d, p - 2, p)
            return FpMatrix(p, n, tuple(x * c % p for x in m.entries[:n])
                            + m.entries[n:])


@dataclass(frozen=True)
class _MatrixGroup(GroupSpec):
    """What SL_n(F_p) and PSL_n(F_p) share: the fields, their checks, the
    element encoding and the matrix half of validation.  Both hold their
    elements as determinant-one FpMatrix values."""

    n: int
    p: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("matrix groups need dimension >= 2")
        check_modulus(self.p)

    def validate(self, x) -> None:
        if not isinstance(x, FpMatrix):
            raise ValueError(f"expected FpMatrix, got {type(x).__name__}")
        if x.modulus != self.p or x.dim != self.n:
            raise ValueError(f"element does not live in {self.descriptor()}")
        if x.det() != 1:
            raise ValueError("determinant is not 1")

    def encode(self, x) -> bytes:
        return x.encode()

    def word_moduli(self) -> tuple:
        return (self.p,) * (self.n * self.n)

    def left_rows(self, g, rows):
        n = self.n      # (g x)[i, j] is the sum over k of g[i, k] x[k, j]
        terms = g.reshape(1, n, n, 1) * rows.reshape(-1, 1, n, n)
        return terms.sum(axis=2).reshape(len(rows), -1) % self.p

    def decode(self, words) -> FpMatrix:
        return FpMatrix(self.p, self.n, tuple(words.tolist()))

    def identity(self) -> FpMatrix:
        # the identity matrix is its own canonical representative
        return FpMatrix.identity(self.p, self.n)


@dataclass(frozen=True)
class SpecialLinear(_MatrixGroup):
    """SL_n(F_p): determinant-one n-by-n matrices over the prime field."""

    @property
    def order(self) -> int:
        return sl_order(self.n, self.p)

    def descriptor(self) -> str:
        return f"sl{self.n}:{self.p}"

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def generators(self) -> tuple:
        return _sl_standard_generators(self.n, self.p)

    def random_element(self, rng):
        return _random_sl(self.n, self.p, rng)


@dataclass(frozen=True)
class ProjSpecialLinear(_MatrixGroup):
    """PSL_n(F_p): SL_n(F_p) modulo its center.  Each element is its
    canonical coset representative (fp.canonical_rep), so products and
    inverses are canonicalised once, here."""

    @property
    def order(self) -> int:
        return psl_order(self.n, self.p)

    def descriptor(self) -> str:
        return f"psl{self.n}:{self.p}"

    def mul(self, a, b):
        return canonical_rep(a * b)

    def inv(self, a):
        return canonical_rep(a.inverse())

    def left_rows(self, g, rows):
        # canonical_rep's least c x, c^n = 1: x's first nonzero entry decides
        out = super().left_rows(g, rows)
        lead = out[:, 0]
        for j in range(1, self.n):
            lead = lead + (lead == 0) * out[:, j]
        roots = np.array(nth_roots_of_unity(self.p, self.n))
        scaled = lead[:, None] * roots % self.p
        least = (scaled == scaled.min(axis=1)[:, None]).argmax(axis=1)
        return out * roots[least][:, None] % self.p

    def validate(self, x) -> None:
        super().validate(x)
        if canonical_rep(x) != x:
            raise ValueError("representative is not canonical; use projective_canonicalize")

    def generators(self) -> tuple:
        return tuple(map(canonical_rep, _sl_standard_generators(self.n, self.p)))

    def random_element(self, rng):
        return canonical_rep(_random_sl(self.n, self.p, rng))


@dataclass(frozen=True)
class CyclicPower(GroupSpec):
    """(Z/m)^k under componentwise addition.  The modulus need not be
    prime; elements are k-tuples of residues."""

    modulus: int
    copies: int

    def __post_init__(self):
        if self.modulus < 1 or self.modulus >= 1 << 16:
            raise ValueError("cyclic modulus must be in [1, 65536)")
        if self.copies < 1:
            raise ValueError("need at least one copy")

    @property
    def order(self) -> int:
        return self.modulus ** self.copies

    @property
    def is_abelian(self) -> bool:
        return True

    def descriptor(self) -> str:
        return f"cyclic:{self.modulus}^{self.copies}"

    def identity(self):
        return (0,) * self.copies

    def mul(self, a, b):
        m = self.modulus
        return tuple((x + y) % m for x, y in zip(a, b))

    def inv(self, a):
        m = self.modulus
        return tuple((-x) % m for x in a)

    def validate(self, x) -> None:
        if not (isinstance(x, tuple) and len(x) == self.copies
                and all(isinstance(v, int) and 0 <= v < self.modulus for v in x)):
            raise ValueError(f"element does not live in {self.descriptor()}")

    def encode(self, x) -> bytes:
        return struct.pack(f"<{self.copies}H", *x)

    def word_moduli(self) -> tuple:
        return (self.modulus,) * self.copies

    def left_rows(self, g, rows):
        return (rows + g) % self.modulus

    def decode(self, words) -> tuple:
        return tuple(words.tolist())

    def generators(self) -> tuple:
        basis = []
        for i in range(self.copies):
            v = [0] * self.copies
            v[i] = 1 % self.modulus
            basis.append(tuple(v))
        return tuple(basis)

    def random_element(self, rng):
        return tuple(rng.randrange(self.modulus) for _ in range(self.copies))


@dataclass(frozen=True)
class Integers(GroupSpec):
    """The integers under addition."""

    @property
    def order(self):
        return None

    @property
    def is_abelian(self) -> bool:
        return True

    def descriptor(self) -> str:
        return "z"

    def identity(self) -> int:
        return 0

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def validate(self, x) -> None:
        if not isinstance(x, int):
            raise ValueError("expected an integer")

    def encode(self, x) -> bytes:
        # minimal two's-complement bytes: exact and injective for every int
        return x.to_bytes(x.bit_length() // 8 + 1, "little", signed=True)

    def random_element(self, rng):
        return rng.randint(-10 ** 6, 10 ** 6)


@dataclass(frozen=True)
class ProductGroup(GroupSpec):
    """Direct product of finite group specs; elements are tuples with one
    coordinate per factor."""

    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("a product needs at least two factors")
        for f in self.factors:
            if f.order is None:
                raise ValueError("product factors must be finite")

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.order
        return out

    @property
    def is_abelian(self) -> bool:
        return all(f.is_abelian for f in self.factors)

    def descriptor(self) -> str:
        inner = ",".join(f.descriptor() for f in self.factors)
        return f"prod({inner})"

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def validate(self, x) -> None:
        if not (isinstance(x, tuple) and len(x) == len(self.factors)):
            raise ValueError(f"element does not live in {self.descriptor()}")
        for f, v in zip(self.factors, x):
            f.validate(v)

    def encode(self, x) -> bytes:
        return b"".join(f.encode(v) for f, v in zip(self.factors, x))

    def _spans(self):
        """Each factor with the slice of its words in the encoding."""
        ends = [0, *itertools.accumulate(len(f.word_moduli()) for f in self.factors)]
        return zip(self.factors, map(slice, ends, ends[1:]))

    def word_moduli(self) -> tuple:
        return sum((f.word_moduli() for f in self.factors), ())

    def left_rows(self, g, rows):
        return np.concatenate([f.left_rows(g[s], rows[:, s]) for f, s in self._spans()], axis=1)

    def decode(self, words) -> tuple:
        return tuple(f.decode(words[s]) for f, s in self._spans())

    def generators(self) -> tuple:
        # each factor generator, with identities in the other slots
        ident = self.identity()
        return tuple(ident[:i] + (g,) + ident[i + 1:]
                     for i, f in enumerate(self.factors) for g in f.generators())

    def random_element(self, rng):
        return tuple(f.random_element(rng) for f in self.factors)

    def project(self, t: "GeneratingTuple", i: int) -> "GeneratingTuple":
        return GeneratingTuple(self.factors[i], tuple(x[i] for x in t.items))


@dataclass(frozen=True)
class GeneratingTuple:
    """An ordered tuple of elements of one group, validated at
    construction.  Entries may repeat; emptiness is allowed."""

    group: GroupSpec
    items: tuple

    def __post_init__(self):
        for x in self.items:
            self.group.validate(x)

    def __len__(self) -> int:
        return len(self.items)

    def without(self, i: int) -> "GeneratingTuple":
        return GeneratingTuple(self.group, self.items[:i] + self.items[i + 1:])


@dataclass(frozen=True)
class SubgroupClosure:
    """The subgroup generated by a tuple: its elements (sorted by
    encoding) and their encodings."""

    group: GroupSpec
    elements: tuple
    encodings: frozenset

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return self.group.encode(x) in self.encodings


def check_deadline(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise TimeoutError("passed the caller's deadline")


def closure(t: GeneratingTuple, cap: int | None = None,
            deadline: float = math.inf) -> SubgroupClosure:
    """Breadth-first closure of the tuple under right multiplication by
    its entries.  Exact when the subgroup has at most cap elements;
    raises CapExceeded otherwise, and TimeoutError at the first element
    grown from after time.monotonic() passes deadline."""
    g = t.group
    if g.order is None:
        raise ValueError("closure enumeration needs a finite group")
    cap_eff = g.order if cap is None else cap
    if cap_eff < 1:
        raise ValueError("cap must be at least 1")
    e = g.identity()
    seen = {g.encode(e): e}
    frontier = [e]
    gens = list(dict((g.encode(x), x) for x in t.items).values())
    while frontier:
        nxt = []
        for a in frontier:
            check_deadline(deadline)
            for x in gens:
                b = g.mul(a, x)
                kb = g.encode(b)
                if kb not in seen:
                    seen[kb] = b
                    if len(seen) > cap_eff:
                        raise CapExceeded(len(seen))
                    nxt.append(b)
        frontier = nxt
    if g.order is not None and g.order % len(seen) != 0:
        raise AssertionError("closure order violates Lagrange; group ops inconsistent")
    ordered = tuple(v for _, v in sorted(seen.items()))
    return SubgroupClosure(g, ordered, frozenset(seen.keys()))


# ---------------------------------------------------------------------------
# Subgroup orders of SL_n / PSL_n tuples by a stabilizer chain.
# ---------------------------------------------------------------------------

def _compose(a: tuple, b: tuple) -> tuple:
    """The permutation a, then b."""
    return tuple(map(b.__getitem__, a))


def _inverse(a) -> tuple:
    inv = np.empty(len(a), dtype=np.int64)      # one scatter: inv[a[i]] = i
    inv[np.asarray(a)] = np.arange(len(a))
    return tuple(inv.tolist())


def _basic_orbit_lengths(gens: list, base: tuple, degree: int,
                         deadline: float = math.inf) -> list:
    """Basic orbit lengths of a stabilizer chain of the permutation group
    on range(degree) that the (permutation, inverse) pairs gens generate,
    along a known base: only the identity of the group fixes every base
    point.  Deterministic Schreier-Sims (Seress, Permutation Group
    Algorithms, 2003, ch. 4); the group order is the product of the
    lengths.

    Level l holds strong generators S_l fixing b_0..b_{l-1}, each with
    its inverse, and a Schreier tree of the orbit of b_l under S_l: the
    path from b_l to x spells the transversal element u_x (b_l^u_x = x),
    whose base image u_x[base] is also kept.  Every Schreier generator
    h = u_x s u_{x^s}^-1 of every level is sifted, each pair (x, s) once:
    tree entries are never replaced, and a product that sifts to the
    identity stays in the (only growing) subgroup below.  An element is
    the identity exactly when it fixes the base, so sifting runs on base
    images, and only a residue that stops at some level j is made a full
    permutation; it joins S_{l+1}..S_j, and testing resumes at level j.
    At the end each S_{l+1} generates the stabilizer of b_l in <S_l>, by
    Schreier's lemma.  Raises TimeoutError at the first orbit point
    grown or sifted after time.monotonic() passes deadline."""
    k = len(base)
    ident = tuple(range(degree))
    strong = [list(gens)] + [[] for _ in range(k - 1)]
    images = [{b: base} for b in base]
    tree = [{} for _ in base]
    tested = [set() for _ in base]

    def undo(lv, x, pts):
        """u_x^-1 applied to each of pts."""
        while x in tree[lv]:
            x, s_inv = tree[lv][x]
            pts = tuple(map(s_inv.__getitem__, pts))
        return pts

    lv = k - 1
    while lv >= 0:
        orbit, img = list(images[lv]), images[lv]
        for x in orbit:
            check_deadline(deadline)
            for s, s_inv in strong[lv]:
                y = s[x]
                if y not in img:
                    img[y] = tuple(map(s.__getitem__, img[x]))
                    tree[lv][y] = (x, s_inv)
                    orbit.append(y)
        resume = None
        for x in orbit:
            check_deadline(deadline)
            for i, (s, _) in enumerate(strong[lv]):
                if (x, i) in tested[lv]:
                    continue
                tested[lv].add((x, i))
                y = s[x]
                moved = tuple(map(s.__getitem__, img[x]))
                if moved == img[y]:
                    continue
                beta = undo(lv, y, moved)
                path = []
                j = lv + 1
                while j < k and beta[j] in images[j]:
                    path.append((j, beta[j]))
                    beta = undo(j, beta[j], beta)
                    j += 1
                if j == k:
                    continue
                # the residue in full: u_x s u_y^-1, then the sifting steps
                h = undo(lv, y, _compose(_inverse(undo(lv, x, ident)), s))
                for level, z in path:
                    h = undo(level, z, h)
                for level in range(lv + 1, j + 1):
                    strong[level].append((h, _inverse(h)))
                resume = j
                break
            if resume is not None:
                break
        lv = lv - 1 if resume is None else resume
    return [len(img) for img in images]


def subgroup_order(t: GeneratingTuple, deadline: float = math.inf) -> int:
    """Exact order of the subgroup generated by a tuple of SL_n(F_p) or
    PSL_n(F_p), without listing its elements.  SL_n acts faithfully on
    the p^n - 1 nonzero row vectors by v -> v m, and PSL_n on the lines
    through them, each held by its vector whose first nonzero coordinate
    is 1; points are numbered in lexicographic order of those vectors.
    Each distinct non-identity entry becomes a permutation of the
    points: one integer matrix product of all points, the first-nonzero
    normalisation for lines, and a lookup from the base-p code of each
    image to its number.  The order is read off a stabilizer chain,
    which raises TimeoutError once time.monotonic() passes deadline, as
    do the listing of the points and each permutation."""
    g = t.group
    if not isinstance(g, _MatrixGroup):
        raise ValueError("stabilizer-chain orders need an SL or PSL tuple")
    check_deadline(deadline)
    n, p, lines = g.n, g.p, isinstance(g, ProjSpecialLinear)
    weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)     # vector -> base-p code
    points = np.arange(1, p ** n, dtype=np.int64)[:, None] // weights % p

    def lead(vecs):
        """The first nonzero coordinate of each row."""
        return vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]

    if lines:
        points = points[lead(points) == 1]
        inverse = np.array([0] + [pow(c, p - 2, p) for c in range(1, p)], dtype=np.int64)
    number = np.full(p ** n, -1, dtype=np.int64)       # code -> point
    number[points @ weights] = np.arange(len(points))
    ident = tuple(range(len(points)))
    gens = {}       # each distinct non-identity permutation -> its inverse
    for x in t.items:
        images = points @ np.array(x.rows(), dtype=np.int64) % p
        if lines:
            images = images * inverse[lead(images)][:, None] % p
        perm = number[images @ weights]
        check_deadline(deadline)
        key = tuple(perm.tolist())
        if key != ident and key not in gens:
            gens[key] = _inverse(perm)
    # only the identity fixes every coordinate vector, and in PSL_n
    # every coordinate line and the line of the all-ones vector
    frame = list(weights) + ([weights.sum()] if lines else [])
    base = tuple(number[frame].tolist())
    return math.prod(_basic_orbit_lengths(list(gens.items()), base, len(points), deadline))


# ---------------------------------------------------------------------------
# Structural generation test for SL2 / PSL2, p >= 5.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerationReport:
    """Outcome of a generation test with a structural diagnosis.  A
    product check that finds the graph of an isomorphism G1 -> G2 names
    it as a map from encodings of G1 elements to G2 elements."""

    generates: bool
    reason: str
    isomorphism: dict | None = None


def sl2_generation_report(t: GeneratingTuple) -> GenerationReport:
    """Structural generation test for tuples in SL2(F_p) or PSL2(F_p),
    p >= 5, with a diagnosis usable in certificates."""
    spec = t.group
    if not (isinstance(spec, _MatrixGroup) and spec.n == 2):
        raise ValueError("structural test supports only SL2 and PSL2")
    if spec.p < 5:
        raise ValueError("structural test requires p >= 5")
    noncentral = [m for m in t.items if not m.is_scalar()]
    if not noncentral:
        return GenerationReport(False, "all entries central")
    lines = [eigenlines_mod_center(m) for m in noncentral]
    common = set(lines[0]).intersection(*lines[1:])
    if common:
        return GenerationReport(False, "common eigenvector")
    g1, lines1 = noncentral[0], lines[0]
    candidates = []
    if len(lines1) == 2:
        candidates.append(frozenset(lines1))
    g1sq = g1 * g1
    if not g1sq.is_scalar():
        for lid in eigenlines_mod_center(g1sq):
            other = line_image(g1, lid)
            if other != lid:
                candidates.append(frozenset((lid, other)))
    for pair in dict.fromkeys(candidates):
        a, bpair = sorted(pair)
        if all({line_image(m, a), line_image(m, bpair)} == set(pair)
               for m in noncentral):
            return GenerationReport(False, "invariant line pair")
    center = 2 if isinstance(spec, SpecialLinear) else 1
    try:
        size = closure(t, cap=center * max(60, spec.p + 1)).order
    except CapExceeded:
        return GenerationReport(True, "closure exceeded dihedral and exceptional bounds")
    if size == spec.order:
        return GenerationReport(True, "full closure")
    return GenerationReport(False, f"closure order {size}")


_sl2_verdict = sl2_generation_report    # the name bench/spans.py traces


def is_generating(t: GeneratingTuple, deadline: float = math.inf) -> bool:
    """Does the tuple generate its group?  For the integers this is a
    gcd condition, for a finite abelian group A a span of A/pA for each
    p; SL2/PSL2 with p >= 5 use the structural test, other SL/PSL groups
    the stabilizer-chain order, other finite groups closure enumeration;
    the last two raise TimeoutError past deadline."""
    g = t.group
    if isinstance(g, Integers):
        return math.gcd(*(abs(x) for x in t.items)) == 1 if t.items else False
    if g.is_abelian:
        rows = [np.frombuffer(g.encode(x), dtype="<u2").tolist() for x in t.items]
        return all(len(row_reduce([[r[i] for i in words] for r in rows], p)[1]) == len(words)
                   for p, words in prime_coordinates(g.word_moduli()).items())
    if isinstance(g, _MatrixGroup):
        if g.n == 2 and g.p >= 5:
            return sl2_generation_report(t).generates
        return subgroup_order(t, deadline) == g.order
    return closure(t, deadline=deadline).order == g.order


# ---------------------------------------------------------------------------
# Product generation.
# ---------------------------------------------------------------------------

def is_simple_finite(spec: GroupSpec) -> bool:
    """Simplicity of a group, by rule.  PSL_n(F_p) is simple unless
    (n, p) is (2, 2) or (2, 3), and SL_n(F_p) when moreover its centre,
    of order gcd(n, p - 1), is trivial.  A cyclic power is simple when
    it is one copy of Z/p, p prime, and a product when exactly one factor
    is nontrivial and that factor is simple.  The integers are not."""
    if isinstance(spec, _MatrixGroup):
        if (spec.n, spec.p) in ((2, 2), (2, 3)):
            return False
        return isinstance(spec, ProjSpecialLinear) or math.gcd(spec.n, spec.p - 1) == 1
    if isinstance(spec, CyclicPower):
        return spec.copies == 1 and is_prime(spec.modulus)
    if isinstance(spec, ProductGroup):
        nontrivial = [f for f in spec.factors if f.order > 1]
        return len(nontrivial) == 1 and is_simple_finite(nontrivial[0])
    return False


def _psl2_conjugator(g: ProjSpecialLinear, images: list) -> FpMatrix:
    """The PGL2(F_p) element c with c x c^-1 = images[i] in PSL2(F_p) for
    the standard generators x, scaled to determinant 1 or the least
    non-residue and then to its canonical sign.  Solves c x = +-y c for
    each sign choice; a nonzero solution is unique up to scalars and
    invertible, since the generators have no common eigenvector."""
    p = g.p
    pairs = [(x.rows(), y.rows()) for x, y in zip(g.generators(), images)]
    for signs in itertools.product((1, -1), repeat=len(pairs)):
        # row (i, j) of c x - s y c, over the unknowns c_ab at index 2a + b
        eqs = []
        for (x, y), s in zip(pairs, signs):
            for i, j in itertools.product(range(2), repeat=2):
                row = [0] * 4
                for k in range(2):
                    row[2 * i + k] += x[k][j]
                    row[2 * k + j] -= s * y[i][k]
                eqs.append(row)
        reduced, pivots, _ = row_reduce(eqs, p)
        free = [j for j in range(4) if j not in pivots]
        if free:
            # the kernel vector with a 1 at the first free unknown
            v = [int(j == free[0]) for j in range(4)]
            for row, col in zip(reduced, pivots):
                v[col] = -row[free[0]] % p
            c = FpMatrix(p, 2, tuple(v))
            det = c.det()
            if det not in sqrt_table(p):
                det = det * pow(nonresidue(p), p - 2, p) % p
            return canonical_rep(c.scaled(pow(sqrt_table(p)[det], p - 2, p)))
    raise AssertionError("no conjugator realizes the automorphism")


def _graph_label(g1: GroupSpec, g2: GroupSpec, phi: dict) -> str:
    """Name the isomorphism phi (encoding in g1 -> element of g2)."""
    images = [phi[g1.encode(x)] for x in g1.generators()]
    if g1 == g2 and all(g1.encode(x) == g1.encode(y)
                        for x, y in zip(g1.generators(), images)):
        return "graph of identity"
    if isinstance(g1, ProjSpecialLinear) and g1 == g2 and g1.n == 2:
        c = _psl2_conjugator(g1, images)
        label = f"conjugation by {list(map(list, c.rows()))} mod {g1.p}"
    else:
        label = f"generator images {[g2.encode(y).hex() for y in images]}"
    return f"graph of isomorphism ({label})"


def product_generates(t: GeneratingTuple,
                      deadline: float = math.inf) -> GenerationReport:
    """Decide generation of a tuple in a product of two finite simple
    groups by one closure capped at |G1|, naming the blocking projection
    or aligning isomorphism.  A proper subgroup of G1 x G2 projecting
    onto both simple factors is the graph of an isomorphism G1 -> G2, so
    it has exactly |G1| elements.  That closure and the projection tests
    by chain or closure raise TimeoutError once time.monotonic() passes
    deadline."""
    g = t.group
    if not isinstance(g, ProductGroup) or len(g.factors) != 2:
        raise ValueError("product check expects a product of exactly two factors")
    g1, g2 = g.factors
    for name, f in (("first", g1), ("second", g2)):
        if not is_simple_finite(f):
            raise ValueError(f"{name} factor is not a supported simple group")
    if not is_generating(g.project(t, 0), deadline):
        return GenerationReport(False, "projection 1 proper")
    if not is_generating(g.project(t, 1), deadline):
        return GenerationReport(False, "projection 2 proper")
    if g1.order != g2.order:
        return GenerationReport(
            True, "projections generate non-isomorphic simple factors")
    try:
        graph = closure(t, cap=g1.order, deadline=deadline)
    except CapExceeded:
        return GenerationReport(True, "no isomorphism aligns the factor tuples")
    phi = {g1.encode(a): b for a, b in graph.elements}
    return GenerationReport(False, _graph_label(g1, g2, phi), phi)
