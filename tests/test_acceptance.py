"""End-to-end acceptance checks with pinned budgets.

Each test prints a single "criterion N: PASS/FAIL" line.  Shared heavy
results (the rank table for the prime family) are computed once and
reused across criteria.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from genrank.arithmetic import (DensityCertificate, NotCertifiedReport,
                                RationalMatrix, RationalTuple, certify_density,
                                reduce_tuple_mod_p, replay_certificate,
                                serialize_certificate)
from genrank.cli import main
from genrank.fp import FpMatrix, projective_canonicalize
from genrank.groups import (CyclicPower, GeneratingTuple, ProductGroup,
                            ProjSpecialLinear, SpecialLinear, closure,
                            product_generates, sl2_generation_report)
from genrank.indexed import IndexedGroup
from genrank.nielsen import all_moves, mu_rank
from genrank.redundancy import is_redundant, max_irredundant_size, z_witness
from reference import apply_move, apply_move_rational, closure_mask

RESULTS = {}


def check(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def std_pair(spec):
    p = spec.p
    s = FpMatrix.from_rows(p, [[0, -1], [1, 0]])
    t = FpMatrix.from_rows(p, [[1, 1], [0, 1]])
    if isinstance(spec, ProjSpecialLinear):
        s, t = projective_canonicalize(s), projective_canonicalize(t)
    return GeneratingTuple(spec, (s, t))


def rank_of(kind, spec):
    key = (kind, spec.descriptor())
    if key not in RESULTS:
        if kind == "m":
            RESULTS[key] = max_irredundant_size(spec)
        else:
            RESULTS[key] = mu_rank(spec)
    return RESULTS[key]


def test_criterion_1_closure_orders():
    t0 = time.monotonic()
    sizes = {}
    for p in (3, 5, 7, 13):
        sub = closure(std_pair(SpecialLinear(2, p)))
        sizes[p] = sub.order
        assert sizes[p] == p * (p * p - 1), p
    elapsed = time.monotonic() - t0
    check(1, elapsed < 5.0,
          f"closure sizes {sizes} match p(p^2-1), {elapsed:.2f}s < 5s")


def test_criterion_2_nielsen_rank_is_two():
    values = {}
    for p in (5, 7):
        res = rank_of("mu", ProjSpecialLinear(2, p))
        values[p] = (res.value, res.exhaustive)
        assert res.value == 2, p
        assert res.exhaustive, p
    check(2, True, f"mu(psl2:p) = 2 exhaustively for p in (5, 7): {values}")


def test_criterion_3_rank_table():
    t0 = time.monotonic()
    table = {}
    for p in (5, 7, 11):
        mp = rank_of("m", ProjSpecialLinear(2, p))
        ms = rank_of("m", SpecialLinear(2, p))
        up = rank_of("mu", ProjSpecialLinear(2, p))
        us = rank_of("mu", SpecialLinear(2, p))
        for res in (mp, ms, up, us):
            assert res.exhaustive, (p, res.rank_kind, res.group.descriptor())
        table[p] = (mp.value, ms.value, up.value, us.value)
    elapsed = time.monotonic() - t0

    print("p  | m(psl2) m(sl2) mu(psl2) mu(sl2)")
    for p, (mp, ms, up, us) in sorted(table.items()):
        print(f"{p:<3}| {mp:^7} {ms:^6} {up:^8} {us:^6}")

    ok = True
    for p, (mp, ms, up, us) in table.items():
        ok = ok and (2 <= up <= mp) and (2 <= us <= ms)
        # the center of the perfect double cover is a Frattini subgroup
        ok = ok and (mp == ms) and (up == us)
    ok = ok and any(table[p][1] == 3 for p in table)
    ok = ok and elapsed < 1800.0
    check(3, ok, f"table {table}, budget {elapsed:.1f}s < 1800s")


def test_criterion_4_fast_test_equals_closure():
    disagreements = 0
    spec5 = SpecialLinear(2, 5)
    ix5 = IndexedGroup(spec5)
    els5 = ix5.tuple_of(range(ix5.n)).items
    for i in range(ix5.n):
        for j in range(ix5.n):
            _, count, _, _ = closure_mask(ix5, (i, j))
            fast = sl2_generation_report(
                GeneratingTuple(spec5, (els5[i], els5[j]))).generates
            if fast != (count == ix5.n):
                disagreements += 1
    checked = ix5.n * ix5.n

    rng = random.Random(2024)
    for p in (7, 11):
        spec = SpecialLinear(2, p)
        ix = IndexedGroup(spec)
        els = ix.tuple_of(range(ix.n)).items
        for _ in range(10_000):
            k = rng.choice((2, 3))
            gens = tuple(rng.randrange(ix.n) for _ in range(k))
            _, count, _, _ = closure_mask(ix, gens)
            fast = sl2_generation_report(
                GeneratingTuple(spec, tuple(els[g] for g in gens))).generates
            if fast != (count == ix.n):
                disagreements += 1
            checked += 1
    check(4, disagreements == 0,
          f"{checked} tuples compared against BFS closure, "
          f"{disagreements} disagreements")


def test_criterion_5_cyclic_power_rank():
    t0 = time.monotonic()
    got = {}
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            res = max_irredundant_size(CyclicPower(p, k))
            got[(p, k)] = res.value
            assert res.value == k, (p, k)
            assert res.exhaustive
    elapsed = time.monotonic() - t0
    check(5, elapsed < 60.0,
          f"m(CyclicPower(p,k)) = k on all nine cases, {elapsed:.2f}s < 60s")


def test_criterion_6_integer_witnesses():
    verdicts = []
    for n in range(1, 9):
        rep = is_redundant(z_witness(n))
        verdicts.append(rep.verdict)
    ok = all(v == "IrredundantGenerating" for v in verdicts)
    check(6, ok, "z_witness(1..8) all IrredundantGenerating")


def test_criterion_7_involution_pairs_proper():
    t0 = time.monotonic()
    counts = {}
    for p in (5, 7):
        spec = ProjSpecialLinear(2, p)
        e = spec.identity()
        invols = [x for x in spec.elements()
                  if x != e and spec.mul(x, x) == e]
        pairs = 0
        for a, b in itertools.combinations_with_replacement(invols, 2):
            sub = closure(GeneratingTuple(spec, (a, b)))
            assert sub.order < spec.order, (p, sub.order)
            assert sub.order <= 2 * (p + 1), (p, sub.order)
            if p == 5:
                assert sub.order in {2, 4, 6, 8, 10}
            pairs += 1
        counts[p] = (len(invols), pairs)
    elapsed = time.monotonic() - t0
    check(7, elapsed < 60.0,
          f"involutions/pairs {counts}, all closures proper dihedral, "
          f"{elapsed:.2f}s < 60s")


def _product_closure_size(ix1, ix2, pairs):
    """BFS over the right Cayley graph of the product, encoded as
    i1 * |G2| + i2.  Independent of the subdirect-subgroup analysis."""
    n2 = ix2.n
    visited = np.zeros(ix1.n * n2, dtype=bool)
    start = int(ix1.identity) * n2 + int(ix2.identity)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    g1 = np.array([a for a, _ in pairs], dtype=np.int64)
    g2 = np.array([b for _, b in pairs], dtype=np.int64)
    while frontier.size:
        i = frontier // n2
        j = frontier % n2
        nxt = (ix1.mult[i[:, None], g1[None, :]].astype(np.int64) * n2
               + ix2.mult[j[:, None], g2[None, :]].astype(np.int64))
        nxt = np.unique(nxt.ravel())
        fresh = nxt[~visited[nxt]]
        visited[fresh] = True
        frontier = fresh
    return int(visited.sum())


def test_criterion_8_product_generation(pgl2):
    t0 = time.monotonic()
    rng = random.Random(88)
    cases = ((ProjSpecialLinear(2, 5), ProjSpecialLinear(2, 7)),
             (ProjSpecialLinear(2, 5), ProjSpecialLinear(2, 5)))
    disagreements = 0
    checked = 0
    for f1, f2 in cases:
        prod = ProductGroup((f1, f2))
        ix1, ix2 = IndexedGroup(f1), IndexedGroup(f2)
        els1, els2 = ix1.tuple_of(range(ix1.n)).items, ix2.tuple_of(range(ix2.n)).items
        full = ix1.n * ix2.n
        for _ in range(1000):
            k = rng.choice((2, 3))
            idx = [(rng.randrange(ix1.n), rng.randrange(ix2.n))
                   for _ in range(k)]
            t = GeneratingTuple(prod, tuple(
                (els1[a], els2[b]) for a, b in idx))
            rep = product_generates(t)
            brute = _product_closure_size(ix1, ix2, idx) == full
            if rep.generates != brute:
                disagreements += 1
            checked += 1

    # graph tuples: images of a generating pair under every automorphism
    # shape a proper subdirect subgroup and must name the isomorphism
    p5 = ProjSpecialLinear(2, 5)
    prod55 = ProductGroup((p5, p5))
    pair = std_pair(p5)
    conjugators, conjugate = pgl2
    autos = conjugators(5)
    graph_rejects = 0
    for c in (autos[0], autos[17], autos[59], autos[101], autos[119]):
        t = GeneratingTuple(prod55, tuple((x, conjugate(c, x))
                                          for x in pair.items))
        rep = product_generates(t)
        assert not rep.generates
        assert rep.isomorphism is not None
        assert "graph" in rep.diagnosis
        graph_rejects += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 300.0
    check(8, ok, f"{checked} random tuples agree with closure, "
          f"{graph_rejects} graph tuples rejected with a named "
          f"isomorphism, {elapsed:.1f}s < 300s")


def test_criterion_9_certification_pipeline():
    t0 = time.monotonic()
    s = RationalMatrix.from_rows([[0, -1], [1, 0]])
    t = RationalMatrix.from_rows([[1, 1], [0, 1]])
    st = RationalTuple((s, t))
    cert = certify_density(st)
    assert isinstance(cert, DensityCertificate)
    assert cert.witness_prime == 5
    blob = serialize_certificate(cert)
    ok_replay, msg = replay_certificate(blob)
    assert ok_replay, msg

    borel = RationalTuple((RationalMatrix.from_rows([[1, 1], [0, 1]]),
                           RationalMatrix.from_rows([[2, 0],
                                                     [0, Fraction(1, 2)]])))
    rep = certify_density(borel)
    assert isinstance(rep, NotCertifiedReport)
    assert len(rep.per_prime) == 10
    assert all(r.diagnosis == "common eigenvector" for r in rep.per_prime)

    # move/reduction compatibility on random (tuple, move, prime) triples
    rng = random.Random(99)
    pool = [s, t, s.inverse(), t.inverse(), s * t, t * s,
            RationalMatrix.from_rows([[1, 0], [1, 1]]),
            RationalMatrix.from_rows([[2, 0], [0, Fraction(1, 2)]]),
            RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]])]
    mismatches = 0
    for _ in range(1000):
        k = rng.choice((2, 3))
        x = RationalTuple(tuple(rng.choice(pool) for _ in range(k)))
        mv = rng.choice(all_moves(k))
        p = rng.choice((5, 7, 11, 13))
        lhs = reduce_tuple_mod_p(apply_move_rational(x, mv), p)
        rhs = apply_move(reduce_tuple_mod_p(x, p), mv)
        if lhs.items != rhs.items:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60.0
    check(9, ok, f"witness prime 5, bytewise replay, 10 consecutive "
          f"common-eigenvector rejections, {mismatches} move/reduction "
          f"mismatches in 1000 triples, {elapsed:.1f}s < 60s")


def test_criterion_10_rank_bounds_and_witness_mode():
    m_values = {}
    for p in (5, 7, 11):
        m_values[p] = rank_of("m", SpecialLinear(2, p)).value
    assert all(v <= 10 ** 5 for v in m_values.values())

    res = rank_of("m", SpecialLinear(3, 3))
    assert not res.exhaustive
    assert res.value is not None and 2 <= res.value <= 6
    assert res.witness is not None
    assert is_redundant(res.witness).verdict == "IrredundantGenerating"

    code = main(["rank", "sl3:3", "--time-budget", "8", "--format", "json"])
    assert code == 2
    check(10, True,
          f"m(sl2) values {m_values} within 1e5, sl3:3 lower bound "
          f"{res.value} <= 6, budget-limited run exits 2")
