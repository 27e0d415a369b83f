"""Group model checks: closures, generation tests, products."""

import random

import numpy as np
import pytest

from genrank import groups
from genrank.fp import FpMatrix, canonical_rep, projective_canonicalize
from genrank.groups import (CyclicPower, GeneratingTuple, Integers,
                            ProductGroup, ProjSpecialLinear, SpecialLinear,
                            closure, is_generating, is_simple_finite, product_generates,
                            sl2_generation_report, sl_order, subgroup_order)
from genrank.indexed import IndexedGroup
from reference import simple_by_normal_closures, small_abelian_groups


def standard_pair(spec):
    p = spec.p
    s = FpMatrix.from_rows(p, [[0, -1], [1, 0]])
    t = FpMatrix.from_rows(p, [[1, 1], [0, 1]])
    if isinstance(spec, ProjSpecialLinear):
        s = projective_canonicalize(s)
        t = projective_canonicalize(t)
    return GeneratingTuple(spec, (s, t))


def test_orders_match_formulas():
    for p in (3, 5, 7, 11, 13):
        assert SpecialLinear(2, p).order == p * (p * p - 1)
        assert ProjSpecialLinear(2, p).order == p * (p * p - 1) // 2
    # |SL3(q)| = q^3 (q^2-1)(q^3-1)
    assert SpecialLinear(3, 3).order == 27 * 8 * 26
    assert CyclicPower(6, 2).order == 36
    assert Integers().order is None
    prod = ProductGroup((ProjSpecialLinear(2, 5), ProjSpecialLinear(2, 7)))
    assert prod.order == 60 * 168


def test_closure_of_standard_pair_is_whole_group():
    for p in (3, 5, 7, 13):
        spec = SpecialLinear(2, p)
        sub = closure(standard_pair(spec))
        assert len(sub.elements) == p * (p * p - 1)
        pspec = ProjSpecialLinear(2, p)
        psub = closure(standard_pair(pspec))
        assert len(psub.elements) == p * (p * p - 1) // 2


def test_closure_of_proper_subgroup():
    spec = SpecialLinear(2, 5)
    t = FpMatrix.from_rows(5, [[1, 1], [0, 1]])
    sub = closure(GeneratingTuple(spec, (t,)))
    assert len(sub.elements) == 5
    assert t in sub
    s = FpMatrix.from_rows(5, [[0, -1], [1, 0]])
    assert s not in sub


def test_closure_cap_raises():
    from genrank.groups import CapExceeded
    spec = SpecialLinear(2, 13)
    with pytest.raises(CapExceeded):
        closure(standard_pair(spec), cap=50)


def test_elements_enumeration_counts():
    for spec in (SpecialLinear(2, 3), ProjSpecialLinear(2, 5),
                 CyclicPower(4, 2)):
        els = spec.elements()
        assert len(els) == spec.order
        assert len(set(spec.encode(x) for x in els)) == len(els)


def test_group_axioms_spot_checks():
    rng = random.Random(5)
    for spec in (SpecialLinear(2, 5), ProjSpecialLinear(2, 7),
                 CyclicPower(6, 2),
                 ProductGroup((CyclicPower(2, 1), ProjSpecialLinear(2, 5)))):
        e = spec.identity()
        for _ in range(40):
            a = spec.random_element(rng)
            b = spec.random_element(rng)
            c = spec.random_element(rng)
            assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
            assert spec.mul(a, spec.inv(a)) == e
            assert spec.mul(e, a) == a


def test_integers_generation_is_gcd():
    z = Integers()
    assert is_generating(GeneratingTuple(z, (15, 10, 6)))
    assert not is_generating(GeneratingTuple(z, (15, 10)))
    assert not is_generating(GeneratingTuple(z, (0,)))
    assert is_generating(GeneratingTuple(z, (-1,)))


def test_integers_encode_is_exact_and_injective():
    z = Integers()
    values = [0, 1, -1, 127, 128, -128, -129, 255, 256, 2 ** 63 - 1, 2 ** 63,
              -2 ** 63, -2 ** 63 - 1, 2 ** 64, 3 ** 80, -3 ** 80]
    assert len({z.encode(v) for v in values}) == len(values)


def test_cyclic_generation():
    g = CyclicPower(6, 2)
    basis = (tuple([1, 0]), tuple([0, 1]))
    assert is_generating(GeneratingTuple(g, basis))
    assert not is_generating(GeneratingTuple(g, ((2, 0), (0, 1))))
    assert is_generating(GeneratingTuple(g, ((1, 0), (0, 1), (3, 3))))
    # the rank mod each prime against enumeration, 0 to 4 random entries
    rng = random.Random(11)
    for spec in small_abelian_groups():
        for k in range(5):
            for _ in range(4):
                t = GeneratingTuple(spec, tuple(spec.random_element(rng) for _ in range(k)))
                assert is_generating(t) == (closure(t).order == spec.order), t


def test_subgroup_order_matches_closure():
    # the stabilizer chain against breadth-first closure, an independent path
    rng = random.Random(17)
    for spec in (SpecialLinear(2, 3), SpecialLinear(2, 5), ProjSpecialLinear(2, 7),
                 ProjSpecialLinear(2, 11), SpecialLinear(3, 2), SpecialLinear(3, 3),
                 ProjSpecialLinear(3, 3), SpecialLinear(4, 2)):
        e = spec.identity()
        x, y = spec.random_element(rng), spec.random_element(rng)
        cases = [(), (e,), (e, e), (x,), (x, x), (x, e), (x, spec.inv(x), x),
                 (x, spec.mul(x, x)), (x, y, spec.mul(x, y)), (e, x, y)]
        if spec.order > 10_000:
            # one closure of all of SL4(2), 20,160 elements, takes over a second
            cases.pop()
        else:
            for k in (1, 2, 2, 2, 3, 3):
                cases.append(tuple(spec.random_element(rng) for _ in range(k)))
        for items in cases:
            t = GeneratingTuple(spec, items)
            assert subgroup_order(t) == closure(t).order, (spec, items)


def sl3_pair(p, unipotent=False):
    if unipotent:
        rows = ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    else:
        rows = ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    return GeneratingTuple(SpecialLinear(3, p),
                           tuple(FpMatrix.from_rows(p, r) for r in rows))


def test_subgroup_order_pinned_values():
    assert subgroup_order(sl3_pair(5)) == 372_000
    assert subgroup_order(sl3_pair(7)) == sl_order(3, 7)
    assert subgroup_order(sl3_pair(5, unipotent=True)) == 125
    assert subgroup_order(sl3_pair(7, unipotent=True)) == 343
    assert is_generating(sl3_pair(7))
    assert not is_generating(sl3_pair(7, unipotent=True))
    with pytest.raises(ValueError):
        subgroup_order(GeneratingTuple(CyclicPower(6, 2), ((1, 0),)))


def test_subgroup_order_checks_its_deadline_before_each_stage(monkeypatch):
    # a clock past the deadline at its k-th read: read 1 is before the
    # points are listed, and each later read follows a permutation and
    # comes before its inverse, so k - 2 inverses are formed
    inverses = []
    real = groups._inverse
    monkeypatch.setattr(groups, "_inverse", lambda a: inverses.append(1) or real(a))
    for k in (1, 2, 3):
        reads, inverses[:] = iter(range(1, 100)), []
        monkeypatch.setattr(groups.time, "monotonic", lambda: next(reads))
        with pytest.raises(TimeoutError):
            subgroup_order(sl3_pair(5), deadline=k - 0.5)
        assert next(reads) == k + 1 and len(inverses) == max(0, k - 2)


def test_random_element_draws_without_enumerating():
    rng = random.Random(3)
    counts = {}
    spec = SpecialLinear(2, 3)
    for _ in range(2400):
        x = spec.random_element(rng)
        counts[x] = counts.get(x, 0) + 1
    # uniform on all 24 elements: each about 100 times
    assert len(counts) == 24 and min(counts.values()) > 60
    for spec in (SpecialLinear(3, 7), ProjSpecialLinear(3, 7), ProjSpecialLinear(2, 5)):
        for _ in range(20):
            spec.validate(spec.random_element(rng))


def test_fast_test_matches_closure_on_samples():
    rng = random.Random(41)
    for spec in (SpecialLinear(2, 7), ProjSpecialLinear(2, 11)):
        full = spec.order
        agree = 0
        for _ in range(300):
            k = rng.choice((2, 3))
            t = GeneratingTuple(spec, tuple(spec.random_element(rng)
                                            for _ in range(k)))
            fast = sl2_generation_report(t).generates
            brute = len(closure(t).elements) == full
            assert fast == brute
            agree += 1
        assert agree == 300


def test_generation_report_reasons():
    spec = SpecialLinear(2, 7)
    t = FpMatrix.from_rows(7, [[1, 1], [0, 1]])
    u = FpMatrix.from_rows(7, [[1, 3], [0, 1]])
    d = FpMatrix.from_rows(7, [[3, 0], [0, 5]])
    rep = sl2_generation_report(GeneratingTuple(spec, (t, u)))
    assert not rep.generates
    assert rep.reason == "common eigenvector"
    rep = sl2_generation_report(GeneratingTuple(spec, (t, d)))
    assert not rep.generates
    assert rep.reason == "common eigenvector"
    s = FpMatrix.from_rows(7, [[0, -1], [1, 0]])
    rep = sl2_generation_report(GeneratingTuple(spec, (s, t)))
    assert rep.generates
    # anti-diagonal and diagonal elements stabilize a line pair
    w = FpMatrix.from_rows(7, [[0, 3], [2, 0]])
    rep = sl2_generation_report(GeneratingTuple(spec, (d, w)))
    assert not rep.generates
    assert rep.reason in ("invariant line pair",
                          "closure order " + str(len(closure(GeneratingTuple(spec, (d, w))).elements)))


def test_elements_are_a_fresh_list_per_call():
    spec = ProjSpecialLinear(2, 5)
    first = spec.elements()
    expected = list(first)
    first.reverse()
    first.pop()
    assert spec.elements() == expected
    ix = IndexedGroup(spec)
    assert list(ix.tuple_of(range(ix.n)).items) == expected


def _words(spec, xs) -> np.ndarray:
    """The encoding words of each element, one row each."""
    return np.array([np.frombuffer(spec.encode(x), dtype="<u2") for x in xs], dtype=np.int64)


# cyclic:300 has words past one byte, and PSL3(7) a centre of order 3, so
# its representatives pick among three scalings
ARRAY_SPECS = (SpecialLinear(2, 5), ProjSpecialLinear(2, 7), SpecialLinear(3, 2),
               SpecialLinear(3, 7), ProjSpecialLinear(3, 7), ProjSpecialLinear(2, 31),
               CyclicPower(300, 1), CyclicPower(6, 2),
               ProductGroup((ProjSpecialLinear(2, 5), CyclicPower(300, 1))),
               ProductGroup((SpecialLinear(3, 3), ProductGroup((ProjSpecialLinear(3, 7),
                                                                CyclicPower(2, 2))))))


@pytest.mark.parametrize("spec", ARRAY_SPECS, ids=lambda spec: spec.descriptor())
def test_array_product_matches_the_element_product(spec):
    # every element of a group of order at most 2,000, else 400 random ones,
    # times every generator and 5 random elements
    rng = random.Random(spec.order % 1009)
    xs = spec.elements() if spec.order <= 2000 else \
        [spec.random_element(rng) for _ in range(400)]
    rows = _words(spec, xs)
    assert rows.shape[1] == len(spec.word_moduli())
    assert (rows < np.array(spec.word_moduli())).all()
    assert all(spec.decode(r) == x for r, x in zip(rows, xs))
    for g in spec.generators() + tuple(spec.random_element(rng) for _ in range(5)):
        got = spec.left_rows(_words(spec, [g])[0], rows)
        assert np.array_equal(got, _words(spec, [spec.mul(g, x) for x in xs]))


def test_simplicity_classifier():
    assert is_simple_finite(ProjSpecialLinear(2, 5))
    assert is_simple_finite(ProjSpecialLinear(2, 7))
    assert not is_simple_finite(SpecialLinear(2, 5))
    assert is_simple_finite(CyclicPower(5, 1))
    assert not is_simple_finite(CyclicPower(6, 1))
    assert not is_simple_finite(CyclicPower(3, 2))


def test_simplicity_rule_matches_normal_closures():
    # every SL_n(F_p) and PSL_n(F_p) of order at most 500
    specs = [kind(n, p) for kind in (SpecialLinear, ProjSpecialLinear)
             for n in (2, 3, 4) for p in (2, 3, 5, 7, 11) if sl_order(n, p) <= 500]
    assert len(specs) == 10
    # cyclic powers, trivial, prime, composite and of rank above 1
    specs += [CyclicPower(m, k) for m, k in ((1, 1), (1, 3), (2, 1), (4, 1), (5, 1), (6, 1),
                                             (7, 1), (9, 1), (2, 2), (3, 2), (2, 3))]
    # two-factor products with a trivial factor or none, nested included
    trivial, c5, a5 = CyclicPower(1, 2), CyclicPower(5, 1), ProjSpecialLinear(2, 5)
    specs += [ProductGroup(fs) for fs in (
        (trivial, a5), (a5, trivial), (trivial, c5), (trivial, CyclicPower(1, 1)),
        (trivial, SpecialLinear(2, 5)), (CyclicPower(2, 1), CyclicPower(3, 1)),
        (c5, c5), (a5, CyclicPower(2, 1)), (ProductGroup((c5, trivial)), trivial))]
    for spec in specs:
        assert is_simple_finite(spec) == simple_by_normal_closures(spec), spec
    assert sum(map(is_simple_finite, specs)) == 11
    # past the brute force's reach the rule still answers
    assert is_simple_finite(SpecialLinear(3, 5))        # centre of order gcd(3, 4) = 1
    assert not is_simple_finite(SpecialLinear(3, 7))    # centre of order 3
    assert is_simple_finite(ProjSpecialLinear(3, 7))
    assert is_simple_finite(CyclicPower(65521, 1))
    assert not is_simple_finite(CyclicPower(7, 4))
    assert not is_simple_finite(Integers())


def test_psl_elements_are_canonical_matrices():
    spec = ProjSpecialLinear(2, 5)
    s, t = spec.generators()
    assert isinstance(s, FpMatrix) and isinstance(spec.identity(), FpMatrix)
    assert spec.mul(s, t) == canonical_rep(s * t)
    assert spec.inv(t) == canonical_rep(t.inverse())
    for x in (s, t, spec.mul(s, t), spec.inv(s), spec.random_element(random.Random(1))):
        spec.validate(x)
    with pytest.raises(ValueError, match="canonical"):
        spec.validate(spec.identity().scaled(4))      # -I, not canonical
    with pytest.raises(ValueError, match="determinant"):
        spec.validate(FpMatrix.from_rows(5, [[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="expected FpMatrix"):
        spec.validate((1, 0, 0, 1))
    # SL and PSL share a base but stay distinct groups
    sl = SpecialLinear(2, 5)
    assert sl != spec and sl.descriptor() != spec.descriptor()
    sl.validate(sl.identity().scaled(4))      # -I


def test_psl2_isomorphism_count(pgl2):
    # Aut(PSL2(5)) is conjugation by PGL2(5), of order p(p^2-1) = 120: the
    # graph tuple of each automorphism is rejected and names its conjugator
    conjugators, conjugate = pgl2
    g = ProjSpecialLinear(2, 5)
    prod = ProductGroup((g, g))
    pair = standard_pair(g).items
    diagnoses = set()
    for c in conjugators(5):
        rep = product_generates(GeneratingTuple(
            prod, tuple((x, conjugate(c, x)) for x in pair)))
        assert not rep.generates
        if c.is_identity():
            assert rep.reason == "graph of identity"
        else:
            assert rep.reason == ("graph of isomorphism (conjugation by "
                                     f"{list(map(list, c.rows()))} mod 5)")
        diagnoses.add(rep.reason)
        assert len(rep.isomorphism) == 60
        for x in g.elements():
            assert g.encode(rep.isomorphism[g.encode(x)]) == \
                g.encode(conjugate(c, x))
    assert len(diagnoses) == 120


def test_product_generates_mixed_factors():
    p1 = ProjSpecialLinear(2, 5)
    p2 = ProjSpecialLinear(2, 7)
    prod = ProductGroup((p1, p2))
    a1 = projective_canonicalize(FpMatrix.from_rows(5, [[0, -1], [1, 0]]))
    b1 = projective_canonicalize(FpMatrix.from_rows(5, [[1, 1], [0, 1]]))
    a2 = projective_canonicalize(FpMatrix.from_rows(7, [[0, -1], [1, 0]]))
    b2 = projective_canonicalize(FpMatrix.from_rows(7, [[1, 1], [0, 1]]))
    rep = product_generates(GeneratingTuple(prod, ((a1, a2), (b1, b2))))
    assert rep.generates
    assert "non-isomorphic" in rep.reason


def test_product_rejects_diagonal():
    p1 = ProjSpecialLinear(2, 5)
    prod = ProductGroup((p1, p1))
    a = projective_canonicalize(FpMatrix.from_rows(5, [[0, -1], [1, 0]]))
    b = projective_canonicalize(FpMatrix.from_rows(5, [[1, 1], [0, 1]]))
    rep = product_generates(GeneratingTuple(prod, ((a, a), (b, b))))
    assert not rep.generates
    assert rep.reason == "graph of identity"
    assert rep.isomorphism is not None


def test_product_rejects_twisted_diagonal():
    p1 = ProjSpecialLinear(2, 5)
    prod = ProductGroup((p1, p1))
    a = projective_canonicalize(FpMatrix.from_rows(5, [[0, -1], [1, 0]]))
    b = projective_canonicalize(FpMatrix.from_rows(5, [[1, 1], [0, 1]]))
    c = projective_canonicalize(FpMatrix.from_rows(5, [[2, 0], [1, 3]]))
    ci = p1.inv(c)
    twisted = GeneratingTuple(prod, ((a, p1.mul(p1.mul(c, a), ci)),
                                     (b, p1.mul(p1.mul(c, b), ci))))
    rep = product_generates(twisted)
    assert not rep.generates
    assert "graph of isomorphism" in rep.reason


def test_product_proper_projection():
    p1 = ProjSpecialLinear(2, 5)
    p2 = ProjSpecialLinear(2, 7)
    prod = ProductGroup((p1, p2))
    a1 = projective_canonicalize(FpMatrix.from_rows(5, [[0, -1], [1, 0]]))
    b1 = projective_canonicalize(FpMatrix.from_rows(5, [[1, 1], [0, 1]]))
    t2 = projective_canonicalize(FpMatrix.from_rows(7, [[1, 1], [0, 1]]))
    u2 = projective_canonicalize(FpMatrix.from_rows(7, [[1, 3], [0, 1]]))
    rep = product_generates(GeneratingTuple(prod, ((a1, t2), (b1, u2))))
    assert not rep.generates
    assert rep.reason == "projection 2 proper"


def test_product_agreement_with_closure_sample():
    rng = random.Random(7)
    p1 = ProjSpecialLinear(2, 5)
    prod = ProductGroup((p1, p1))
    full = prod.order
    for _ in range(40):
        k = rng.choice((2, 3))
        t = GeneratingTuple(prod, tuple(prod.random_element(rng)
                                        for _ in range(k)))
        rep = product_generates(t)
        brute = len(closure(t).elements) == full
        assert rep.generates == brute, rep.reason


def test_descriptor_round_trip():
    for spec in (SpecialLinear(2, 5), ProjSpecialLinear(3, 3),
                 CyclicPower(12, 3), Integers(),
                 ProductGroup((CyclicPower(2, 2), SpecialLinear(2, 3)))):
        d = spec.descriptor()
        assert isinstance(d, str) and d
