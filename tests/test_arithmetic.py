"""Rational tuples, reduction modulo primes, and density certificates."""

import json
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from genrank import arithmetic
from genrank.arithmetic import (DenominatorClash, DensityCertificate, PlanConfig,
                                RationalMatrix, RationalTuple, assess_irredundancy,
                                assess_nielsen_irredundancy, certify_density,
                                deserialize_certificate, plan_primes,
                                reduce_matrix_mod_p, reduce_tuple_mod_p,
                                replay_certificate, serialize_certificate,
                                tuple_from_entry_strings)
from genrank.groups import is_generating
from genrank.nielsen import all_moves
from reference import apply_move, apply_move_rational

F = Fraction


def rmat(rows):
    return RationalMatrix.from_rows(rows)


def standard_pair():
    return RationalTuple((rmat([[0, -1], [1, 0]]), rmat([[1, 1], [0, 1]])))


def borel_pair():
    return RationalTuple((rmat([[1, 1], [0, 1]]),
                          rmat([[2, 0], [0, F(1, 2)]])))


def test_determinant_one_enforced():
    with pytest.raises(ValueError):
        rmat([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        rmat([[F(1, 2), 0], [0, 1]])
    m = rmat([[F(1, 2), 0], [0, 2]])
    assert m.det() == 1


def test_rational_inverse_and_product():
    a = rmat([[1, F(3, 2)], [0, 1]])
    b = rmat([[1, 0], [F(-2, 5), 1]])
    prod = a * b
    assert prod.det() == 1
    assert (a * a.inverse()).is_identity()
    assert (prod * prod.inverse()).is_identity()


def test_reduce_standard_pair():
    t = standard_pair()
    rt = reduce_tuple_mod_p(t, 5)
    assert rt.group.descriptor() == "sl2:5"
    assert rt.items[0].rows() == ((0, 4), (1, 0))
    assert rt.items[1].rows() == ((1, 1), (0, 1))


def test_reduce_with_denominators():
    m = rmat([[F(1, 2), 0], [0, 2]])
    r = reduce_matrix_mod_p(m, 5)
    # 1/2 = 3 mod 5
    assert r.rows() == ((3, 0), (0, 2))
    with pytest.raises(DenominatorClash):
        reduce_matrix_mod_p(m, 2)


def test_reduction_is_homomorphism():
    rng = random.Random(5)
    pool = [rmat([[1, F(rng.randrange(-4, 5), rng.choice((1, 2, 3)))], [0, 1]])
            for _ in range(6)]
    pool += [rmat([[1, 0], [F(rng.randrange(-4, 5), rng.choice((1, 3))), 1]])
             for _ in range(6)]
    for p in (5, 7, 11):
        for _ in range(40):
            a, b = rng.choice(pool), rng.choice(pool)
            lhs = reduce_matrix_mod_p(a * b, p)
            rhs = reduce_matrix_mod_p(a, p) * reduce_matrix_mod_p(b, p)
            assert lhs == rhs


def test_denominator_primes_collected():
    t = borel_pair()
    assert t.denominator_primes() == (2,)
    m = rmat([[F(1, 6), 0], [0, 6]])
    assert RationalTuple((m,)).denominator_primes() == (2, 3)


def test_fingerprint_distinguishes_tuples():
    assert standard_pair().fingerprint() == standard_pair().fingerprint()
    assert standard_pair().fingerprint() != borel_pair().fingerprint()


def test_entry_strings_round_trip():
    t = borel_pair()
    again = tuple_from_entry_strings(t.entry_strings())
    assert again == t
    assert again.fingerprint() == t.fingerprint()


def test_plan_excludes_denominator_primes():
    plan = plan_primes(borel_pair())
    assert 2 not in plan.candidates
    assert plan.excluded_denominator_primes == (2,)
    assert len(plan.candidates) == 10
    assert all(p > plan.exceptional_floor for p in plan.candidates)


def test_plan_floor_clamped():
    plan = plan_primes(standard_pair(), PlanConfig(exceptional_floor=0))
    assert plan.exceptional_floor == 3
    assert any("floor" in n for n in plan.notes)
    assert plan.candidates[0] == 5


def test_plan_explicit_primes():
    plan = plan_primes(standard_pair(),
                       PlanConfig(explicit_primes=(7, 3, 7)))
    assert plan.candidates == (7, 3)
    assert any("below" in n for n in plan.notes)
    with pytest.raises(ValueError):
        plan_primes(borel_pair(), PlanConfig(explicit_primes=(2,)))


def test_certify_standard_pair():
    result = certify_density(standard_pair())
    assert isinstance(result, DensityCertificate) and result.certified
    assert result.witness_prime == 5
    assert result.evidence_kind == "closure-order"
    assert result.closure_order == 120
    assert result.per_prime[0].generates


def test_certificate_replay_bytewise():
    s = serialize_certificate(certify_density(standard_pair()))
    ok, msg = replay_certificate(s)
    assert ok, msg
    obj = deserialize_certificate(s)
    assert serialize_certificate(obj) == s


def test_borel_pair_not_certified():
    result = certify_density(borel_pair())
    assert isinstance(result, DensityCertificate) and not result.certified
    assert len(result.per_prime) == 10
    for rec in result.per_prime:
        assert not rec.generates
        assert rec.diagnosis == "common eigenvector"
    assert "not a proof" in result.caveat
    s = serialize_certificate(result)
    ok, msg = replay_certificate(s)
    assert ok, msg


def test_certify_sl3_standard_pair():
    # order evidence for SL3(5) from a stabilizer chain, not from listing
    # its 372,000 elements
    t = RationalTuple((rmat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                       rmat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])))
    t0 = time.monotonic()
    result = certify_density(t)
    assert isinstance(result, DensityCertificate) and result.certified
    assert result.witness_prime == 5
    assert result.closure_order == 372_000
    assert result.evidence_kind == "closure-order"
    assert result.per_prime[0].diagnosis == "full closure"
    ok, msg = replay_certificate(serialize_certificate(result))
    assert ok, msg
    assert time.monotonic() - t0 < 5


def test_sl3_unipotent_pair_not_certified():
    # unitriangular at every prime; mod 7 and up too large for closure
    t = RationalTuple((rmat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                       rmat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])))
    result = certify_density(t)
    assert isinstance(result, DensityCertificate) and not result.certified
    assert result.per_prime[0].diagnosis == "closure order 125"
    assert all(not r.generates for r in result.per_prime)
    assert all(r.diagnosis == "undecided: too large for closure evidence"
               for r in result.per_prime[1:])
    ok, msg = replay_certificate(serialize_certificate(result))
    assert ok, msg


def test_uncertified_report_carries_no_evidence():
    # certified or not, one record: a report that did not certify
    # round-trips with null evidence, and evidence set by hand diverges
    unipotent = RationalTuple((rmat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                               rmat([[1, 0, 0], [0, 1, 1], [0, 0, 1]])))
    for t in (borel_pair(), unipotent):
        result = certify_density(t)
        assert not result.certified
        assert (result.witness_prime, result.evidence_kind, result.closure_order,
                result.fast_test_reason) == (None, None, None, None)
        s = serialize_certificate(result)
        assert serialize_certificate(deserialize_certificate(s)) == s
        for key, value in (("witness_prime", 5), ("evidence_kind", "closure-order"),
                           ("closure_order", 120)):
            doc = json.loads(s)
            doc[key] = value
            bad = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            assert replay_certificate(bad) == (
                False, "replay diverged from the stored certificate"), key


def test_tampered_certificate_fails_replay():
    s = serialize_certificate(certify_density(standard_pair()))
    doc = json.loads(s)
    doc["witness_prime"] = 7
    bad = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    ok, msg = replay_certificate(bad)
    assert not ok


def test_moves_commute_with_reduction():
    rng = random.Random(23)
    t = standard_pair()
    moves = all_moves(2)
    for p in (5, 7, 13):
        cur = t
        for _ in range(25):
            mv = moves[rng.randrange(len(moves))]
            cur = apply_move_rational(cur, mv)
            lhs = reduce_tuple_mod_p(cur, p)
            assert all(m.det() == 1 for m in cur.matrices)
        # reducing the walked tuple equals walking the reduced tuple
    walked = t
    path = [moves[rng.randrange(len(moves))] for _ in range(10)]
    for mv in path:
        walked = apply_move_rational(walked, mv)
    for p in (5, 11):
        red = reduce_tuple_mod_p(t, p)
        for mv in path:
            red = apply_move(red, mv)
        assert red.items == reduce_tuple_mod_p(walked, p).items


def test_moves_preserve_generation_of_reductions():
    t = standard_pair()
    mv = all_moves(2)[0]
    moved = apply_move_rational(t, mv)
    for p in (5, 7):
        assert is_generating(reduce_tuple_mod_p(moved, p))


def test_irredundancy_evidence():
    ev = assess_irredundancy(standard_pair(), prime_count=3)
    assert ev.summary == "all-irredundant"
    assert len(ev.records) == 3
    s, t = standard_pair().matrices
    redundant = RationalTuple((s, t, s * t))
    ev2 = assess_irredundancy(redundant, prime_count=3)
    assert ev2.summary == "all-redundant"
    assert all(any(r.droppable) for r in ev2.records)
    # redundant generating mod 5, irredundant generating mod 7
    mixed = RationalTuple((rmat([[13, 4], [3, 1]]), s, rmat([[4, 13], [3, 10]])))
    ev3 = assess_irredundancy(mixed, prime_count=2)
    assert [r.verdict for r in ev3.records] == ["RedundantGenerating", "IrredundantGenerating"]
    assert ev3.summary == "mixed"


def test_nielsen_evidence():
    ev = assess_nielsen_irredundancy(standard_pair(), prime_count=2)
    assert ev.summary == "all-nielsen-irredundant"
    s, t = standard_pair().matrices
    redundant = RationalTuple((s, t, s * t))
    ev2 = assess_nielsen_irredundancy(redundant, prime_count=2)
    assert ev2.summary == "all-nielsen-redundant"


def test_never_generating_summary():
    ev = assess_irredundancy(borel_pair(), prime_count=3)
    assert ev.summary == "never-generating"
    ev2 = assess_nielsen_irredundancy(borel_pair(), prime_count=3)
    assert [r.verdict for r in ev2.records] == ["NotGenerating"] * 3
    assert ev2.summary == "never-generating"


def test_mixed_nielsen_summary(monkeypatch):
    # a generating pair of SL2(p) is always Nielsen irredundant, and a
    # generating triple of SL2(5) or SL2(7) never is (mu = 2), so the
    # walk's verdicts are set per call
    verdicts = iter(("NielsenIrredundant", "NielsenRedundant"))
    monkeypatch.setattr(arithmetic, "is_nielsen_redundant",
                        lambda gt, limits: SimpleNamespace(verdict=next(verdicts), visited=1))
    ev = assess_nielsen_irredundancy(standard_pair(), prime_count=2)
    assert [r.verdict for r in ev.records] == ["NielsenIrredundant", "NielsenRedundant"]
    assert ev.summary == "mixed"
