"""Irredundance verdicts and the maximal irredundant size search."""

import itertools
import math
import random
import time

import numpy as np

from genrank.fp import FpMatrix, projective_canonicalize
from genrank.groups import (CyclicPower, GeneratingTuple, Integers,
                            ProjSpecialLinear, SpecialLinear, closure,
                            is_generating)
from genrank import indexed, redundancy
from genrank.redundancy import (SearchLimits, cyclic_power_rank_witness,
                                irredundant_witness, is_redundant,
                                max_irredundant_size, z_witness)
from reference import ClosureSearch, conjugated, involution_pair_is_proper


def test_z_witness_values():
    assert z_witness(1).items == (1,)
    assert z_witness(2).items == (3, 2)
    assert z_witness(3).items == (15, 10, 6)
    assert z_witness(4).items == (105, 70, 42, 30)


def test_z_witness_is_irredundant_generating():
    for n in range(1, 7):
        w = z_witness(n)
        rep = is_redundant(w)
        assert rep.verdict == "IrredundantGenerating"
        assert math.gcd(*w.items) == 1 if n > 1 else w.items == (1,)


def test_redundancy_verdicts_in_cyclic_group():
    g = CyclicPower(6, 1)
    assert is_redundant(GeneratingTuple(g, ((2,),))).verdict == "NotGenerating"
    assert is_redundant(GeneratingTuple(g, ((1,),))).verdict == "IrredundantGenerating"
    rep = is_redundant(GeneratingTuple(g, ((1,), (2,))))
    assert rep.verdict == "RedundantGenerating"
    assert rep.droppable == (False, True)
    # both entries needed
    rep = is_redundant(GeneratingTuple(g, ((2,), (3,))))
    assert rep.verdict == "IrredundantGenerating"


def test_max_irredundant_size_psl2_5():
    res = max_irredundant_size(ProjSpecialLinear(2, 5))
    assert res.value == 3
    assert res.exhaustive
    assert res.witness is not None
    assert is_redundant(res.witness).verdict == "IrredundantGenerating"
    print("psl2:5 m =", res.value, "classes", res.stats["recorded"])


def test_max_irredundant_size_sl2_5():
    res = max_irredundant_size(SpecialLinear(2, 5))
    assert res.value == 3
    assert res.exhaustive


def test_witness_survives_conjugation():
    spec = ProjSpecialLinear(2, 5)
    res = max_irredundant_size(spec)
    w = res.witness
    rng = random.Random(1)
    for _ in range(5):
        g = spec.random_element(rng)
        moved = conjugated(w, g)
        assert is_redundant(moved).verdict == "IrredundantGenerating"


def test_cyclic_analytic_matches_forced_search():
    for spec in (CyclicPower(2, 1), CyclicPower(6, 1), CyclicPower(2, 2),
                 CyclicPower(12, 1), CyclicPower(6, 2), CyclicPower(30, 1)):
        fast = max_irredundant_size(spec)
        slow = redundancy._searched_rank(spec, SearchLimits())[0]
        assert fast.value == slow.value, spec.descriptor()
        assert fast.exhaustive and slow.exhaustive


def test_cyclic_rank_formula():
    # k copies of Z/m admit k * omega(m) irredundant generators
    cases = {(2, 1): 1, (2, 3): 3, (6, 1): 2, (6, 2): 4, (30, 1): 3,
             (12, 2): 4, (1000, 3): 6}
    for (m, k), want in cases.items():
        res = max_irredundant_size(CyclicPower(m, k))
        assert res.value == want, (m, k)


def test_cyclic_witness_check_stops_at_the_time_budget(monkeypatch):
    # the value is structural: a clock past the deadline at the first drop
    # test leaves it exact and says that the check stopped
    spec = CyclicPower(2, 6)
    for readings, note in ((1, "witness verification stopped at the time budget"),
                           (10 ** 9, "witness verified by drop tests")):
        with monkeypatch.context() as m:
            count = itertools.count()
            m.setattr(redundancy.time, "monotonic",
                      lambda: 0.0 if next(count) < readings else 1e9)
            res = max_irredundant_size(spec, SearchLimits(time_budget=1.0))
        assert (res.value, res.exhaustive) == (6, True)
        assert res.notes == ("value from the basis rank of each prime part", note)


def test_cyclic_witness_drop_checks():
    spec = CyclicPower(12, 2)
    w = cyclic_power_rank_witness(spec)
    assert len(w) == 4
    rep = is_redundant(w)
    assert rep.verdict == "IrredundantGenerating"


def test_integers_rank_unbounded():
    res = max_irredundant_size(Integers())
    assert res.value is None
    assert res.exhaustive
    assert any("every size" in n for n in res.notes)


def test_budget_gives_lower_bound():
    limits = SearchLimits(node_budget=10, time_budget=600.0)
    res = max_irredundant_size(SpecialLinear(2, 5), limits=limits)
    assert not res.exhaustive
    assert any("budget" in n for n in res.notes)
    if res.value is not None:
        assert res.value <= 3


def test_involution_pair_proper_dihedral():
    spec = ProjSpecialLinear(2, 5)
    els = spec.elements()
    invols = [x for x in els
              if x != spec.identity() and spec.mul(x, x) == spec.identity()]
    assert len(invols) == 15
    a, b = invols[0], invols[3]
    rep = involution_pair_is_proper(GeneratingTuple(spec, (a, b)))
    assert rep.proper
    assert rep.closure_order == 2 * rep.product_order
    assert rep.closure_order <= 2 * (5 + 1)


def test_irredundant_witness_target_size():
    spec = ProjSpecialLinear(2, 5)
    res = irredundant_witness(spec, 3)
    assert res.witness is not None and len(res.witness) == 3
    assert is_redundant(res.witness).verdict == "IrredundantGenerating"
    res4 = irredundant_witness(spec, 4)
    assert res4.witness is None
    assert res4.exhausted


def test_irredundant_witness_involutions_only():
    spec = ProjSpecialLinear(2, 5)
    res = irredundant_witness(spec, 3, involutions_only=True)
    assert res.witness is not None
    e = spec.identity()
    for x in res.witness.items:
        assert spec.mul(x, x) == e


def test_maximal_size_monotone_family():
    # m grows along 2 -> 3 -> 4 as the prime moves 5 -> 7
    m5 = max_irredundant_size(ProjSpecialLinear(2, 5)).value
    m7 = max_irredundant_size(ProjSpecialLinear(2, 7)).value
    assert m5 == 3
    assert m7 == 4


# element classes of irredundant generating sets per size, as counted by
# the element-level search that the search over cyclic subgroups replaced
ELEMENT_CLASSES = {
    ProjSpecialLinear(2, 5): {2: 22, 3: 25},
    SpecialLinear(2, 5): {2: 82, 3: 168},
    ProjSpecialLinear(2, 7): {2: 62, 3: 107, 4: 2},
    SpecialLinear(2, 7): {2: 238, 3: 844, 4: 26},
}


def test_class_counts_per_size():
    for spec, counts in ELEMENT_CLASSES.items():
        res = max_irredundant_size(spec)
        assert res.exhaustive and res.value == max(counts)
        assert res.stats["recorded"] == counts, spec.descriptor()
        ix = indexed.IndexedGroup(spec)
        for size, classes in res.stats["classes"].items():
            assert classes == sorted(set(classes))
            assert all(tuple(ix.canonical_sets(np.array([c], dtype=np.int32))[0].tolist()) == c
                       for c in classes)


def test_closure_path_finds_the_mask_path_classes():
    # the reference search decides each candidate by closure and prunes
    # by independence, not by separation over maximal subgroups
    for spec in (ProjSpecialLinear(2, 5), SpecialLinear(2, 5)):
        masked = redundancy._SetSearch(indexed.IndexedGroup(spec), SearchLimits(),
                                        time.monotonic()).run()
        closed = ClosureSearch(indexed.IndexedGroup(spec), SearchLimits(),
                               time.monotonic()).run()
        assert not closed.budget_hit and not masked.budget_hit
        assert closed.collected == masked.collected
        assert {k: len(v) for k, v in closed.collected.items()} == ELEMENT_CLASSES[spec]


def test_a_budget_stop_keeps_only_finished_tables(monkeypatch):
    # psl2:7 reads the clock about 36 times while its table is built,
    # 17 times in the subgroup walk and 34 times in the search; spies on
    # the build, the masks and the search tell which stage stopped, and
    # the next default call builds everything again
    spec = ProjSpecialLinear(2, 7)
    masks = indexed.IndexedGroup(spec).maximal_masks()
    stages = ((indexed.IndexedGroup, "__init__"), (indexed.IndexedGroup, "maximal_masks"),
              (redundancy._SetSearch, "run"))
    stopped = set()
    for readings in (1, 20, 45, 80):
        finished = {}       # the return value of each stage that finished
        with monkeypatch.context() as m:
            for owner, name in stages:
                def spy(self, *args, real=getattr(owner, name), name=name, **kw):
                    finished[name] = real(self, *args, **kw)
                    return finished[name]
                m.setattr(owner, name, spy)
            # a clock that reads 0 until it has been read `readings` times
            count = itertools.count()
            m.setattr(redundancy.time, "monotonic",
                      lambda: 0.0 if next(count) < readings else 1e9)
            res = max_irredundant_size(spec, SearchLimits(time_budget=1.0))
        assert not res.exhaustive
        if "__init__" not in finished:
            stopped.add("tables")
        elif "maximal_masks" not in finished:
            assert "run" not in finished
            stopped.add("masks")
        else:
            assert np.array_equal(finished["maximal_masks"], masks)
            assert finished["run"].budget_hit
            stopped.add("search")
        res = max_irredundant_size(spec)
        assert res.exhaustive and res.value == 4
        assert res.stats["recorded"] == ELEMENT_CLASSES[spec]
    assert stopped == {"tables", "masks", "search"}


def test_expansion_stops_at_the_deadline(monkeypatch):
    # the clock passes the deadline while the first slice of element sets
    # is canonicalised, so the expansion stops before the second
    ix = indexed.IndexedGroup(SpecialLinear(2, 5))
    monkeypatch.setattr(redundancy, "_TABLE_CELLS", 8)
    clock = [0.0]
    monkeypatch.setattr(redundancy.time, "monotonic", lambda: clock[0])
    canonical_sets = ix.canonical_sets

    def late(rows, families=False):
        if not families:        # element sets: the expansion has begun
            clock[0] = 1e9
        return canonical_sets(rows, families)

    monkeypatch.setattr(ix, "canonical_sets", late)
    out = redundancy._SetSearch(ix, SearchLimits(time_budget=1.0), 0.0).run()
    assert out.budget_hit and out.best_size == 3
    assert len(out.collected) == 1 and 0 < sum(map(len, out.collected.values())) <= 4
