"""Dense index tables: agreement with the object-level group model."""

import itertools
import random
import time
from collections import deque

import numpy as np
import pytest

from genrank.groups import (CyclicPower, GeneratingTuple, ProductGroup,
                            ProjSpecialLinear, SpecialLinear, closure)
from genrank import indexed
from genrank.indexed import MAX_INDEXED_ORDER, IndexedGroup
from genrank.nielsen import _move_cells, _moved, _row_keys, all_moves
from reference import closure_generates, closure_mask, conj_table, conjugate, generates

# past 256 residues the encoding order is not the residue order
Z300 = CyclicPower(300, 1)
PSL2_5_X_C2 = ProductGroup((ProjSpecialLinear(2, 5), CyclicPower(2, 1)))
SPECS = (ProjSpecialLinear(2, 5), SpecialLinear(2, 5), CyclicPower(3, 2),
         Z300, PSL2_5_X_C2)


def test_tables_agree_with_spec_operations():
    for spec in SPECS + (CyclicPower(1, 1),):      # and the trivial group
        ix = IndexedGroup(spec)
        els = ix.tuple_of(range(ix.n)).items
        assert ix.n == spec.order
        for a, b in itertools.product(range(ix.n), repeat=2):
            assert els[ix.mult[a, b]] == spec.mul(els[a], els[b])
        assert all(ix.mult[i, ix.inv[i]] == ix.identity for i in range(ix.n))
        # the table's own enumeration keeps the order of spec.elements()
        assert list(els) == spec.elements()
        assert ix.indices_of(GeneratingTuple(spec, els)) == tuple(range(ix.n))
    assert IndexedGroup(Z300).tuple_of(range(300)).items != tuple((a,) for a in range(300))


@pytest.mark.parametrize("spec", (
    CyclicPower(2, 12), ProductGroup((ProjSpecialLinear(2, 5),) * 2)),
    ids=lambda spec: spec.descriptor())
def test_large_tables_build_in_seconds(spec):
    t0 = time.monotonic()
    ix = IndexedGroup(spec)
    assert time.monotonic() - t0 < 30
    assert ix.n == spec.order
    rng = random.Random(5)
    els = ix.tuple_of(range(ix.n)).items
    for _ in range(300):
        a, b = rng.randrange(ix.n), rng.randrange(ix.n)
        assert els[ix.mult[a, b]] == spec.mul(els[a], els[b])


class _FirstGeneratorOnly(CyclicPower):
    def generators(self):
        return super().generators()[:1]


class _UnreducedSum(CyclicPower):
    def left_rows(self, g, rows):
        return rows + g


def test_table_builder_rejects_broken_specs():
    with pytest.raises(AssertionError, match="do not reach every element"):
        IndexedGroup(_FirstGeneratorOnly(3, 2))
    with pytest.raises(AssertionError, match="escaped the element table"):
        IndexedGroup(_UnreducedSum(3, 2))


def test_orders_table():
    for spec in SPECS:
        ix = IndexedGroup(spec)
        for i in (0, 1, ix.n // 2, ix.n - 1):
            x = ix.tuple_of([i]).items[0]
            k = int(ix.orders[i])
            acc = x
            for _ in range(k - 1):
                acc = spec.mul(acc, x)
            assert acc == spec.identity()
            if k > 1:
                # no smaller positive power is trivial
                acc = x
                for _ in range(k - 2):
                    assert acc != spec.identity()
                    acc = spec.mul(acc, x)


def test_conjugation_table():
    # the dense reference against the group model
    for spec in SPECS:
        if spec.is_abelian:
            continue
        ix = IndexedGroup(spec)
        els, conj = ix.tuple_of(range(ix.n)).items, conj_table(ix)
        for g, x in itertools.product(range(ix.n), repeat=2):
            assert els[conj[g, x]] == conjugate(spec, els[x], els[g])


def _reference_class_data(ix, conj):
    """(rep, wit) off the dense table: column x of conj is the class of
    x, and wit[x] the least g^-1 with g r g^-1 = x."""
    rep = conj.min(axis=0).astype(np.int32)
    wit = np.full(ix.n, ix.n, dtype=np.int32)
    for r in np.flatnonzero(rep == np.arange(ix.n)).tolist():
        np.minimum.at(wit, conj[:, r], ix.inv)
    return rep, wit


@pytest.mark.parametrize("spec", (
    ProjSpecialLinear(2, 5), ProjSpecialLinear(2, 11), SpecialLinear(2, 7), PSL2_5_X_C2),
    ids=lambda spec: spec.descriptor())
def test_conjugation_reads_match_the_dense_table(spec):
    # psl2:11 has n = 660, where g * n + x passes 16 bits
    ix = IndexedGroup(spec)
    conj, ar = conj_table(ix), np.arange(ix.n, dtype=np.int32)
    assert np.array_equal(ix.conj_rows(ar), conj)
    assert np.array_equal(ix.conj_at(ar[:, None], ar), conj)
    rng = np.random.default_rng(ix.n)
    g, x = (rng.integers(0, ix.n, size=(50, 3), dtype=np.int32) for _ in range(2))
    assert np.array_equal(ix.conj_at(g, x), conj[g, x])
    assert np.array_equal(ix.conj_at(g[:, :1], x), conj[g[:, :1], x])
    assert np.array_equal(ix.conj_rows(g[:, 0]), conj[g[:, 0]])
    for got, want in zip(ix._class_data, _reference_class_data(ix, conj)):
        assert got.dtype == np.int32 and np.array_equal(got, want)


@pytest.mark.parametrize("spec", (ProjSpecialLinear(2, 7), SpecialLinear(2, 5), PSL2_5_X_C2),
                         ids=lambda spec: spec.descriptor())
def test_mult_is_the_only_square_table(spec):
    # every derived structure built: classes, keys, masks and both chains
    ix = IndexedGroup(spec)
    rows = np.random.default_rng(3).integers(0, ix.n, size=(100, 3), dtype=np.int32)
    ix.canonical_tuples(rows), ix.canonical_sets(rows), ix.canonical_sets(rows, families=True)
    ix.maximal_masks()
    square = [name for name, value in vars(ix).items()
              if isinstance(value, np.ndarray) and value.shape == (ix.n, ix.n)]
    assert square == ["mult"]


class _CountingSpec:
    """A spec that counts its element products and the rows its array
    product multiplies."""

    def __init__(self, spec):
        self.spec, self.products, self.rows = spec, 0, 0

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def mul(self, a, b):
        self.products += 1
        return self.spec.mul(a, b)

    def left_rows(self, g, rows):
        self.rows += len(rows)
        return self.spec.left_rows(g, rows)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.descriptor())
def test_table_build_forms_each_product_once(spec):
    # every product g x of a generator and an element is formed once, in
    # the array product, and none by spec.mul
    counting = _CountingSpec(spec)
    ix = IndexedGroup(counting)
    if not spec.is_abelian:
        ix._chain       # classes and chain read from mult: no product of elements
    assert counting.products == 0
    assert counting.rows == ix.n * len(spec.generators())


def test_central_mask():
    for spec, centre in ((SpecialLinear(2, 5), 2), (ProjSpecialLinear(2, 5), 1),
                         (PSL2_5_X_C2, 2), (CyclicPower(3, 2), 9)):
        ix = IndexedGroup(spec)
        assert int(ix.central.sum()) == centre
        # central means commuting with every element, not only the generators
        assert all((ix.mult[x] == ix.mult[:, x]).all() == ix.central[x]
                   for x in range(ix.n))


def test_closure_mask_matches_object_closure():
    rng = random.Random(17)
    spec = ProjSpecialLinear(2, 5)
    ix = IndexedGroup(spec)
    for _ in range(25):
        k = rng.choice((1, 2))
        gens = [rng.randrange(ix.n) for _ in range(k)]
        mask, count, exceeded, found = closure_mask(ix, gens)
        assert not exceeded
        t = ix.tuple_of(gens)
        brute = closure(t)
        assert count == brute.order
        got = set(ix.tuple_of(np.flatnonzero(mask)).items)
        assert got == set(brute.elements)


def test_closure_mask_cap_and_target():
    spec = ProjSpecialLinear(2, 7)
    ix = IndexedGroup(spec)
    gens = ix.indices_of(GeneratingTuple(spec, tuple(spec.generators())))
    mask, count, exceeded, found = closure_mask(ix, list(gens), cap=20)
    assert exceeded and count > 20
    # found says whether the closure holds target
    target = int(np.flatnonzero(~mask)[0]) if (~mask).any() else 5
    mask2, count2, exceeded2, found2 = closure_mask(ix, list(gens), target=target)
    assert found2


def test_generates_matches_is_generating():
    rng = random.Random(29)
    for spec in (ProjSpecialLinear(2, 5), SpecialLinear(2, 5)):
        ix = IndexedGroup(spec)
        for _ in range(120):
            k = rng.choice((2, 3))
            gens = tuple(rng.randrange(ix.n) for _ in range(k))
            assert generates(ix, gens) == (closure(ix.tuple_of(gens)).order == spec.order)


def test_generates_matches_closure_on_every_pair_of_sl2_5():
    ix = IndexedGroup(SpecialLinear(2, 5))
    for i in range(ix.n):
        for j in range(ix.n):
            assert generates(ix, (i, j)) == closure_generates(ix, (i, j)), (i, j)


@pytest.mark.parametrize("spec", (
    ProjSpecialLinear(2, 7), SpecialLinear(2, 7), ProjSpecialLinear(2, 11),
    ProductGroup((ProjSpecialLinear(2, 5), CyclicPower(2, 1))), CyclicPower(6, 2),
    CyclicPower(2, 6), ProductGroup((CyclicPower(2, 3), CyclicPower(2, 2)))),
    ids=lambda spec: spec.descriptor())
def test_generates_matches_closure_on_random_tuples(spec):
    # (Z/2)^6 and (Z/2)^3 x (Z/2)^2 have thousands of subgroups but read
    # their 63 and 31 maximal ones off the kernels onto Z/2
    rng = random.Random(41)
    ix = IndexedGroup(spec)
    seen = set()
    for _ in range(300):
        size = rng.randint(2, 8 if spec.is_abelian else 4)
        gens = tuple(rng.randrange(ix.n) for _ in range(size))
        verdict = generates(ix, gens)
        assert verdict == closure_generates(ix, gens), gens
        seen.add(verdict)
    assert seen == {True, False}


def test_generates_small_sets_from_orders():
    for spec in (CyclicPower(12, 1), ProjSpecialLinear(2, 5)):
        ix = IndexedGroup(spec)
        assert generates(ix, ()) is False
        for i in range(ix.n):
            assert generates(ix, (i, i)) == closure_generates(ix, (i,))
        # no set of two or more distinct elements was asked about
        assert ix._masks is None
    assert generates(IndexedGroup(CyclicPower(1, 2)), ())


@pytest.mark.parametrize("p, count", ((5, 21), (7, 22), (11, 89)))
def test_maximal_subgroup_counts(p, count):
    # the centre of SL2(p) is Frattini: both groups have the same count
    for spec in (ProjSpecialLinear(2, p), SpecialLinear(2, p)):
        masks = IndexedGroup(spec).maximal_masks()
        assert masks.dtype == np.uint64
        bits = np.unpackbits(np.bitwise_or.reduce(masks, axis=0).view(np.uint8))
        assert int(bits.sum()) == count


def _canonical_set(ix, s) -> tuple:
    """The least sorted image of one set: canonical_sets on one row."""
    return tuple(ix.canonical_sets(np.array([list(s)], dtype=np.int32))[0].tolist())


def _reference_maximal_masks(ix):
    """The maximal-subgroup walk with one closure_mask per join and one
    canonical set per proper join, packed as maximal_masks packs it."""
    n, key, conj = ix.n, ix.cyclic_key, conj_table(ix)
    cyclic = [c for c in np.flatnonzero(key == np.arange(n)).tolist() if c != ix.identity]
    queue = deque([((), closure_mask(ix, ())[0])])
    seen = {_canonical_set(ix, (ix.identity,))}
    maximal = []
    while queue:
        gens, hmask = queue.popleft()
        members = np.flatnonzero(hmask)
        norm = np.flatnonzero(hmask[conj[:, members]].all(axis=1))
        reached = np.zeros(n, dtype=bool)
        is_maximal = True
        for c in cyclic:
            if hmask[c] or reached[c]:
                continue
            reached[key[conj[norm, c]]] = True
            jmask, _, whole, _ = closure_mask(ix, gens + (c,), cap=n // 2)
            if not whole:
                is_maximal = False
                ckey = _canonical_set(ix, np.flatnonzero(jmask))
                if ckey not in seen:
                    seen.add(ckey)
                    queue.append((gens + (c,), jmask))
        if is_maximal:
            maximal.append((members, norm))
    conjugates = []
    for members, norm in maximal:
        todo = np.ones(n, dtype=bool)
        while todo.any():
            g = int(np.argmax(todo))
            todo[ix.mult[g, norm]] = False
            conjugates.append(conj[g, members])
    masks = np.zeros((n, max(1, -(-len(conjugates) // 64))), dtype=np.uint64)
    for bit, image in enumerate(conjugates):
        masks[image, bit // 64] |= np.uint64(1 << (bit % 64))
    return masks


def _columns(masks) -> list:
    """The member sets of the maximal subgroups, packed, in bit order."""
    bits = np.unpackbits(masks.view(np.uint8), axis=1, bitorder="little")
    return [bytes(np.packbits(col)) for col in bits.T if col.any()]


@pytest.mark.parametrize("spec", (
    ProjSpecialLinear(2, 5), SpecialLinear(2, 5), ProjSpecialLinear(2, 7),
    ProjSpecialLinear(2, 11), SpecialLinear(2, 7), CyclicPower(5, 2), CyclicPower(3, 3),
    PSL2_5_X_C2, CyclicPower(2, 5), ProductGroup((CyclicPower(4, 1), CyclicPower(6, 1)))),
    ids=lambda spec: spec.descriptor())
def test_maximal_masks_match_the_per_join_walk(spec):
    # an abelian group reads its maximal subgroups off the kernels onto
    # Z/p, in another order: every reader ANDs or ORs across the bits
    ix = IndexedGroup(spec)
    masks, want = ix.maximal_masks(), _reference_maximal_masks(ix)
    if spec.is_abelian:
        assert sorted(_columns(masks)) == sorted(_columns(want))
        assert masks.shape == want.shape
    else:
        assert np.array_equal(masks, want)


def _huppert(spec) -> dict:
    """Huppert, Endliche Gruppen I, II.8.27, for a prime p >= 5: the order
    of each maximal subgroup of PSL2(p) -> its number of conjugates, a
    class of a subgroup H (its own normalizer) holding |G|/|H| of them.
    In SL2(p) each is the preimage, of twice the order."""
    p, z = spec.p, spec.order // ProjSpecialLinear(2, spec.p).order
    out = {}
    for order, classes, maximal in (
            (p * (p - 1) // 2, 1, True),            # the Borel subgroup
            (p - 1, 1, p >= 13),                    # D_{p-1}
            (p + 1, 1, p != 7),                     # D_{p+1}
            (12, 1, p % 8 in (3, 5) and p % 10 in (3, 5, 7)),     # A4
            (24, 2, p % 8 in (1, 7)),               # S4
            (60, 2, p % 10 in (1, 9))):             # A5
        if maximal:
            out[z * order] = out.get(z * order, 0) + classes * spec.order // (z * order)
    return out


DICKSON = ((ProjSpecialLinear(2, 5), {6: 10, 10: 6, 12: 5}),
           (ProjSpecialLinear(2, 7), {21: 8, 24: 14}),
           (ProjSpecialLinear(2, 11), {12: 55, 55: 12, 60: 22}),
           (SpecialLinear(2, 5), {12: 10, 20: 6, 24: 5}),
           (SpecialLinear(2, 7), {42: 8, 48: 14}),
           (ProjSpecialLinear(2, 13), {12: 182, 14: 78, 78: 14}),
           (ProjSpecialLinear(2, 17), {16: 153, 18: 136, 24: 204, 136: 18}),
           (ProjSpecialLinear(2, 19), {18: 190, 20: 171, 60: 114, 171: 20}),
           (SpecialLinear(2, 11), {24: 55, 110: 12, 120: 22}),
           (SpecialLinear(2, 13), {24: 182, 28: 78, 156: 14}))


@pytest.mark.parametrize("spec, orders", DICKSON, ids=[s.descriptor() for s, _ in DICKSON])
def test_maximal_masks_follow_dicksons_list(spec, orders):
    # Dickson's list of the maximal subgroups of PSL2(p), conjugates
    # counted apart, as measured and as the theorem gives it; in SL2(p)
    # each is the preimage of one of them.  Up to p = 11 each column is
    # checked by closure: it is a subgroup, and it and any element outside
    # it generate the group (one element per right coset).  Past that only
    # the counts are.
    assert orders == _huppert(spec)
    ix = IndexedGroup(spec)
    bits = np.unpackbits(ix.maximal_masks().view(np.uint8), axis=1, bitorder="little")
    columns = [np.flatnonzero(col) for col in bits.T if col.any()]
    sizes = [len(col) for col in columns]
    assert {k: sizes.count(k) for k in set(sizes)} == orders
    for col in columns if spec.p <= 11 else ():
        inside = np.zeros(ix.n, dtype=bool)
        inside[col] = True
        assert inside[ix.mult[col[:, None], col]].all()
        gens = []
        while closure_mask(ix, gens)[1] < len(col):
            gens.append(int(col[~closure_mask(ix, gens)[0][col]][0]))
        todo = ~inside
        while todo.any():
            x = int(np.argmax(todo))
            todo[ix.mult[col, x]] = False
            assert closure_mask(ix, gens + [x])[1] == ix.n


def test_closure_rows_match_closure_mask():
    # each row grows from a proper subgroup by its generators and one
    # more, as in the subgroup walk
    rng = random.Random(59)
    ix = IndexedGroup(SpecialLinear(2, 5))
    seen = set()
    for _ in range(40):
        gens = tuple(rng.randrange(ix.n) for _ in range(rng.randint(0, 2)))
        start, size, _, _ = closure_mask(ix, gens)
        if size > ix.n // 2:
            continue
        extra = [rng.randrange(ix.n) for _ in range(rng.randint(1, 6))]
        cap = rng.choice((None, ix.n // 2))
        rows = np.array([gens + (c,) for c in extra], dtype=np.int32)
        masks, counts, exceeded = ix.closure_rows(
            np.broadcast_to(start, (len(extra), ix.n)), rows, cap=cap)
        for c, mask, count, over in zip(extra, masks, counts, exceeded):
            want, want_count, want_over, _ = closure_mask(ix, gens + (c,), cap=cap)
            assert over == want_over
            if not over:
                assert count == want_count and np.array_equal(mask, want)
            seen.add((cap, bool(over), count == ix.n))
    assert {(None, False, True), (ix.n // 2, True, False)} <= seen


def test_canonical_set_is_conjugation_invariant():
    rng = random.Random(31)
    spec = ProjSpecialLinear(2, 5)
    ix = IndexedGroup(spec)
    conj = conj_table(ix)
    for _ in range(60):
        s = tuple(sorted({rng.randrange(ix.n) for _ in range(3)}))
        c = _canonical_set(ix, s)
        g = rng.randrange(ix.n)
        moved = tuple(sorted(int(conj[g, x]) for x in s))
        assert _canonical_set(ix, moved) == c
        assert _canonical_set(ix, c) == c
        # families: <x> goes to <g x g^-1>, whichever generator names it
        family = ix.canonical_sets(np.array([s, moved, c], dtype=np.int32), families=True)
        assert (family == family[0]).all()
        again = ix.canonical_sets(family[:1], families=True)
        assert (again == family[:1]).all()


def _least_image(ix, s, name=None):
    """Brute force: the least sorted image over all n conjugators, each
    image entry passed through name (the cyclic key, for families)."""
    cols = conj_table(ix)[:, list(s)]
    cols = np.sort(cols if name is None else name[cols], axis=1)
    return tuple(int(v) for v in cols[np.lexsort(cols.T[::-1])[0]])


@pytest.mark.parametrize("spec", (
    ProjSpecialLinear(2, 5), SpecialLinear(2, 5), ProjSpecialLinear(2, 7),
    SpecialLinear(2, 7), CyclicPower(5, 2), PSL2_5_X_C2), ids=lambda spec: spec.descriptor())
def test_canonical_forms_match_brute_force(spec):
    # random sets, sets holding central elements, sets of central elements only
    rng = random.Random(47)
    ix = IndexedGroup(spec)
    centre = np.flatnonzero(ix.central).tolist()
    for trial in range(150):
        s = {rng.randrange(ix.n) for _ in range(rng.randint(1, 4))}
        if trial % 10 == 0:
            s = set(rng.sample(centre, min(len(centre), 2)))
        elif trial % 2:
            s.add(rng.choice(centre))
        s = tuple(sorted(s))
        assert _canonical_set(ix, s) == _least_image(ix, s), s
        family = ix.canonical_sets(np.array([s], dtype=np.int32), families=True)
        assert tuple(family[0].tolist()) == _least_image(ix, s, ix.cyclic_key), s


def _random_rows(ix, rng, size, count):
    """count sets of size distinct elements: random ones, ones holding
    central members, and ones holding several members of one class."""
    rep, _ = ix._class_data
    centre = np.flatnonzero(ix.central).tolist()
    rows = []
    for trial in range(count):
        s = set(rng.sample(centre, min(len(centre), rng.randint(1, size)))) \
            if trial % 3 == 1 else set()
        if trial % 3 == 2:
            cls = np.flatnonzero(rep == rep[rng.randrange(ix.n)]).tolist()
            s.update(rng.sample(cls, min(len(cls), size - 1)))
        while len(s) < size:
            s.add(rng.randrange(ix.n))
        rows.append(sorted(s)[:size])
    return np.array(rows, dtype=np.int32)


@pytest.mark.parametrize("spec", (
    ProjSpecialLinear(2, 5), SpecialLinear(2, 5), ProjSpecialLinear(2, 7),
    CyclicPower(5, 2), PSL2_5_X_C2), ids=lambda spec: spec.descriptor())
def test_canonical_sets_match_brute_force(spec, monkeypatch):
    # one call per size holds rows of many kinds; with eight table entries
    # per slice every call spans many slices
    rng = random.Random(53)
    ix = IndexedGroup(spec)
    ix.maximal_masks()                  # tables built before the slice is patched
    for cells in (indexed._TABLE_CELLS, 8):
        monkeypatch.setattr(indexed, "_TABLE_CELLS", cells)
        for size in range(1, 7):
            rows = _random_rows(ix, rng, size, 120)
            for families in (False, True):
                got = ix.canonical_sets(rows, families=families)
                name = ix.cyclic_key if families else None
                assert got.shape == rows.shape
                for row, canon in zip(rows.tolist(), got.tolist()):
                    assert tuple(canon) == _least_image(ix, row, name), (row, families)
    # a maximal subgroup plus one element: the images of the subgroup
    # agree on many positions before the extra element tells them apart
    members = np.flatnonzero(ix.maximal_masks()[:, 0] & np.uint64(1)).tolist()
    rows = np.array([sorted(members + [x]) for x in range(ix.n) if x not in members],
                    dtype=np.int32)
    for families in (False, True):
        name = ix.cyclic_key if families else None
        for row, canon in zip(rows.tolist(), ix.canonical_sets(rows, families).tolist()):
            assert tuple(canon) == _least_image(ix, row, name), (row, families)


@pytest.mark.parametrize("spec", (SpecialLinear(2, 5), ProjSpecialLinear(2, 7), PSL2_5_X_C2),
                         ids=lambda spec: spec.descriptor())
def test_canonical_families_do_not_depend_on_which_rows_come_first(spec):
    # the family chain grows with the rows it meets: fresh instances fed
    # one row at a time, in reverse order or in one batch agree
    rng = np.random.default_rng(61)
    n = spec.order
    centre = np.flatnonzero(IndexedGroup(spec).central)
    for k in range(1, 5):
        rows = rng.integers(0, n, size=(150, k), dtype=np.int32)
        rows[:40, 0] = rng.choice(centre, size=40)        # central members
        batch = IndexedGroup(spec).canonical_sets(rows, families=True)
        single = IndexedGroup(spec)
        one_by_one = np.concatenate([single.canonical_sets(r[None], families=True)
                                     for r in rows])
        reverse = IndexedGroup(spec).canonical_sets(rows[::-1], families=True)[::-1]
        assert (one_by_one == batch).all() and (reverse == batch).all()
        empty = np.empty((0, k), dtype=np.int32)
        assert IndexedGroup(spec).canonical_sets(empty, families=True).shape == (0, k)
        assert single.canonical_sets(empty, families=True).shape == (0, k)


def _canonical_tuple(ix, t) -> tuple:
    """Brute force: the least of tuple(conj[g, t]) over all n conjugators."""
    return min(tuple(int(v) for v in row) for row in conj_table(ix)[:, list(t)])


def test_canonical_tuple_is_conjugation_invariant():
    rng = random.Random(37)
    spec = ProjSpecialLinear(2, 5)
    ix = IndexedGroup(spec)
    rows = np.array([[rng.randrange(ix.n) for _ in range(3)] for _ in range(60)],
                    dtype=np.int32)
    moved = conj_table(ix)[[rng.randrange(ix.n) for _ in range(60)]][np.arange(60)[:, None], rows]
    canon = ix.canonical_tuples(rows)
    assert (ix.canonical_tuples(moved) == canon).all()
    assert (ix.canonical_tuples(canon) == canon).all()
    assert [tuple(c) for c in canon.tolist()] == [_canonical_tuple(ix, t) for t in rows]


@pytest.mark.parametrize("spec", (
    ProjSpecialLinear(2, 5), SpecialLinear(2, 5), ProjSpecialLinear(2, 7),
    PSL2_5_X_C2, CyclicPower(5, 2)), ids=lambda spec: spec.descriptor())
def test_canonical_tuples_match_canonical_tuple(spec):
    # random rows, rows whose leading entries are central, all-central rows
    rng = np.random.default_rng(41)
    ix = IndexedGroup(spec)
    centre = np.flatnonzero(ix.central)
    for k in range(1, 5):
        rows = rng.integers(0, ix.n, size=(600, k), dtype=np.int32)
        lead = rng.integers(0, k + 1, size=600)
        for j in range(k):
            hit = j < lead
            rows[hit, j] = rng.choice(centre, size=int(hit.sum()))
        assert (lead == k).any() and (lead == 0).any()
        batched = ix.canonical_tuples(rows)
        assert batched.shape == rows.shape
        for row, canon in zip(rows.tolist(), batched.tolist()):
            assert tuple(canon) == _canonical_tuple(ix, row), row


@pytest.mark.parametrize("spec", (SpecialLinear(2, 5), ProjSpecialLinear(2, 7), PSL2_5_X_C2),
                         ids=lambda spec: spec.descriptor())
def test_canonical_tuples_do_not_depend_on_which_rows_come_first(spec):
    # the stabilizer chain grows with the rows it meets: fresh instances
    # fed one row at a time, in reverse order or in one batch agree
    rng = np.random.default_rng(47)
    n = spec.order
    centre = np.flatnonzero(IndexedGroup(spec).central)
    for k in range(1, 5):
        rows = rng.integers(0, n, size=(150, k), dtype=np.int32)
        rows[:40, 0] = rng.choice(centre, size=40)        # central leads
        batch = IndexedGroup(spec).canonical_tuples(rows)
        single = IndexedGroup(spec)
        one_by_one = np.concatenate([single.canonical_tuples(r[None]) for r in rows])
        reverse = IndexedGroup(spec).canonical_tuples(rows[::-1])[::-1]
        assert (one_by_one == batch).all() and (reverse == batch).all()
        empty = IndexedGroup(spec).canonical_tuples(np.empty((0, k), dtype=np.int32))
        assert empty.shape == (0, k) and empty.dtype == np.int32
        assert single.canonical_tuples(np.empty((0, k), dtype=np.int32)).shape == (0, k)


CHAIN_SPECS = (SpecialLinear(2, 5), ProjSpecialLinear(2, 7), SpecialLinear(2, 7), PSL2_5_X_C2)


def _grow_chains(ix, seed) -> list:
    """Canonical tuples, sets and families of random rows of sizes 1 to 4,
    some with central leads: what grows both chains."""
    rng = np.random.default_rng(seed)
    centre, out = np.flatnonzero(ix.central), []
    for k in range(1, 5):
        rows = rng.integers(0, ix.n, size=(200, k), dtype=np.int32)
        rows[:50, 0] = rng.choice(centre, size=50)
        sets = np.sort(rows, axis=1)
        out += [ix.canonical_tuples(rows), ix.canonical_sets(sets),
                ix.canonical_sets(sets, families=True)]
    return out


def _check_chain_rows(ix):
    """Brute force over the members M of every node of both chains, the
    central node and the root among them: omin is the least key image
    under M, and owit a member of M reaching it."""
    ar, conj = np.arange(ix.n), conj_table(ix)
    for chain, key in ((ix._chain, ar), (ix._family_chain, ix.cyclic_key)):
        assert len(chain.members) > 2          # nodes past the centre and the root
        for h, members in enumerate(chain.members):
            assert np.array_equal(chain.omin[h], key[conj[members]].min(axis=0)), h
            assert np.isin(chain.owit[h], members).all(), h
            assert np.array_equal(key[conj[chain.owit[h], ar]], chain.omin[h]), h


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=lambda spec: spec.descriptor())
def test_chain_rows_match_brute_force(spec):
    # centres of order 2, 1, 2 and 2
    ix = IndexedGroup(spec)
    _grow_chains(ix, 67)
    _check_chain_rows(ix)


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=lambda spec: spec.descriptor())
def test_chain_node_fills_do_not_depend_on_the_slice(spec, monkeypatch):
    # with n table entries a slice, every node is filled one member at a time
    want = _grow_chains(IndexedGroup(spec), 71)
    ix = IndexedGroup(spec)                 # mult built before the slice is patched
    monkeypatch.setattr(indexed, "_TABLE_CELLS", ix.n)
    got = _grow_chains(ix, 71)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    _check_chain_rows(ix)


def test_canonical_tuple_separates_nonconjugate():
    # class function values differ => tuples cannot collide
    spec = ProjSpecialLinear(2, 5)
    ix = IndexedGroup(spec)
    by_order = {}
    for i in range(ix.n):
        by_order.setdefault(int(ix.orders[i]), i)
    a, b = by_order[5], by_order[3]
    canon = ix.canonical_tuples(np.array([(a, a), (a, b)], dtype=np.int32))
    assert (canon[0] != canon[1]).any()


def test_order_limit_enforced():
    with pytest.raises(ValueError):
        IndexedGroup(SpecialLinear(2, 17))
    assert SpecialLinear(2, 17).order > MAX_INDEXED_ORDER


# -- uint16 tables: entries index, arithmetic stays wide ---------------------

PSL2_11 = ProjSpecialLinear(2, 11)      # n = 660: x * n passes 2^16


def test_tables_are_uint16_and_index_arrays_int32():
    assert MAX_INDEXED_ORDER < 1 << 16
    ix = IndexedGroup(PSL2_11)
    assert ix.mult.dtype == np.uint16 and ix.mult.nbytes == 2 * ix.n * ix.n
    rep, wit = ix._class_data
    assert {a.dtype for a in (ix.inv, ix.orders, ix.cyclic_key, rep, wit)} == {np.dtype(np.int32)}
    assert ix._chain.omin.dtype == ix._chain.owit.dtype == np.int32


@pytest.mark.parametrize("k", (2, 3, 4, 7))
def test_canonical_forms_past_16_bits_match_int64_brute_force(k):
    # every conjugate g x g^-1 of every entry, from mult in int64; 660^7
    # passes 2^63, and seven members are more than canonical_sets orders
    # every way at once
    ix = IndexedGroup(PSL2_11)
    mult = ix.mult.astype(np.int64)
    conj = mult[mult, ix.inv.astype(np.int64)[:, None]]
    key = ix.cyclic_key
    rows = np.random.default_rng(53 + k).integers(0, ix.n, size=(40, k), dtype=np.int32)
    tuples, sets = ix.canonical_tuples(rows), ix.canonical_sets(rows)
    families = ix.canonical_sets(rows, families=True)
    assert tuples.dtype == np.int32
    for row, t, s, f in zip(rows, tuples, sets, families):
        images = conj[:, row]                   # one row per conjugator
        assert tuple(t) == min(map(tuple, images.tolist()))
        assert tuple(s) == min(map(tuple, np.sort(images, axis=1).tolist()))
        assert tuple(f) == min(map(tuple, np.sort(key[images], axis=1).tolist()))


@pytest.mark.parametrize("k", (3, 7))
def test_moved_rows_are_int32_and_key_like_built_rows(k):
    # 660^7 passes 2^63, so k = 7 keys rows by their bytes
    ix = IndexedGroup(PSL2_11)
    rows = np.random.default_rng(59).integers(0, ix.n, size=(30, k), dtype=np.int32)
    moves = all_moves(k)
    moved = _moved(ix, rows, _move_cells(moves, k))
    assert moved.dtype == ix.canonical_tuples(moved).dtype == np.int32
    mul, inv = ix.mult.item, ix.inv.item
    built = np.array([mv.apply(tuple(r), mul, inv) for r in rows.tolist() for mv in moves],
                     dtype=np.int32)
    keys = _row_keys(moved, ix.n)
    assert np.array_equal(keys, _row_keys(built, ix.n))
    assert (keys.dtype == np.int64) == (k < 7)
    assert len(set(keys.tolist())) == len(set(map(tuple, built.tolist())))
