"""Elementary moves, orbit walks, and the Nielsen rank."""

import itertools
import math
import random
import time

import numpy as np
import pytest

from genrank.groups import (CyclicPower, GeneratingTuple, Integers,
                            ProductGroup, ProjSpecialLinear, SpecialLinear,
                            closure, is_generating)
from genrank import indexed, nielsen
from genrank.indexed import IndexedGroup
from genrank.nielsen import (NielsenMove, OrbitStatistics, _first_occurrences,
                             _orbit_walk_generic, _row_keys, all_moves,
                             is_nielsen_redundant, mu_rank, orbit_statistics)
from genrank.redundancy import (SearchLimits, _searched_rank, max_irredundant_size,
                                z_witness)
from reference import apply_move, closure_mask, conj_table, conjugated


def case_id(value):
    return value.descriptor() if hasattr(value, "descriptor") else str(value)


def random_tuple(spec, k, rng):
    return GeneratingTuple(spec, tuple(spec.random_element(rng)
                                       for _ in range(k)))


def test_move_count():
    # 2n(n-1) multiplications, n inversions, n(n-1)/2 swaps
    assert len(all_moves(2)) == 4 + 4 + 2 + 1
    assert len(all_moves(3)) == 30


def test_move_validation():
    with pytest.raises(ValueError):
        NielsenMove("L", 0, 0, 1)
    with pytest.raises(ValueError):
        NielsenMove("S", 2, 2)
    with pytest.raises(ValueError):
        NielsenMove("Q", 0, 1, 1)
    with pytest.raises(ValueError):
        NielsenMove("L", 0, 1, 2)


def test_move_describe():
    assert NielsenMove("L", 0, 1, 1).describe() == "L(0,1,+1)"
    assert NielsenMove("R", 2, 0, -1).describe() == "R(2,0,-1)"
    assert NielsenMove("I", 1).describe() == "I(1)"
    assert NielsenMove("S", 0, 2).describe() == "S(0,2)"


def test_moves_are_invertible():
    rng = random.Random(3)
    spec = ProjSpecialLinear(2, 5)
    for _ in range(10):
        t = random_tuple(spec, 3, rng)
        for mv in all_moves(3):
            back = apply_move(apply_move(t, mv), mv.inverse())
            assert back.items == t.items, mv.describe()


def test_moves_preserve_generated_subgroup():
    rng = random.Random(7)
    spec = SpecialLinear(2, 5)
    for _ in range(6):
        t = random_tuple(spec, 2, rng)
        base = frozenset(closure(t).encodings)
        for mv in all_moves(2):
            moved = apply_move(t, mv)
            assert frozenset(closure(moved).encodings) == base


def test_moves_commute_with_conjugation():
    rng = random.Random(11)
    spec = ProjSpecialLinear(2, 5)
    for _ in range(8):
        t = random_tuple(spec, 2, rng)
        g = spec.random_element(rng)
        for mv in all_moves(2):
            lhs = conjugated(apply_move(t, mv), g)
            rhs = apply_move(conjugated(t, g), mv)
            assert lhs.items == rhs.items


def test_redundant_tuple_detected_with_replayable_path():
    spec = ProjSpecialLinear(2, 5)
    gens = tuple(spec.generators())
    x, y = gens[0], gens[1]
    t = GeneratingTuple(spec, (x, y, spec.mul(x, y)))
    rep = is_nielsen_redundant(t)
    assert rep.verdict == "NielsenRedundant"
    assert rep.path is not None
    # replay the recorded path from the start tuple
    cur = t
    for mv in rep.path:
        cur = apply_move(cur, mv)
    e = spec.identity()
    items = cur.items
    cheap = (e in items
             or len(set(spec.encode(v) for v in items)) < len(items)
             or any(spec.inv(a) in items[i + 1:]
                    for i, a in enumerate(items)))
    from genrank.redundancy import is_redundant
    assert cheap or any(is_redundant(cur).droppable)


def test_irredundant_pair_has_no_redundant_orbit_member():
    spec = ProjSpecialLinear(2, 5)
    t = GeneratingTuple(spec, tuple(spec.generators()))
    rep = is_nielsen_redundant(t)
    assert rep.verdict == "NielsenIrredundant"
    assert rep.visited > 1


def test_generic_and_indexed_walk_agree():
    rng = random.Random(13)
    for spec, size in itertools.product((ProjSpecialLinear(2, 5), SpecialLinear(2, 5)),
                                        (2, 3)):
        for _ in range(6):
            t = random_tuple(spec, size, rng)
            while not is_generating(t):
                t = random_tuple(spec, size, rng)
            verdict = _orbit_walk_generic(spec, t.items, SearchLimits())[0]
            assert is_nielsen_redundant(t).verdict == verdict
        # an irredundant class: no entry is droppable before the first move
        ix = IndexedGroup(spec)
        t = ix.tuple_of(max_irredundant_size(spec).stats["classes"][size][-1])
        verdict = _orbit_walk_generic(spec, t.items, SearchLimits())[0]
        assert is_nielsen_redundant(t).verdict == verdict == (
            "NielsenIrredundant" if size == 2 else "NielsenRedundant")


def test_generic_walk_on_infinite_and_large_groups():
    z = Integers()
    assert is_nielsen_redundant(GeneratingTuple(z, (2, 3))).verdict == "NielsenRedundant"
    # the largest entries exceed the signed 64-bit range
    rep = is_nielsen_redundant(z_witness(16), SearchLimits(node_budget=2000,
                                                           time_budget=30))
    assert rep.verdict in ("Unknown", "NielsenRedundant", "NielsenIrredundant")
    # order 4896 is past the indexed tables
    spec = SpecialLinear(2, 17)
    rep = is_nielsen_redundant(GeneratingTuple(spec, spec.generators()),
                               SearchLimits(node_budget=20, time_budget=30))
    assert "orbit deduplication is literal, not up to conjugation" in rep.notes


def test_budget_yields_unknown():
    spec = ProjSpecialLinear(2, 5)
    t = GeneratingTuple(spec, tuple(spec.generators()))
    rep = is_nielsen_redundant(t, limits=SearchLimits(node_budget=2,
                                                      time_budget=600.0))
    assert rep.verdict in ("Unknown", "NielsenRedundant")


def test_klein_four_orbit():
    stats = orbit_statistics(CyclicPower(2, 2), 2)
    assert stats.generating_classes == 6
    assert stats.orbit_count == 1
    assert stats.orbit_sizes == (6,)
    assert stats.orbits_with_redundant == 0
    assert not stats.partial
    # no generating tuple of this size: an empty class table
    for spec, size in ((ProjSpecialLinear(2, 5), 1), (CyclicPower(2, 3), 2)):
        assert orbit_statistics(spec, size) == OrbitStatistics(spec, size, 0, 0, (), 0, False)


def droppable(ix, t) -> bool:
    """An entry of a generating tuple is droppable when the closure of
    the rest is the whole group."""
    return any(closure_mask(ix, t[:i] + t[i + 1:])[1] == ix.n for i in range(len(t)))


def least_conjugate(ix, t) -> tuple:
    """Brute force: the least of tuple(conj[g, t]) over all g."""
    cols = conj_table(ix)[:, list(t)]
    return tuple(int(v) for v in cols[np.lexsort(cols.T[::-1])[0]])


def reference_orbit_statistics(spec, size):
    """The per-node walk: the least conjugate, NielsenMove.apply and
    closure on one Python tuple at a time, with sets for the classes and
    the orbits."""
    ix = IndexedGroup(spec)
    mul, inv = ix.mult.item, ix.inv.item
    rep = ix._class_data[0]
    classes = set()
    for c in np.flatnonzero(rep == np.arange(ix.n)).tolist():
        for rest in itertools.product(range(ix.n), repeat=size - 1):
            t = (c,) + rest
            if least_conjugate(ix, t) == t and closure_mask(ix, t)[1] == ix.n:
                classes.add(t)
    seen, sizes, with_red = set(), [], 0
    for start in sorted(classes):
        if start in seen:
            continue
        members, todo = {start}, [start]
        while todo:
            node = todo.pop()
            for mv in all_moves(size):
                child = least_conjugate(ix, mv.apply(node, mul, inv))
                assert child in classes
                if child not in members:
                    members.add(child)
                    todo.append(child)
        seen |= members
        sizes.append(len(members))
        with_red += any(droppable(ix, t) for t in members)
    return OrbitStatistics(spec, size, len(classes), len(sizes),
                           tuple(sorted(sizes, reverse=True)), with_red, False)


def reference_walk(ix, start, verdicts=None):
    """The per-node breadth-first walk: one tuple dequeued at a time,
    tested for a droppable entry, then its children canonicalised one by
    one.  Returns (verdict, member, path, visited) as the layer walk.
    Every class visited lies in the orbit of start, so the verdict holds
    for it too: a dict verdicts gets an entry for each."""
    mul, inv = ix.mult.item, ix.inv.item
    start = least_conjugate(ix, start)
    parents, queue = {start: None}, [start]
    for node in queue:          # the list grows as it is read
        if droppable(ix, node):
            path, cur = [], node
            while parents[cur] is not None:
                cur, mv = parents[cur]
                path.append(mv)
            walk = "NielsenRedundant", node, tuple(reversed(path)), len(parents)
            break
        for mv in all_moves(len(start)):
            child = least_conjugate(ix, mv.apply(node, mul, inv))
            if child not in parents:
                parents[child] = (node, mv)
                queue.append(child)
    else:
        walk = "NielsenIrredundant", None, None, len(parents)
    if verdicts is not None:
        verdicts.update(dict.fromkeys(parents, walk[0]))
    return walk


@pytest.mark.parametrize("spec", (
    ProjSpecialLinear(2, 5), SpecialLinear(2, 5), ProjSpecialLinear(2, 7)), ids=case_id)
def test_layer_walk_matches_reference_walk_on_every_irredundant_class(spec):
    ix = IndexedGroup(spec)
    for size, sets in max_irredundant_size(spec).stats["classes"].items():
        for t in sets:
            assert nielsen._layer_walk(ix, t, 10 ** 9, math.inf) == reference_walk(ix, t), t


@pytest.mark.parametrize("spec", (ProjSpecialLinear(2, 5), SpecialLinear(2, 5)), ids=case_id)
def test_layer_walk_dedupes_across_small_slices(monkeypatch, spec):
    # one to five rows moved per slice, so children of a layer recur in
    # later slices; the walk keeps each at its earliest (row, move)
    monkeypatch.setattr(nielsen, "_SLICE_ROWS", 64)
    test_layer_walk_matches_reference_walk_on_every_irredundant_class(spec)


@pytest.mark.parametrize("spec", (
    ProjSpecialLinear(2, 5), SpecialLinear(2, 5), ProjSpecialLinear(2, 7),
    ProjSpecialLinear(2, 3), SpecialLinear(2, 3), CyclicPower(6, 2), CyclicPower(2, 3),
    CyclicPower(12, 1), ProductGroup((CyclicPower(2, 1), CyclicPower(6, 1))),
    ProductGroup((ProjSpecialLinear(2, 3), CyclicPower(2, 2)))), ids=case_id)
def test_ladder_rung_matches_reference_walk_on_every_irredundant_class(spec):
    """Per class and at every size, d included: the orbit has no
    redundant member exactly when the walk finds none, and the table
    holds the least conjugates of all orderings of the classes.  A class
    that an earlier walk visited takes that walk's verdict."""
    res, ix = _searched_rank(spec, SearchLimits())
    for size, sets in res.stats["classes"].items():
        count, clean = nielsen._ladder_rung(ix, np.array(sets, dtype=np.int32), 10 ** 9,
                                            math.inf)
        verdicts: dict = {}
        want = [verdicts.get(least_conjugate(ix, t)) or reference_walk(ix, t, verdicts)[0]
                for t in sets]
        assert clean.tolist() == [v == "NielsenIrredundant" for v in want], size
        assert count == len({least_conjugate(ix, p) for t in sets
                             for p in itertools.permutations(t)}), size


def test_orbits_flag_moves_out_of_a_partial_table():
    """On the psl2:7 pairs without every other class of the first orbit,
    moves out of the table are flagged on what is left of that orbit,
    and the other orbits keep their components."""
    ix = IndexedGroup(ProjSpecialLinear(2, 7))
    table = nielsen._generating_classes(ix, 2, math.inf)
    root, leaves = nielsen._orbits(ix, table, _row_keys(table, ix.n), math.inf)
    assert not leaves.any() and len(set(root.tolist())) == 4
    keep = np.setdiff1d(np.arange(len(table)), np.flatnonzero(root == 0)[::2])
    part, other = table[keep], root[keep] != 0
    proot, pleaves = nielsen._orbits(ix, part, _row_keys(part, ix.n), math.inf)
    assert pleaves[~other].any() and not pleaves[other].any()
    assert keep[proot[other]].tolist() == root[keep][other].tolist()


def test_mu_ladder_node_budget_bounds_the_table():
    # sl2:5: the m search visits 816 nodes, and I_3 holds 992 tuple classes
    spec = SpecialLinear(2, 5)
    over, within = (mu_rank(spec, SearchLimits(node_budget=b)) for b in (991, 992))
    assert (over.value, over.exhaustive, over.stats["orbit_nodes"]) == (2, False, 992)
    assert (within.value, within.exhaustive, within.stats["orbit_nodes"]) == (2, True, 992)


def _open_note(k):
    return f"size {k}: the class table passed the node or time budget; the verdict there is open"


def test_mu_ladder_runs_down_past_an_open_rung(monkeypatch):
    # psl2:7: I_4 holds 36 tuple classes and I_3 630.  With the m search
    # unbudgeted, node budget 100 decides size 4 and leaves size 3 open.
    monkeypatch.setattr(nielsen, "_searched_rank",
                        lambda spec, limits: _searched_rank(spec, SearchLimits()))
    res = mu_rank(ProjSpecialLinear(2, 7), SearchLimits(node_budget=100))
    assert (res.value, res.exhaustive, res.stats["orbit_nodes"]) == (2, False, 666)
    assert res.notes[1:] == (_open_note(3), "value is a lower bound")


def test_mu_ladder_stops_at_the_largest_clean_size(monkeypatch):
    """No small group tried has a clean orbit above size d, so stub rungs
    stand in on psl2:7 (d = 2, m = 4): the ladder runs down from m, the
    first clean size is mu, and an open size above it leaves a lower
    bound."""
    spec = ProjSpecialLinear(2, 7)
    ix = IndexedGroup(spec)
    classes = max_irredundant_size(spec).stats["classes"]
    none = {k: [False] * len(classes[k]) for k in (3, 4)}
    cases = (({4: [False, True], 3: None}, (4, 1), True, [4]),
             ({4: None, 3: [False] * 5 + [True] * 102}, (3, 5), False, [4, 3]),
             (none, (2, 0), True, [4, 3]))
    for verdicts, (k, i), exhaustive, want_calls in cases:
        calls = []

        def rung(ix, sets, node_budget, deadline):
            calls.append(sets.shape[1])
            clean = verdicts[sets.shape[1]]
            return 10 * sets.shape[1], None if clean is None else np.array(clean)
        monkeypatch.setattr(nielsen, "_ladder_rung", rung)
        res = mu_rank(spec)
        assert (res.value, res.exhaustive, calls) == (k, exhaustive, want_calls)
        assert res.witness == ix.tuple_of(classes[k][i])
        assert res.stats["orbit_nodes"] == 10 * sum(want_calls)
        assert res.notes[1:] == (() if exhaustive else (_open_note(4), "value is a lower bound"))


def test_ladder_rung_builds_its_table_in_slices(monkeypatch):
    # psl2:7 triples: 107 sets, 642 orderings, canonicalised 256 rows at a
    # time; a deadline that passes during the first slice stops the rung
    spec = ProjSpecialLinear(2, 7)
    ix = IndexedGroup(spec)
    sets = np.array(max_irredundant_size(spec).stats["classes"][3], dtype=np.int32)
    count, clean = nielsen._ladder_rung(ix, sets, 10 ** 9, math.inf)
    monkeypatch.setattr(nielsen, "_SLICE_ROWS", 256)
    calls, canonical = [], ix.canonical_tuples

    def spy(rows, pause=0.0):
        calls.append(len(rows))
        time.sleep(pause)
        return canonical(rows)
    monkeypatch.setattr(ix, "canonical_tuples", spy)
    sliced_count, sliced = nielsen._ladder_rung(ix, sets, 10 ** 9, math.inf)
    assert (sliced_count, sliced.tolist()) == (count, clean.tolist())
    assert calls[:3] == [256, 256, 130]
    calls.clear()
    monkeypatch.setattr(ix, "canonical_tuples", lambda rows: spy(rows, 1.2))
    assert nielsen._ladder_rung(ix, sets, 10 ** 9, time.monotonic() + 1.0) == (0, None)
    assert calls == [256]


@pytest.mark.parametrize("spec,size", (
    (CyclicPower(2, 2), 2), (ProjSpecialLinear(2, 5), 2), (ProjSpecialLinear(2, 5), 3),
    (SpecialLinear(2, 5), 2), (ProjSpecialLinear(2, 7), 2),
    (ProductGroup((ProjSpecialLinear(2, 5), CyclicPower(2, 1))), 2),
    (ProjSpecialLinear(2, 3), 4)),      # 1,680 classes, three neighbour swaps
    ids=case_id)
def test_layer_walk_matches_per_node_walk(spec, size):
    assert orbit_statistics(spec, size) == reference_orbit_statistics(spec, size)


@pytest.mark.parametrize("spec,size,sizes", (
    # size 3: Hall's Eulerian counts phi_3(G)|Z(G)|/|G| in a single orbit
    (ProjSpecialLinear(2, 7), 3, (26736,)),
    (SpecialLinear(2, 5), 3, (26688,)),
    (ProjSpecialLinear(2, 7), 2, (36, 32, 32, 14)),
    (SpecialLinear(2, 5), 2, (72, 40, 40))),
    ids=case_id)
def test_pinned_orbit_sizes(spec, size, sizes):
    t0 = time.monotonic()
    stats = orbit_statistics(spec, size)
    assert time.monotonic() - t0 < 10
    assert stats.orbit_sizes == sizes
    assert stats.generating_classes == sum(sizes)
    assert not stats.partial
    # size-2 tuples of a non-cyclic group are never redundant; size 3 is
    # above mu = 2 for both groups
    assert stats.orbits_with_redundant == (size == 3)


def reference_class_blocks(ix, size):
    """The canonical generating tuples of one size, by the brute-force
    least_conjugate filter grown a position at a time, in increasing
    order: one block per prefix.  The prefixes of a tuple that is its
    own least conjugate are their own least conjugates, and a conjugator
    that moves such a prefix p makes it larger, so p + (x,) passes
    exactly when no conjugator fixing every entry of p takes x below x."""
    ar, conj = np.arange(ix.n, dtype=np.int32), conj_table(ix)

    def extend(prefixes):
        for p in prefixes:
            fixing = conj[(conj[:, p] == p).all(axis=1)]
            xs = ar[fixing.min(axis=0) == ar]
            yield np.column_stack((np.broadcast_to(p, (len(xs), len(p))), xs))
    prefixes = np.zeros((1, 0), dtype=np.int32)
    for _ in range(size - 1):
        prefixes = np.concatenate(list(extend(prefixes)))
    for block in extend(prefixes):
        yield block[ix.generates_rows(block)]


@pytest.mark.parametrize("spec", (
    ProjSpecialLinear(2, 5), SpecialLinear(2, 5), ProjSpecialLinear(2, 7),
    ProductGroup((ProjSpecialLinear(2, 3), CyclicPower(2, 2))), CyclicPower(6, 2),
    CyclicPower(12, 1)), ids=case_id)
def test_class_listing_matches_the_least_conjugate_filter(monkeypatch, spec):
    # two or more prefixes per slice: psl2:7 quadruples take 14,309 slices
    monkeypatch.setattr(nielsen, "_LIST_CELLS", 400)
    ix = IndexedGroup(spec)
    for size in range(1, 5):
        table, at = nielsen._generating_classes(ix, size, math.inf), 0
        assert table.dtype == np.int32 and table.shape[1] == size
        for block in reference_class_blocks(ix, size):
            assert (table[at:at + len(block)] == block).all(), (size, at)
            at += len(block)
        assert at == len(table), size


def test_orbits_of_a_group_past_order_1000():
    spec = ProjSpecialLinear(2, 13)     # order 1,092
    stats = orbit_statistics(spec, 2)
    assert (stats.generating_classes, stats.orbit_count) == (990, 13)
    assert stats == reference_orbit_statistics(spec, 2)


def test_class_listing_does_not_depend_on_the_slice_size(monkeypatch):
    # psl2:7 triples: 197 canonical pairs, each followed by at most 168
    # fixed points; at the last position 33 slices of six pairs by
    # default, 197 of one pair here, and drop tests and moves in slices
    # of 1,000 rows
    spec = ProjSpecialLinear(2, 7)
    whole = orbit_statistics(spec, 3)
    monkeypatch.setattr(nielsen, "_LIST_CELLS", 200)
    monkeypatch.setattr(nielsen, "_SLICE_ROWS", 1000)
    assert orbit_statistics(spec, 3) == whole


def test_orbit_drop_tests_stop_at_the_deadline(monkeypatch):
    # psl2:7 triples: 26,736 classes, two slices of drop tests; the first
    # slice outlasts the budget, so the second never runs
    calls, droppable = [], nielsen._droppable

    def slow(ix, rows, deadline):
        calls.append(len(rows))
        time.sleep(1.2)
        return droppable(ix, rows, deadline)
    monkeypatch.setattr(nielsen, "_droppable", slow)
    stats = orbit_statistics(ProjSpecialLinear(2, 7), 3, SearchLimits(time_budget=1.0))
    assert len(calls) <= 1 and stats.partial and stats.orbit_count == 0


def test_first_occurrences_match_np_unique():
    rng = np.random.default_rng(53)
    wide = rng.integers(0, 3, size=(500, 4), dtype=np.int32)
    cases = (rng.integers(0, 40, size=2000), rng.integers(-5, 5, size=7),
             np.full(300, 9, dtype=np.int64), np.empty(0, dtype=np.int64),
             _row_keys(wide, 1 << 20))          # row bytes past int64 codes
    assert cases[-1].dtype.kind == "V"
    for keys in cases:
        distinct, first = _first_occurrences(keys)
        want_distinct, want_first = np.unique(keys, return_index=True)
        assert distinct.shape == want_distinct.shape == first.shape
        assert (distinct == want_distinct).all() and (first == want_first).all()


def test_row_keys_are_base_n_codes():
    rng = np.random.default_rng(59)
    rows = rng.integers(0, 660, size=(400, 4), dtype=np.int32)
    keys = _row_keys(rows, 660)
    assert keys.dtype == np.int64
    assert keys.tolist() == [sum(v * 660 ** (3 - j) for j, v in enumerate(r))
                             for r in rows.tolist()]


def test_components_are_least_members():
    """The union-find against a search from each node in turn, on sparse
    random graphs with many components, one path through all nodes in a
    random order, and a graph with no node."""
    rng = np.random.default_rng(61)
    order = rng.permutation(300).astype(np.int32)
    path = np.empty((300, 1), dtype=np.int32)
    path[order[:-1], 0], path[order[-1], 0] = order[1:], order[-1]
    cases = [rng.integers(0, n, size=(n, c), dtype=np.int32)
             for n, c in ((1, 1), (50, 1), (400, 1), (400, 2), (2000, 3))]
    for edges in cases + [path, np.empty((0, 4), dtype=np.int32)]:
        adjacent = [set() for _ in edges]
        for v, row in enumerate(edges.tolist()):
            for u in row:
                adjacent[v].add(u)
                adjacent[u].add(v)
        want = [-1] * len(edges)
        for v in range(len(edges)):
            if want[v] < 0:
                want[v], todo = v, [v]
                for x in todo:          # the list grows as it is read
                    for u in adjacent[x]:
                        if want[u] < 0:
                            want[u] = v
                            todo.append(u)
        assert nielsen._components(edges).tolist() == want


def test_all_triples_redundant_when_mu_is_two():
    # mu(psl2:5) = 2, so every generating triple walks to a redundant one
    stats = orbit_statistics(ProjSpecialLinear(2, 5), 3)
    assert not stats.partial
    assert stats.generating_classes > 0
    assert stats.orbits_with_redundant == stats.orbit_count
    assert stats.fraction_with_redundant == 1.0
    print("psl2:5 triples:", stats.generating_classes, "classes in",
          stats.orbit_count, "orbits")


def test_pairs_form_irredundant_orbits():
    stats = orbit_statistics(ProjSpecialLinear(2, 5), 2)
    assert not stats.partial
    assert sum(stats.orbit_sizes) == stats.generating_classes
    # no generating pair of a noncyclic group can reach a droppable entry
    assert stats.orbits_with_redundant == 0


def test_mu_values_small_groups():
    res = mu_rank(ProjSpecialLinear(2, 5))
    assert res.value == 2
    assert res.exhaustive
    assert res.witness is not None and len(res.witness) == 2

    assert mu_rank(CyclicPower(6, 1)).value == 1
    assert mu_rank(CyclicPower(6, 2)).value == 2
    assert mu_rank(CyclicPower(2, 3)).value == 3
    assert mu_rank(Integers()).value == 1


def test_mu_cyclic_forced_search_agrees():
    for spec in (CyclicPower(6, 1), CyclicPower(2, 2), CyclicPower(4, 1)):
        fast = mu_rank(spec)
        slow = nielsen._mu_ladder(spec, SearchLimits())
        assert fast.value == slow.value, spec.descriptor()


def test_each_call_builds_its_own_tables(monkeypatch):
    # no table outlives its call: mu hands the m search's table to the
    # ladder, and a second m search builds a second table
    built = []
    init = IndexedGroup.__init__

    def counted(self, spec, *args, **kw):
        built.append(spec)
        init(self, spec, *args, **kw)

    monkeypatch.setattr(indexed.IndexedGroup, "__init__", counted)
    assert mu_rank(ProjSpecialLinear(2, 7)).exhaustive
    assert built == [ProjSpecialLinear(2, 7)]
    built.clear()
    first = max_irredundant_size(ProjSpecialLinear(2, 5))
    assert max_irredundant_size(ProjSpecialLinear(2, 5)) == first and first.exhaustive
    assert built == [ProjSpecialLinear(2, 5)] * 2


def test_mu_does_not_exceed_m():
    for spec in (ProjSpecialLinear(2, 5), CyclicPower(6, 2),
                 CyclicPower(12, 1)):
        mu = mu_rank(spec).value
        m = max_irredundant_size(spec).value
        assert mu <= m
        print(spec.descriptor(), "mu", mu, "m", m)
