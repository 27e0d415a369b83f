"""Dense index tables for small finite groups.

An IndexedGroup holds the full multiplication table of a group of
modest order as a numpy array, plus inverse and element-order tables,
conjugacy data, and helpers built on them: vectorized subgroup closure,
generation tests, and canonical forms of tuples and sets under
simultaneous conjugation.  Everything downstream of the table is pure
array arithmetic, which is what makes the exhaustive searches over
partial generating sets affordable.

An instance owns every structure derived from its group, and
`from_spec` keeps one per descriptor: the tables past `mult` are cached
properties built on first use, and `m_search` keeps the exhaustive m
search at default limits.

The table is built the same way for every group kind, from the group's
generators and its element index alone: one permutation a -> ag per
generator g, then a breadth-first walk over the right Cayley graph
from the identity, which fills column yg of the table as the image of
column y under that permutation.  The centre is read off the table as
the elements commuting with every generator.

Generation is decided by maximal-subgroup incidence: a set generates
exactly when no maximal subgroup contains it.  Each element carries a
row of packed uint64 words, one bit per maximal subgroup holding it, so
the test is one AND over the set's rows, or over each row of an array
of tuples at once.  The maximal subgroups are found once per group, on
the first generation test of two or more distinct elements, by a
breadth-first walk over conjugacy classes of subgroups; a group whose
walk would run past a fixed number of join closures (large abelian
groups have thousands of subgroups) answers by closure instead.

Canonical forms use the minimum-index convention: elements are indexed
in encoding order, a conjugacy class is represented by its least index,
and the canonical image of a tuple is the lexicographically least
simultaneous conjugate.  The least conjugate of (t0, rest) always
starts with the class representative of t0, and the conjugators
achieving it form a coset of the centralizer of that representative,
so later positions only ever narrow a candidate array.  A set is
canonical as its least sorted image.  Central members stay put, and the
least image of the rest starts with r0, their least class
representative, so only the cosets centralizer(r0)·wit[x] for the
members x in the class of r0 are tried.  A set of cyclic subgroups,
each named by its least generator (its key), is canonical as the least
sorted image of the keys.  That image starts with the least class
representative among the members' generators, and only cosets of the
normalizer of the subgroup it generates are tried.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

import numpy as np

from .groups import GeneratingTuple, GroupSpec

MAX_INDEXED_ORDER = 4096

# Join closures the maximal-subgroup walk may run before generation
# falls back to closure.  The largest indexed SL2/PSL2 groups need 921
# (sl2:13) and 1,115 (psl2:19); cyclic:2^6 has 2,824 subgroups, and
# walking them costs far more than answering by closure.
_LATTICE_JOIN_CAP = 2000

_INSTANCE_CACHE: dict[str, "IndexedGroup"] = {}


class IndexedGroup:
    """Tables and canonical-form helpers for one finite group."""

    def __init__(self, spec: GroupSpec):
        if spec.order is None or spec.order > MAX_INDEXED_ORDER:
            raise ValueError(
                f"indexing is limited to finite groups of order <= {MAX_INDEXED_ORDER}")
        self.spec = spec
        self.elements = spec.elements()
        self.n = len(self.elements)
        self.index = {spec.encode(x): i for i, x in enumerate(self.elements)}
        self.identity = self.index[spec.encode(spec.identity())]
        gens = [self.index[spec.encode(g)] for g in spec.generators()]
        self.mult = self._build_mult(gens)
        self._centralizers: dict[int, np.ndarray] = {}
        self._normalizers: dict[int, np.ndarray] = {}
        self.inv = np.argmax(self.mult == self.identity, axis=1).astype(np.int32)
        self.orders = self._element_orders()
        # the centre: elements commuting with every generator
        self.central = (self.mult[:, gens] == self.mult[gens, :].T).all(axis=1)
        self.m_search = None        # set by redundancy.max_irredundant_size

    @classmethod
    def from_spec(cls, spec: GroupSpec) -> "IndexedGroup":
        key = spec.descriptor()
        inst = _INSTANCE_CACHE.get(key)
        if inst is None:
            inst = cls(spec)
            _INSTANCE_CACHE[key] = inst
        return inst

    def _build_mult(self, gens) -> np.ndarray:
        """The table from the right Cayley graph of the generators:
        column yg is column y under the permutation a -> ag."""
        spec, index, n = self.spec, self.index, self.n
        right = []
        for g in (self.elements[i] for i in gens):
            try:
                right.append(np.array([index[spec.encode(spec.mul(a, g))]
                                       for a in self.elements], dtype=np.int32))
            except KeyError:
                raise AssertionError("product escaped the element table") from None
        cols = np.empty((n, n), dtype=np.int32)
        cols[self.identity] = np.arange(n, dtype=np.int32)
        done = np.zeros(n, dtype=bool)
        done[self.identity] = True
        reached = [self.identity]
        for y in reached:           # breadth-first: the list grows as it is read
            for r in right:
                z = int(r[y])
                if not done[z]:
                    done[z] = True
                    cols[z] = r[cols[y]]
                    reached.append(z)
        if len(reached) < n:
            raise AssertionError("generators do not reach every element")
        return np.ascontiguousarray(cols.T)

    def _element_orders(self) -> np.ndarray:
        orders = np.zeros(self.n, dtype=np.int32)
        cur = np.arange(self.n, dtype=np.int32)
        k = 0
        while (orders == 0).any():
            k += 1
            if k > self.n:
                raise AssertionError("element order exceeded group order")
            hit = (cur == self.identity) & (orders == 0)
            orders[hit] = k
            cur = self.mult[cur, np.arange(self.n)]
        return orders

    @cached_property
    def conj(self) -> np.ndarray:
        # conj[g, x] = g x g^{-1}
        return self.mult[self.mult, self.inv[:, None]]

    @cached_property
    def _class_data(self) -> tuple[np.ndarray, np.ndarray]:
        """(rep, wit): rep[x] is the least index in the class of x, and
        wit[x] a conjugator taking x to it."""
        if self.spec.is_abelian:        # every class is a point: no conj table
            return (np.arange(self.n, dtype=np.int32),
                    np.full(self.n, self.identity, dtype=np.int32))
        conj = self.conj
        rep = np.full(self.n, -1, dtype=np.int32)
        wit = np.zeros(self.n, dtype=np.int32)
        for i in range(self.n):
            if rep[i] < 0:
                members = np.unique(conj[:, i])
                rep[members] = i
                wit[members] = [np.flatnonzero(conj[:, x] == i)[0] for x in members]
        return rep, wit

    def class_min_reps(self) -> list[int]:
        rep, _ = self._class_data
        return sorted(int(v) for v in np.unique(rep))

    def centralizer(self, rep: int) -> np.ndarray:
        out = self._centralizers.get(rep)
        if out is None:
            out = np.flatnonzero(self.conj[:, rep] == rep).astype(np.int32)
            self._centralizers[rep] = out
        return out

    def normalizer(self, key: int) -> np.ndarray:
        """The normalizer of <key>, for an element that is the key of
        its cyclic subgroup."""
        out = self._normalizers.get(key)
        if out is None:
            out = np.flatnonzero(self.cyclic_key[self.conj[:, key]] == key).astype(np.int32)
            self._normalizers[key] = out
        return out

    def indices_of(self, t: GeneratingTuple) -> tuple:
        return tuple(self.index[self.spec.encode(x)] for x in t.items)

    def tuple_of(self, idx) -> GeneratingTuple:
        return GeneratingTuple(self.spec, tuple(self.elements[i] for i in idx))

    # -- closure and generation --------------------------------------

    def closure_mask(self, gens, cap: int | None = None, target: int | None = None):
        """Vectorized closure BFS.  Returns (mask, count, exceeded,
        found); stops early once count passes cap or target is hit."""
        gens = np.unique(np.asarray(list(gens), dtype=np.int32)) if gens else \
            np.empty(0, dtype=np.int32)
        visited = np.zeros(self.n, dtype=bool)
        visited[self.identity] = True
        count = 1
        found = target is not None and visited[target]
        if found or gens.size == 0:
            return visited, count, False, found
        frontier = np.array([self.identity], dtype=np.int32)
        while frontier.size:
            prod = np.unique(self.mult[np.ix_(frontier, gens)].ravel())
            new = prod[~visited[prod]]
            if new.size == 0:
                break
            visited[new] = True
            count += int(new.size)
            if target is not None and visited[target]:
                return visited, count, False, True
            if cap is not None and count > cap:
                return visited, count, True, found
            frontier = new
        return visited, count, False, found

    def generates(self, gens) -> bool:
        distinct = np.array(sorted(set(gens)), dtype=np.int32)
        return bool(self.generates_rows(distinct.reshape(1, -1))[0])

    def generates_rows(self, rows: np.ndarray) -> np.ndarray:
        """Which rows generate: one column by element order, more by the
        maximal masks, or by closure past the join cap."""
        if rows.shape[1] < 2:
            return (self.orders[rows] == self.n).any(axis=1) | (self.n == 1)
        if self.maximal_masks is None:
            return np.array([self.closure_mask(r)[1] == self.n for r in rows.tolist()], bool)
        return ~np.bitwise_and.reduce(self.maximal_masks[rows], axis=1).any(axis=1)

    @cached_property
    def _cyclic_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(key, frep, fwit) over the generators x^k of <x>, k prime to
        the order of x: key[x] is the least x^k, frep[x] the least
        rep[x^k], and fwit[x] = wit[x^k] for that x^k, a conjugator
        taking <x> to <frep[x]>."""
        rep, wit = self._class_data
        ar = np.arange(self.n, dtype=np.int32)
        cur = ar
        key, frep, fwit = ar.copy(), rep.copy(), wit.copy()
        for k in range(2, int(self.orders.max())):
            cur = self.mult[cur, ar]
            live = (k < self.orders) & (np.gcd(k, self.orders) == 1)
            np.minimum(key, cur, out=key, where=live)
            better = np.flatnonzero(live & (rep[cur] < frep))
            frep[better] = rep[cur[better]]
            fwit[better] = wit[cur[better]]
        return key, frep, fwit

    @property
    def cyclic_key(self) -> np.ndarray:
        """key[x] is the least index generating the cyclic subgroup <x>."""
        return self._cyclic_data[0]

    @cached_property
    def maximal_masks(self) -> np.ndarray | None:
        """The n x words uint64 incidence of elements and maximal
        subgroups (conjugates counted apart): bit b % 64 of word b // 64
        of row x is set when x lies in subgroup b.  None when the
        subgroup walk passed _LATTICE_JOIN_CAP."""
        # Breadth-first over conjugacy classes of proper subgroups, from
        # the trivial one.  Every subgroup above H contains some <H, c>
        # with c outside H, and conjugating c by the normalizer of H
        # conjugates the join, so one c per normalizer orbit of cyclic
        # subgroups reaches every class; H is maximal when all of its
        # joins are the whole group.  By Lagrange a join past n/2
        # elements is the whole group.
        n = self.n
        abelian = self.spec.is_abelian      # conjugation is trivial: no conj table
        key = self.cyclic_key
        cyclic = np.flatnonzero(key == np.arange(n))
        cyclic = cyclic[cyclic != self.identity]
        trivial, _, _, _ = self.closure_mask(())
        queue = deque([((), trivial)] if n > 1 else [])     # the trivial group has none
        seen = {self.canonical_set((self.identity,))}
        maximal = []
        joins = 0
        while queue:
            gens, hmask = queue.popleft()
            members = np.flatnonzero(hmask)
            norm = np.arange(n) if abelian else \
                np.flatnonzero(hmask[self.conj[:, members]].all(axis=1))
            reached = np.zeros(n, dtype=bool)
            is_maximal = True
            for c in cyclic[~hmask[cyclic]]:
                if reached[c]:
                    continue
                reached[c if abelian else key[self.conj[norm, c]]] = True
                joins += 1
                if joins > _LATTICE_JOIN_CAP:
                    return None
                jmask, _, whole, _ = self.closure_mask(gens + (int(c),), cap=n // 2)
                if whole:
                    continue
                is_maximal = False
                ckey = self.canonical_set(np.flatnonzero(jmask))
                if ckey not in seen:
                    seen.add(ckey)
                    queue.append((gens + (int(c),), jmask))
            if is_maximal:
                maximal.append((members, norm))
        conjugates = []
        for members, norm in maximal:
            # one conjugate per coset g N_G(M)
            todo = np.ones(n, dtype=bool)
            while todo.any():
                g = int(np.argmax(todo))
                todo[self.mult[g, norm]] = False
                conjugates.append(members if abelian else self.conj[g, members])
        masks = np.zeros((n, max(1, -(-len(conjugates) // 64))), dtype=np.uint64)
        for bit, image in enumerate(conjugates):
            masks[image, bit // 64] |= np.uint64(1 << (bit % 64))
        return masks

    # -- canonical forms under simultaneous conjugation ---------------

    def _least_sorted_image(self, s: np.ndarray, conjugators: np.ndarray,
                            key: np.ndarray | None = None) -> tuple:
        cols = self.conj[conjugators[:, None], s]
        cols = np.sort(cols if key is None else key[cols], axis=1)
        best = np.lexsort(cols.T[::-1])[0]
        return tuple(int(v) for v in cols[best])

    def canonical_set(self, s) -> tuple:
        """Least sorted image of the set under conjugation: central
        members stay put, and the image of the rest starts with r0, their
        least class representative, so only the conjugators in
        centralizer(r0)·wit[x], for the members x in the class of r0,
        can reach it."""
        s = np.array(sorted(int(v) for v in s), dtype=np.int32)
        moving = s[~self.central[s]]
        if moving.size == 0:
            return tuple(int(v) for v in s)
        rep, wit = self._class_data
        r0 = rep[moving].min()
        lead = moving[rep[moving] == r0]
        return self._least_sorted_image(
            s, self.mult[self.centralizer(int(r0))[:, None], wit[lead]].ravel())

    def canonical_family(self, s) -> tuple:
        """Least sorted image of the cyclic subgroups <x>, x in s, under
        conjugation, each named by its key.  The image starts with r0,
        the least frep over the members, so only the conjugators in
        normalizer(<r0>)·fwit[x], for the members x with frep[x] = r0,
        can reach it; all n rows when <r0> is normal."""
        key, frep, fwit = self._cyclic_data
        s = np.asarray(s, dtype=np.int32)
        if self.spec.is_abelian:
            return tuple(sorted(int(v) for v in key[s]))
        r0 = frep[s].min()
        lead = s[frep[s] == r0]
        return self._least_sorted_image(
            s, self.mult[self.normalizer(int(r0))[:, None], fwit[lead]].ravel(), key)

    def canonical_tuples(self, rows: np.ndarray) -> np.ndarray:
        """The least image of each row of an int32 array under
        simultaneous conjugation: the rows whose first non-central entry
        v has class representative r are conjugated by all of
        centralizer(r)·wit[v] at once and narrowed position by position
        to the least image."""
        if self.spec.is_abelian:
            return rows
        rep, wit = self._class_data
        noncentral = ~self.central[rows]
        live = np.flatnonzero(noncentral.any(axis=1))     # all-central rows are canonical
        v = rows[live, noncentral[live].argmax(axis=1)]
        out = rows.copy()
        for r in np.unique(rep[v]).tolist():
            sel = live[rep[v] == r]
            cands = self.mult[self.centralizer(r)[:, None], wit[v[rep[v] == r]]]
            imgs = self.conj.ravel()[cands[:, :, None] * self.n + rows[sel]]
            alive = np.ones(cands.shape, dtype=bool)
            for j in range(rows.shape[1]):
                col = np.where(alive, imgs[:, :, j], self.n)
                out[sel, j] = least = col.min(axis=0)
                alive &= col == least
        return out
