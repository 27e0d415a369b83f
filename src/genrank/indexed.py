"""Dense index tables for small finite groups.

An IndexedGroup holds the full multiplication table of a group of
modest order as a numpy array, plus inverse and element-order tables,
conjugacy data, and helpers that work on many rows in a few array
passes, which keeps the exhaustive searches affordable: subgroup
closure, generation tests, and canonical forms of tuples and sets
under simultaneous conjugation.

An instance owns every structure derived from its group and lives as
long as the call that built it: `mult` and `inv` are built at once, the
other tables on first use.  An element is its row of encoding words,
and the table is built from the generators alone, a breadth-first
layer of the left Cayley graph at a time: one `spec.left_rows` per
layer and generator g gives every ga, and a lookup over the mixed-radix
keys of the words, ordered as the encodings are, tells the new ones.
Read in key order, the lookup sorts the elements and relabels the
products into one permutation a -> ga per generator, so no product is
formed twice.  Row gy of mult is then row y under that permutation, one
gather per layer and generator.  It is the only n x n table: g x g^-1
is read as mult[mult[g, x], inv[g]], two gathers, by `conj_at` for
index arrays and `conj_rows` for whole rows.  mult holds
uint16, 2n^2 bytes, and the index arrays kept beside it int32: a
uint16 times a Python int wraps, so arithmetic on entries takes n as
intp.

Closure grows rows of boolean masks a ball at a time: the next ball
adds the last layer times each generator, one scatter per generator
over all rows, so ball k is breadth-first layer k.  A set generates
exactly when no maximal subgroup contains it.  Each element carries a
row of packed uint64 words, one bit per maximal subgroup holding it, so
the test is one AND over the set's rows.  In an abelian group the
maximal subgroups are the kernels of the maps onto Z/p, p dividing n,
read off the words, its coordinates.  Otherwise they come from a
breadth-first walk over conjugacy classes of subgroups, a layer at a
time: for each class H of the layer it lists one cyclic candidate c per
normalizer orbit, and the joins <H, c> of the whole layer close
together from H's masks, a slice of at most _JOIN_CELLS mask cells at a
time.  Each class found puts the packed mask of one conjugate per coset
of its normalizer into a set, so a proper join is new exactly when its
packed mask is not there, and the conjugates of the maximal classes are
the bits.  The table build, the walk and the kernels stop with
TimeoutError at the caller's deadline.

Canonical forms use the minimum-index convention: a conjugacy class is
represented by its least index, and the canonical image of a tuple is
its lexicographically least simultaneous conjugate.  The classes are
listed one column at a time: the least index r with no class yet is the
least member of its class, and g r g^-1 over every g is that class.  The
conjugators taking a tuple's first j entries to their least image m_0,
..., m_j-1 form one coset Cw of the stabilizer C = C_G(m_0, ...,
m_j-1), so entry j goes to the least conjugate of w t_j w^-1 under C.
The instance grows a chain of these stabilizers as rows reach them:
each node holds the least conjugate of every element under its
subgroup, a witness for each, and its children C_C(m), shared by member
set, and one node stands for every subgroup of the centre.  The root is
read off the conjugacy classes, any other node off its members' images,
_TABLE_CELLS entries at a time.  A tuple position costs a few gathers
over all rows, whatever the size of C.

A set is canonical as its least sorted image.  Under one conjugator the
sorted image is the least ordering of the image, so the least sorted
image is the least canonical tuple over the orderings of the set.  It
is built a position at a time over branches, each a chain node with the
images of the members not yet placed: entry j is the least omin over
every branch of the row, and each (branch, member) pair that reaches it
goes on as a branch.  A set of cyclic subgroups, each named by its
least generator (its key), is canonical the same way down a second
chain, for the action x -> key[g x g^-1].
Neither this module nor `nielsen` calls np.unique: its first call
imports numpy.ma, about 11 ms per process, so distinct values come from
a scatter, a bincount or one argsort.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .fp import prime_factors
from .groups import (GeneratingTuple, GroupSpec, ProjSpecialLinear, SpecialLinear,
                     check_deadline, psl_order)

MAX_INDEXED_ORDER = 4096
assert MAX_INDEXED_ORDER < 1 << 16, "mult holds element indices as uint16"

_JOIN_CELLS = 1 << 15             # mask cells of one slice of the subgroup walk
_TABLE_CELLS = 1 << 14             # entries of one slice of a row or node fill, of a node's
                                   # child test, of the walk's candidates or of canonical_sets
                                   # (32 KB of uint16, 64 KB of int32; 4x that raised the peak RSS)


class IndexedGroup:
    """Tables and canonical-form helpers for one finite group."""

    def __init__(self, spec: GroupSpec, deadline: float = math.inf):
        if spec.order is None or spec.order > MAX_INDEXED_ORDER:
            raise ValueError(
                f"indexing is limited to finite groups of order <= {MAX_INDEXED_ORDER}")
        self.spec = spec
        m = spec.word_moduli()
        self._moduli = np.array(m, dtype=np.int64)
        self._strides = np.array([math.prod(m[j + 1:]) for j in range(len(m))], dtype=np.int64)
        self._words, self._index, left, self._layers = self._cayley_walk(deadline)
        self.n = len(self._words)
        self.identity = self.indices_of(GeneratingTuple(spec, (spec.identity(),)))[0]
        self._gens = [int(r[self.identity]) for r in left]     # the products g·1
        self.mult = self._fill_rows(left, deadline)
        self.orders, self.inv = self._element_orders()
        # the centre: elements commuting with every generator
        self.central = (self.mult[:, self._gens] == self.mult[self._gens, :].T).all(axis=1)
        self._masks = None          # set by maximal_masks

    def _rows(self, items) -> np.ndarray:
        return np.array([np.frombuffer(self.spec.encode(x), dtype="<u2") for x in items],
                        dtype=np.int64).reshape(len(items), len(self._moduli))

    def _keys(self, words: np.ndarray) -> np.ndarray:
        """Each row's rank in the byte order of the encodings, in mixed radix
        over the words: v below m as its rank among those in the order of
        (v % 256, v // 256), v itself when m <= 256."""
        m = self._moduli
        if m.max() > 256:
            lo, hi = words % 256, words // 256
            words = lo * ((m - 1) // 256) + np.minimum(lo, (m - 1) % 256 + 1) + hi
        return (words * self._strides).sum(axis=1)

    def _cayley_walk(self, deadline: float) -> tuple:
        """The words sorted by encoding, the lookup key -> position, per
        generator g the permutation a -> ga, and the left layers as
        (generator, ys, zs) with zs = g·ys the elements g reaches first."""
        spec, n = self.spec, self.spec.order
        gens, layer = self._rows(spec.generators()), self._rows([spec.identity()])
        found = np.full(math.prod(spec.word_moduli()), -1, dtype=np.int32)     # key -> discovery
        found[self._keys(layer)] = 0
        words, layers, left, lo, total = [layer], [], [[] for _ in gens], 0, 1
        while len(layer):           # discoveries lo, lo + 1, ...
            check_deadline(deadline)
            for k, g in enumerate(gens):
                z = spec.left_rows(g, layer)
                if (z >= self._moduli).any():
                    raise AssertionError("product escaped the element table")
                keys = self._keys(z)
                hit = found[keys]           # the discovery of each product, or -1
                new = (hit < 0).nonzero()[0]
                hit[new] = found[keys[new]] = np.arange(total, total + len(new), dtype=np.int32)
                layers.append((k, lo + new, hit[new]))
                left[k].append(hit)
                words.append(z[new])
                total += len(new)
            lo, layer = lo + len(layer), np.concatenate(words[-len(gens):])
        keys = np.flatnonzero(found >= 0)       # in the byte order of the encodings
        if len(keys) != n:
            raise AssertionError("generators do not reach every element" if len(keys) < n
                                 else "product escaped the element table")
        order = found[keys]                     # position -> discovery
        pos = np.empty(n, dtype=np.uint16)      # discovery -> position
        pos[order] = np.arange(n, dtype=np.uint16)
        found[keys] = np.arange(n, dtype=np.int32)
        return (np.concatenate(words)[order], found,
                [pos[np.concatenate(r)[order]] for r in left],
                [(k, pos[ys], pos[zs]) for k, ys, zs in layers])

    def _fill_rows(self, perms: list, deadline: float) -> np.ndarray:
        """mult: the identity row is the identity map and row gy is row y
        under perms[g], a -> ga, filled along the left layers a slice of
        at most _TABLE_CELLS entries at a time."""
        n = self.n
        out = np.empty((n, n), dtype=np.uint16)
        out[self.identity] = np.arange(n, dtype=np.uint16)
        step = max(1, _TABLE_CELLS // n)
        for k, ys, zs in self._layers:
            for i in range(0, zs.size, step):
                check_deadline(deadline)
                out[zs[i:i + step]] = perms[k].take(out[ys[i:i + step]])
        return out

    def _element_orders(self) -> tuple[np.ndarray, np.ndarray]:
        """(orders, inv) from the powers of every element: x^-1 is the
        power x^(ord(x) - 1) just before the identity."""
        orders = np.zeros(self.n, dtype=np.int32)
        inv, prev = np.empty_like(orders), np.full_like(orders, self.identity)
        cur = np.arange(self.n, dtype=np.int32)
        k = 0
        while (orders == 0).any():
            k += 1
            if k > self.n:
                raise AssertionError("element order exceeded group order")
            hit = (cur == self.identity) & (orders == 0)
            orders[hit] = k
            inv[hit] = prev[hit]
            prev, cur = cur, self.mult[cur, np.arange(self.n)]
        return orders, inv

    def conj_at(self, g, x) -> np.ndarray:
        """g x g^-1 for index arrays g and x, broadcast together, by two
        flat takes."""
        n, mult = np.intp(self.n), self.mult.ravel()
        return mult.take(mult.take(g * n + x) * n + self.inv[g])

    def conj_rows(self, g: np.ndarray) -> np.ndarray:
        """Row i is x -> g_i x g_i^-1 over every x, by one flat take."""
        return self.mult.ravel().take(self.mult[g] * np.intp(self.n) + self.inv[g][:, None])

    @cached_property
    def _class_data(self) -> tuple[np.ndarray, np.ndarray]:
        """(rep, wit): rep[x] is the least index in the class of x, and
        wit[x] a conjugator taking x to it, one class at a time."""
        n = self.n
        rep, wit = np.full(n, n, dtype=np.int32), np.full(n, n, dtype=np.int32)
        r = 0
        while r < n:        # r is the least index with no class yet
            column = self.mult[self.mult[:, r], self.inv]      # g r g^-1 for every g
            rep[column] = r
            # g x g^-1 = r exactly when x = g^-1 r g: the least such g
            np.minimum.at(wit, column, self.inv)
            unclassed = rep[r:] == n
            r += int(unclassed.argmax()) if unclassed.any() else n
        return rep, wit

    def indices_of(self, t: GeneratingTuple) -> tuple:
        return tuple(self._index[self._keys(self._rows(t.items))].tolist())

    def tuple_of(self, idx) -> GeneratingTuple:
        return GeneratingTuple(self.spec, tuple(self.spec.decode(self._words[i]) for i in idx))

    # -- closure and generation --------------------------------------

    def closure_rows(self, masks: np.ndarray, gens: np.ndarray, cap: int | None = None,
                     closed: bool = False):
        """Grow each row of a boolean (rows x n) array a ball at a time by
        its row of gens, until it stops growing or counts past cap: the
        next ball adds the last layer times each generator, one scatter
        per column of gens over all rows (by the last alone at first when
        closed: each row is a subgroup holding its other gens).  Returns
        (masks, counts, exceeded) by row."""
        masks, cap = masks.copy(), self.n if cap is None else cap
        counts = masks.sum(axis=1)
        exceeded = np.zeros(len(masks), dtype=bool)
        live, layer = np.arange(len(masks)), masks
        width = 1 if closed else gens.shape[1]      # the columns of the next ball
        while live.size:
            row, x = np.nonzero(layer)
            grown = masks[live]
            for col in gens[live, -width:].T:
                grown[row, self.mult[x, col[row]]] = True
            width = gens.shape[1]
            layer = grown & ~masks[live]
            masks[live] = grown
            counts[live] += layer.sum(axis=1)
            grew = layer.any(axis=1)
            exceeded[live] = grew & (counts[live] > cap)
            keep = grew & ~exceeded[live]
            live, layer = live[keep], layer[keep]
        return masks, counts, exceeded

    def generates_rows(self, rows: np.ndarray, deadline: float = math.inf) -> np.ndarray:
        """Which rows generate: one column by element order, more by the
        maximal masks, built by the deadline."""
        if rows.shape[1] < 2:
            return (self.orders[rows] == self.n).any(axis=1) | (self.n == 1)
        return ~np.bitwise_and.reduce(self.maximal_masks(deadline)[rows], axis=1).any(axis=1)

    @cached_property
    def cyclic_key(self) -> np.ndarray:
        """key[x] is the least index generating the cyclic subgroup <x>:
        the least x^k over k prime to the order of x."""
        ar = np.arange(self.n, dtype=np.int32)
        cur, key = ar, ar.copy()
        for k in range(2, int(self.orders.max())):
            cur = self.mult[cur, ar]
            live = (k < self.orders) & (np.gcd(k, self.orders) == 1)
            np.minimum(key, cur, out=key, where=live)
        return key

    def maximal_masks(self, deadline: float = math.inf) -> np.ndarray:
        """The n x words uint64 incidence of elements and maximal subgroups
        (conjugates counted apart): bit b % 64 of word b // 64 of row x is
        set when x lies in subgroup b.  Built on first use by the deadline,
        or not at all: past it the build raises TimeoutError."""
        if self._masks is None:
            self._masks = (self._kernels if self.spec.is_abelian else self._maximal_walk)(deadline)
        return self._masks

    def _kernels(self, deadline: float) -> np.ndarray:
        """The maximal masks of an abelian group, a product of cyclic powers
        with its words as coordinates: the kernel of x -> v @ x onto Z/p,
        p | n, for each line of v zero where p does not divide the modulus."""
        w = len(self._moduli)
        maps, mods = [], []
        for p in prime_factors(self.n):
            free = np.flatnonzero(self._moduli % p == 0)
            # one map per line: the first nonzero coefficient is 1
            lines = [a for a in itertools.product(range(p), repeat=len(free))
                     if next((x for x in a if x), 0) == 1]
            block = np.zeros((len(lines), w), dtype=np.int64)
            block[:, free] = lines
            maps += block.tolist()
            mods += [p] * len(lines)
        maps, mods = np.array(maps, dtype=np.int64).reshape(-1, w), np.array(mods)
        masks = np.zeros((self.n, max(1, -(-len(maps) // 64))), dtype=np.uint64)
        for i in range(0, len(maps), 64):
            check_deadline(deadline)
            inside = np.zeros((self.n, 64), dtype=bool)      # column b: x in kernel i + b
            values = self._words @ maps[i:i + 64].T
            inside[:, :values.shape[1]] = values % mods[i:i + 64] == 0
            masks[:, i // 64] = np.packbits(inside, axis=1, bitorder="little").view("<u8")[:, 0]
        return masks

    def _maximal_walk(self, deadline: float) -> np.ndarray:
        # The maximal masks of any other group, by a breadth-first walk
        # over conjugacy classes of proper subgroups from the trivial
        # one.  Every subgroup above H contains some <H, c> with c outside
        # H, and conjugating c by the normalizer of H conjugates the join,
        # so one c per normalizer orbit of cyclic subgroups reaches every
        # class; H is maximal when all of its joins are the whole group.  By
        # Lagrange a join past n/2 elements is whole.  SL_n and PSL_n past
        # (P)SL2(3) are perfect, so Z(G) lies in every maximal subgroup, and
        # G/Z(G) is simple, so it maps into A_k for a subgroup of index k: a
        # join past n/k0 is whole, k0 the least k with k!/2 >= |G/Z(G)|.
        # Every class at depth d has d generators, so a layer's joins close
        # together, read in the order a walk of one class at a time reads
        # them, which fixes the classes and the bits.  seen holds the packed
        # mask of every conjugate of every class found.
        n, key, ar, spec = self.n, self.cyclic_key, np.arange(self.n), self.spec
        cap = n // 2
        if isinstance(spec, (SpecialLinear, ProjSpecialLinear)) and (spec.n, spec.p) > (2, 3):
            cap = n // next(k for k in itertools.count(2)
                            if math.factorial(k) // 2 >= psl_order(spec.n, spec.p))
        cyclic = np.flatnonzero((key == ar) & (ar != self.identity))
        seen: set[bytes] = set()

        def found(gens: tuple, hmask: np.ndarray) -> tuple:
            members = np.flatnonzero(hmask)
            # g normalizes H = <gens> when it conjugates each into H
            norm = np.flatnonzero(hmask[self.conj_at(
                ar[:, None], np.array(gens, dtype=np.int32))].all(axis=1))
            # the least element of each coset g N_G(H): take as many of
            # the least uncovered elements as there are cosets, and keep
            # those whose coset holds no smaller element
            todo, cosets = np.ones(n, dtype=bool), []
            while todo.any():
                block = np.flatnonzero(todo)[:n // len(norm)]
                images = self.mult[block[:, None], norm]
                least = images.min(axis=1) == block
                todo[images[least]] = False
                cosets.append(block[least])
            conjugates = self.conj_at(np.concatenate(cosets)[:, None], members)
            packed = np.zeros((len(conjugates), n), dtype=bool)
            np.put_along_axis(packed, conjugates, True, axis=1)
            seen.update(map(bytes, np.packbits(packed, axis=1)))
            return gens, hmask, norm, conjugates

        layer = [found((), np.arange(n) == self.identity)]
        conjugates = []         # the maximal classes' conjugates
        step = max(1, _JOIN_CELLS // n)
        while layer:
            owner, rows = [], []
            for h, (gens, hmask, norm, _) in enumerate(layer):
                check_deadline(deadline)
                # c outside H is a candidate when it is the least key of its
                # normalizer orbit, a slice of _TABLE_CELLS orbit entries at a time
                out = cyclic[~hmask[cyclic]]
                if gens:
                    least, part = out.copy(), max(1, _TABLE_CELLS // len(out))
                    for i in range(0, len(norm), part):
                        orbit = key[self.conj_at(norm[i:i + part, None], out)]
                        np.minimum(least, orbit.min(axis=0), out=least)
                else:       # H = 1, normalized by G: the family chain's root row
                    least = self._family_chain.omin[_ROOT, out]
                for c in out[least == out].tolist():
                    owner.append(h)
                    rows.append(gens + (c,))
            owner, rows = np.array(owner), np.array(rows, dtype=np.int32)
            hmasks = np.stack([h[1] for h in layer])
            is_maximal = np.ones(len(layer), dtype=bool)
            below = []
            for i in range(0, len(rows), step):
                check_deadline(deadline)
                jmasks, _, whole = self.closure_rows(
                    hmasks[owner[i:i + step]], rows[i:i + step], cap=cap, closed=True)
                proper = np.flatnonzero(~whole)
                is_maximal[owner[i + proper]] = False
                for j, packed in zip(proper.tolist(),
                                     np.packbits(jmasks[proper], axis=1)):
                    if bytes(packed) not in seen:
                        below.append(found(tuple(rows[i + j].tolist()), jmasks[j].copy()))
            conjugates += [c for h in np.flatnonzero(is_maximal).tolist() for c in layer[h][3]]
            layer = below
        masks = np.zeros((n, max(1, -(-len(conjugates) // 64))), dtype=np.uint64)
        for bit, members in enumerate(conjugates):
            masks[members, bit // 64] |= np.uint64(1 << (bit % 64))
        return masks

    # -- canonical forms under simultaneous conjugation ---------------

    def canonical_sets(self, rows: np.ndarray, families: bool = False) -> np.ndarray:
        """The least sorted image of each row of an int32 array, read as a
        set, under conjugation; with families each entry x names <x> and
        the image is of the keys.  That image is the least canonical tuple
        over the orderings of the row, built a position at a time down
        the chain, a slice of _TABLE_CELLS row entries at a time (module
        docstring)."""
        out = np.sort(self.cyclic_key[rows] if families else rows, axis=1)
        if self.spec.is_abelian:
            return out
        n, k = self.n, rows.shape[1]
        chain = self._family_chain if families else self._chain
        step = max(1, _TABLE_CELLS // k)
        for lo in range(0, len(rows), step):
            # branches: (row, chain node, images of the members not placed)
            imgs = out[lo:lo + step].copy()
            dup = (imgs[:, 1:] == imgs[:, :-1]).any()
            br, s = np.arange(len(imgs)), len(imgs)
            node = np.full(s, _ROOT, dtype=np.int32)
            for j in range(k):
                vals = chain.omin[node[:, None], imgs]
                if len(br) == s and not node.any():     # one central branch a row
                    out[lo:lo + step, j:] = np.sort(vals, axis=1)
                    break
                if dup:     # equal members are interchangeable: place the first
                    vals[:, 1:][imgs[:, 1:] == imgs[:, :-1]] = n
                least = np.full(s, n, dtype=np.int32)
                np.minimum.at(least, br, vals.min(axis=1))
                out[lo:lo + step, j] = least
                if j + 1 < k:
                    b, x = np.nonzero(vals == least[br][:, None])
                    keep = np.ones((len(b), k - j), dtype=bool)
                    keep[np.arange(len(b)), x] = False
                    g = chain.owit[node[b], imgs[b, x]]
                    imgs = self.conj_at(g[:, None], imgs[b][keep].reshape(len(b), -1))
                    br = br[b]
                    node = chain.child_of(node[b], least[br])
        return out

    def canonical_tuples(self, rows: np.ndarray) -> np.ndarray:
        """The least image of each row of an int32 array under
        simultaneous conjugation, down the chain of conjugation
        stabilizers (module docstring): a few flat gathers over all rows
        per position, and one for the rest of the rows once every row
        has reached the central node."""
        if self.spec.is_abelian:
            return rows
        n, chain, k = np.intp(self.n), self._chain, rows.shape[1]
        mult = self.mult.ravel()
        out = np.empty_like(rows)
        w = np.full(len(rows), self.identity, dtype=np.int32)   # conjugator so far
        node = np.full(len(rows), _ROOT, dtype=np.int32)
        for j in range(k):
            if not node.any():          # all central: the rest is w t w^-1
                out[:, j:] = self.conj_at(w[:, None], rows[:, j:])
                break
            at = node * n + self.conj_at(w, rows[:, j])
            out[:, j] = m = chain.omin.take(at)
            if j + 1 < k:
                w = mult.take(chain.owit.take(at) * n + w)
                node = chain.child_of(node, m)
        return out

    @cached_property
    def _chain(self) -> "_StabilizerChain":
        return _StabilizerChain(self, np.arange(self.n, dtype=np.int32))

    @cached_property
    def _family_chain(self) -> "_StabilizerChain":
        return _StabilizerChain(self, self.cyclic_key)


_CENTRAL, _ROOT = 0, 1          # chain nodes: every subgroup of the centre, and G


class _StabilizerChain:
    """The stabilizers H of m_0, ..., m_j under one action of G by
    conjugation, grown on demand and named by their member sets: g takes
    x to key[g x g^-1], with key the identity map for elements (H is
    C_G(m_0, ..., m_j)) and cyclic_key for cyclic subgroups (H normalizes
    each <m_i>).  Node h holds, for every x, the least image omin[h, x]
    of x under H and an element owit[h, x] of H taking x there;
    child[h, m] is the node of the stabilizer of m in H, or -1 until a
    row needs it.  Every subgroup of the centre fixes every element and
    every cyclic subgroup, so one node stands for all of them.  Rows
    index the node arrays flat, node * n + x, in int32: at 12 bytes per
    entry, memory runs out long before an index passes 2^31."""

    def __init__(self, ix: IndexedGroup, key: np.ndarray):
        n, (rep, wit) = ix.n, ix._class_data
        self.ix, self.key = ix, key
        self.members = [np.flatnonzero(ix.central).astype(np.int32),
                        np.arange(n, dtype=np.int32)]
        self.nodes: dict[bytes, int] = {}
        # the root takes x to y, a member of its class holding the least key:
        # wit[x] takes x to the class representative and wit[y]^-1 that to y
        least = np.full(n, n, dtype=np.int32)
        np.minimum.at(least, rep, key)
        holder = np.empty(n, dtype=np.int32)
        y = np.flatnonzero(key == least[rep])
        holder[rep[y]] = y
        self.omin = np.stack((key, least[rep]))
        self.owit = np.stack((np.full(n, ix.identity, dtype=np.int32),
                              ix.mult[ix.inv[wit[holder[rep]]], wit]))
        self.child = np.full((2, n), -1, dtype=np.int32)
        self.child[_CENTRAL] = _CENTRAL

    def child_of(self, node: np.ndarray, m: np.ndarray) -> np.ndarray:
        """child[node, m], adding the nodes no row has reached before."""
        n = self.child.shape[1]
        out = self.child.take(node * n + m)
        missing = out < 0
        if not missing.any():
            return out
        omin, owit = [self.omin], [self.owit]
        step = max(1, _TABLE_CELLS // n)
        pairs = set(zip(node[missing].tolist(), m[missing].tolist()))
        xs: dict[int, list] = {}
        for h, x in pairs:
            xs.setdefault(h, []).append(x)
        fixing = {}         # the members of h fixing x: one read per node and slice
        for h, hx in xs.items():
            members = self.members[h]
            width = max(1, _TABLE_CELLS // len(members))
            for i in range(0, len(hx), width):
                block = np.array(hx[i:i + width])
                hit = self.key[self.ix.conj_at(members[:, None], block)] == block
                fixing.update(((h, x), members[col]) for x, col in zip(hx[i:i + width], hit.T))
        for h, x in pairs:
            members, fixed = self.members[h], fixing[h, x]
            if len(fixed) == len(members):
                c = h
            elif self.ix.central[fixed].all():
                c = _CENTRAL
            else:
                c = self.nodes.setdefault(fixed.tobytes(), len(self.members))
                if c == len(self.members):
                    self.members.append(fixed)
                    # a running least image, and a witness from each slice reaching it
                    # by a scatter (argmin pages in a kernel: +0.1 MB peak RSS)
                    least, wit = np.full(n, n, dtype=np.int32), np.empty(n, dtype=np.int32)
                    for i in range(0, len(fixed), step):
                        part = fixed[i:i + step]
                        imgs = self.key[self.ix.conj_rows(part)]
                        np.minimum(least, imgs.min(axis=0), out=least)
                        g, y = np.nonzero(imgs == least)
                        wit[y] = part[g]
                    omin.append(least[None])
                    owit.append(wit[None])
            self.child[h, x] = c
        if len(omin) > 1:
            self.omin, self.owit = np.concatenate(omin), np.concatenate(owit)
            self.child = np.concatenate(
                (self.child, np.full((len(omin) - 1, n), -1, dtype=np.int32)))
        return self.child.take(node * n + m)
