"""Nielsen transformations on generating tuples and the maximal
Nielsen-irredundant size.

A Nielsen move multiplies one entry by another entry or its inverse (on
either side), inverts an entry, or swaps two entries.  Moves are
invertible and fix the generated subgroup, so they act on the
generating tuples of one length.  A generating tuple is Nielsen
redundant when some move sequence reaches a tuple with a droppable
entry, and Nielsen irredundant otherwise; the rank mu is the largest
size carrying a Nielsen-irredundant generating tuple.

Orbit walks run on canonical forms under simultaneous conjugation:
conjugation commutes with every move entrywise, so a recorded move path
replayed from the original tuple reaches a conjugate of the stored
endpoint, and droppability verdicts transfer along conjugation.  A
Nielsen-irredundant tuple is in particular irredundant (the empty move
sequence), so at each size only the orbits of irredundant generating
classes have to be inspected, and a redundant member anywhere in an
orbit settles that whole orbit.

On indexed groups is_nielsen_redundant walks one orbit a breadth-first
layer at a time, every move applied to the whole layer and the children
canonicalised and tested for droppable entries in batches; it records
the move path and the classes visited.  Groups past the tables keep a
per-node walk over literal tuples.  orbit_statistics (every generating
class) and the mu ladder (the orderings of the irredundant generating
sets of one size) walk no orbit: the orbits in their class tables are
the connected components under the few moves that generate all others.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .groups import GeneratingTuple, GroupSpec, Integers, CyclicPower, is_generating
from .indexed import _ROOT, MAX_INDEXED_ORDER, IndexedGroup
from .redundancy import (RankSearchResult, SearchLimits, _searched_rank,
                         irredundant_witness)

_MOVE_KINDS = ("L", "R", "I", "S")

# Rows that one call canonicalises or drop-tests: in the moves and drop
# tests of class tables, and in the layer walk.
_SLICE_ROWS = 1 << 14
_LIST_CELLS = 1 << 10     # candidates per slice of the class listing (2^14 raised peak RSS)


@dataclass(frozen=True)
class NielsenMove:
    """One elementary move: L multiplies entry i on the left by entry j
    (sign -1 uses the inverse of entry j), R on the right, I inverts
    entry i, S swaps entries i and j."""

    kind: str
    i: int
    j: int = -1
    sign: int = 1

    def __post_init__(self):
        if self.kind not in _MOVE_KINDS:
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.i < 0:
            raise ValueError("index out of range")
        if self.kind in ("L", "R", "S"):
            if self.j < 0 or self.j == self.i:
                raise ValueError("moves need two distinct indices")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def inverse(self) -> "NielsenMove":
        if self.kind in ("L", "R"):
            return NielsenMove(self.kind, self.i, self.j, -self.sign)
        return self

    def describe(self) -> str:
        if self.kind == "I":
            return f"I({self.i})"
        if self.kind == "S":
            return f"S({self.i},{self.j})"
        return f"{self.kind}({self.i},{self.j},{self.sign:+d})"

    def apply(self, items: tuple, mul, inv) -> tuple:
        """The move acting on a tuple of elements of any group, given its
        product and inverse.  Indices are not checked against the
        length."""
        out = list(items)
        i = self.i
        if self.kind == "I":
            out[i] = inv(out[i])
        elif self.kind == "S":
            out[i], out[self.j] = out[self.j], out[i]
        else:
            other = out[self.j] if self.sign > 0 else inv(out[self.j])
            out[i] = mul(other, out[i]) if self.kind == "L" else mul(out[i], other)
        return tuple(out)


def all_moves(n: int) -> tuple:
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return tuple([NielsenMove(kind, i, j, s) for kind in ("L", "R") for i, j in pairs
                  for s in (1, -1)] + [NielsenMove("I", i) for i in range(n)] +
                 [NielsenMove("S", i, j) for i, j in pairs if i < j])


@dataclass
class OrbitReport:
    """Result of walking one Nielsen orbit.  verdict is
    NielsenRedundant (with a move path from the start to a tuple with a
    droppable entry), NielsenIrredundant (orbit exhausted), or Unknown
    (budget ran out first)."""

    start: GeneratingTuple
    verdict: str
    path: tuple | None
    endpoint: GeneratingTuple | None
    visited: int
    notes: tuple = ()


def _orbit_walk_generic(g: GroupSpec, items: tuple, limits: SearchLimits):
    """Breadth-first walk over the Nielsen orbit of a tuple of elements,
    for groups past the indexed tables, until a member with a droppable
    entry turns up; tuples are kept literally, not up to conjugation.
    Every member generates, so an entry is droppable exactly when the
    rest still generates.  Returns (verdict, that member or None, move
    path or None, visited)."""
    t0 = time.monotonic()
    moves = all_moves(len(items))
    parents: dict = {items: None}
    dq = deque([items])
    while dq:
        if len(parents) > limits.node_budget or time.monotonic() - t0 > limits.time_budget:
            return "Unknown", None, None, len(parents)
        node = dq.popleft()
        if any(is_generating(GeneratingTuple(g, node[:i] + node[i + 1:]))
               for i in range(len(node))):
            path, cur = [], node
            while parents[cur] is not None:
                cur, mv = parents[cur]
                path.append(mv)
            return "NielsenRedundant", GeneratingTuple(g, node), tuple(path[::-1]), len(parents)
        for mv in moves:
            child = mv.apply(node, g.mul, g.inv)
            if child not in parents:
                parents[child] = (node, mv)
                dq.append(child)
    return "NielsenIrredundant", None, None, len(parents)


# ---------------------------------------------------------------------------
# The indexed walk: one breadth-first layer at a time.
# ---------------------------------------------------------------------------

def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """Exact sortable row keys: the codes sum r_j n^(k-1-j) of entries
    below n while they fit in int64, the row bytes past that."""
    k = rows.shape[1]
    if n ** k < 1 << 63:
        keys = rows[:, 0].astype(np.int64)
        for j in range(1, k):       # in place: a temporary per step raised the peak RSS
            keys *= n
            keys += rows[:, j]
        return keys
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * k))).ravel()


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_index=True) from one argsort: the sorted
    distinct keys, and the least position holding each."""
    order = np.argsort(keys)
    ranked = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(starts)
    return ranked[starts], np.minimum.reduceat(order, starts)


def _move_cells(moves: tuple, k: int) -> np.ndarray:
    """Entry j of a k-tuple under moves[m] is the product of the columns
    cells[m, j] of [t, t^-1, e], read off NielsenMove.apply on column
    names."""
    return np.array([[v if isinstance(v, tuple) else (2 * k, v) for v in mv.apply(
        tuple(range(k)), lambda a, b: (a, b), lambda c: c + k)] for mv in moves], np.intp)


def _moved(ix: IndexedGroup, rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Every move of cells applied to every row, in (row, move) order."""
    ext = np.column_stack((rows, ix.inv[rows], np.full(len(rows), ix.identity, np.int32)))
    moved = ix.mult[ext[:, cells[..., 0]], ext[:, cells[..., 1]]]
    return moved.astype(np.int32).reshape(-1, rows.shape[1])    # keyed like every int32 row


def _droppable(ix: IndexedGroup, rows: np.ndarray, deadline: float) -> np.ndarray:
    """Which generating rows have an entry whose removal leaves a
    generating tuple, as an identity, repeated or inverse entry does."""
    drop = np.zeros(len(rows), dtype=bool)
    for i in range(rows.shape[1]):
        todo = np.flatnonzero(~drop)
        drop[todo] = ix.generates_rows(np.delete(rows[todo], i, axis=1), deadline)
    return drop


def _children(ix: IndexedGroup, rows: np.ndarray, cells: np.ndarray, known: np.ndarray):
    """The canonical forms one move away from rows whose keys are not in
    the sorted, nonempty known, at their first occurrence in (row, move)
    order: (children, keys, row ids, move ids).  Slices bound the memory,
    and one dedupe of their first occurrences keeps the earliest."""
    moves = len(cells)
    step = max(1, _SLICE_ROWS // moves)
    parts = []
    for lo in range(0, len(rows) or 1, step):
        canon = ix.canonical_tuples(_moved(ix, rows[lo:lo + step], cells))
        keys = _row_keys(canon, ix.n)
        uniq, first = _first_occurrences(keys)
        fresh = known[np.minimum(np.searchsorted(known, uniq), len(known) - 1)] != uniq
        first = np.sort(first[fresh])
        parts.append((canon[first], keys[first], first + lo * moves))
    canon, keys, pos = (np.concatenate(part) for part in zip(*parts))
    first = np.sort(_first_occurrences(keys)[1])    # pos increases along the slices
    return canon[first], keys[first], pos[first] // moves, pos[first] % moves


def _layer_walk(ix: IndexedGroup, start, node_budget: int, deadline: float):
    """Breadth-first walk over the canonical forms of the Nielsen orbit
    of start a layer at a time, each layer's rows in (parent, move)
    order.  Moves are invertible, so children fall in the layer before,
    the same or the next: only those two are checked for duplicates.
    Past node_budget classes or the deadline before a layer the walk is
    Unknown.  It stops at the first droppable member, having visited its
    layers so far and the new children of the members ahead of it.
    Returns (verdict, member or None, path or None, visited)."""
    moves = all_moves(len(start))
    cells = _move_cells(moves, len(start))
    layer = ix.canonical_tuples(np.array([start], dtype=np.int32))
    keys = _row_keys(layer, ix.n)
    prev, links, visited = keys[:0], [], 1     # links: parent row and move per row
    while len(layer):
        if visited > node_budget or time.monotonic() > deadline:
            return "Unknown", None, None, visited
        known = np.sort(np.concatenate([prev, keys]))
        if (drop := _droppable(ix, layer, deadline)).any():
            r = stop = int(np.argmax(drop))
            visited += len(_children(ix, layer[:stop], cells, known)[0])
            path = []
            for parents, move_ids in reversed(links):
                path.append(moves[move_ids[r]])
                r = parents[r]
            return "NielsenRedundant", tuple(layer[stop].tolist()), tuple(path[::-1]), visited
        layer, new, parents, move_ids = _children(ix, layer, cells, known)
        prev, keys = keys, new
        links.append((parents, move_ids))
        visited += len(layer)
    return "NielsenIrredundant", None, None, visited


def is_nielsen_redundant(t: GeneratingTuple,
                         limits: SearchLimits | None = None) -> OrbitReport:
    """Walk the Nielsen orbit of a generating tuple looking for a
    member with a droppable entry."""
    limits = limits or SearchLimits()
    if not is_generating(t):
        raise ValueError("tuple does not generate; Nielsen analysis is undefined")
    g = t.group
    if len(t) == 0:
        return OrbitReport(t, "NielsenIrredundant", None, None, 1)
    notes: tuple = ()
    if g.order is not None and g.order <= MAX_INDEXED_ORDER:
        deadline = time.monotonic() + limits.time_budget
        try:
            ix = IndexedGroup(g, deadline)
            verdict, end, path, visited = _layer_walk(ix, ix.indices_of(t),
                                                      limits.node_budget, deadline)
            end = None if end is None else ix.tuple_of(end)
        except TimeoutError:        # the tables or masks were not finished
            verdict, end, path, visited = "Unknown", None, None, 0
    else:
        verdict, end, path, visited = _orbit_walk_generic(g, t.items, limits)
        if g.order is None or not g.is_abelian:
            notes = ("orbit deduplication is literal, not up to conjugation",)
    if verdict == "Unknown":
        notes += ("orbit walk stopped at the search budget",)
    return OrbitReport(t, verdict, path, end, visited, notes)


def _mu_analytic_cyclic(spec: CyclicPower) -> RankSearchResult:
    """mu for (Z/m)^k is k when m > 1: generating k-tuples are
    invertible matrices over Z/m, whose columns stay independent under
    column operations, while any longer generating tuple column-reduces
    to one with a dependent entry."""
    witness = GeneratingTuple(spec, () if spec.modulus == 1 else spec.generators())
    return RankSearchResult(
        spec, "mu", len(witness), witness, exhaustive=True,
        stats={"m": None, "nodes": 0, "orbit_nodes": 0},
        notes=("value from column reduction over the residue ring",))


def _ladder_rung(ix: IndexedGroup, sets: np.ndarray, node_budget: int, deadline: float):
    """(classes, clean) for the rows of sets, the irredundant generating
    sets of one size k: classes counts the table I_k, the canonical forms
    of every ordering of every set, and clean says by set whether its
    orbit has no redundant member.  clean is None past the deadline before
    a slice (classes is then 0) or past node_budget classes in the built
    table.  A moved tuple outside I_k generates, so it is redundant; a
    component of I_k that no move leaves is closed under the moves, so,
    the orbit being finite, under their inverses too."""
    k = sets.shape[1]
    perms = list(itertools.permutations(range(k)))      # the identity first
    canon = sets[:, perms].reshape(-1, k)
    for lo in range(0, len(canon), _SLICE_ROWS):
        if time.monotonic() > deadline:
            return 0, None
        canon[lo:lo + _SLICE_ROWS] = ix.canonical_tuples(canon[lo:lo + _SLICE_ROWS])
    keys = _row_keys(canon, ix.n)
    codes, first = _first_occurrences(keys)
    if len(codes) > node_budget or (found := _orbits(ix, canon[first], codes, deadline)) is None:
        return len(codes), None
    root, leaves = found
    leaky = np.bincount(root[leaves], minlength=len(root)) > 0
    return len(codes), ~leaky[root[np.searchsorted(codes, keys[::len(perms)])]]


def mu_rank(spec: GroupSpec, limits: SearchLimits | None = None,
            seed: int = 0) -> RankSearchResult:
    """Largest size of a Nielsen-irredundant generating tuple; see _mu_ladder."""
    limits = limits or SearchLimits()
    if isinstance(spec, Integers):
        return RankSearchResult(
            spec, "mu", 1, GeneratingTuple(spec, (1,)), exhaustive=True,
            stats={"m": None, "nodes": 0, "orbit_nodes": 0},
            notes=("any longer integer tuple reduces to a unit entry by the "
                   "euclidean algorithm through Nielsen moves",))
    if isinstance(spec, CyclicPower):
        return _mu_analytic_cyclic(spec)
    if spec.order is None:
        raise ValueError(f"unsupported infinite group {spec.descriptor()}")
    if spec.order > MAX_INDEXED_ORDER:
        w = irredundant_witness(spec, 2, limits=limits, seed=seed)
        found = w.witness is not None and not spec.is_abelian
        return RankSearchResult(
            spec, "mu", 2 if found else None, w.witness if found else None,
            exhaustive=False,
            stats={"m": None, "nodes": w.stats.get("nodes", 0), "orbit_nodes": 0},
            notes=(("lower bound: a generating pair of a nonabelian group "
                    "is minimal, hence Nielsen irredundant; the exhaustive "
                    f"ladder is limited to order <= {MAX_INDEXED_ORDER}") if found else
                   (f"group order exceeds the exhaustive bound {MAX_INDEXED_ORDER} "
                    "and no generating pair was found"),))
    return _mu_ladder(spec, limits)


def _mu_ladder(spec: GroupSpec, limits: SearchLimits) -> RankSearchResult:
    """mu of an indexed group, on the tables of its m search.

    Size-d tuples, d the minimal generating size, are Nielsen irredundant
    outright: no smaller generating tuple exists, so no entry is ever
    droppable.  Redundant tuples are Nielsen redundant via the empty move
    sequence, so the ladder runs from the maximal irredundant size m down
    to d + 1, deciding each size's orbits with _ladder_rung, and stops at
    the first clean orbit.  A rung past the node or time budget leaves its
    size open, and the ladder goes on down."""
    deadline = time.monotonic() + limits.time_budget
    m_res, ix = _searched_rank(spec, limits)
    if not m_res.exhaustive:
        return RankSearchResult(
            spec, "mu", None, None, exhaustive=False,
            stats={"m": m_res.value, "nodes": m_res.stats["nodes"], "orbit_nodes": 0},
            notes=("the underlying irredundant-set search hit its budget",))
    classes = m_res.stats["classes"]
    d, m_val = min(classes), max(classes)
    witness = ix.tuple_of(classes[d][0])
    notes = [f"size {d} is the minimal generating size; minimal tuples are "
             "Nielsen irredundant"]
    orbit_nodes, exhaustive = 0, True
    for k in range(m_val, d, -1):
        sets = classes.get(k, [])
        count, clean = _ladder_rung(ix, np.array(sets, dtype=np.int32).reshape(-1, k),
                                    limits.node_budget, deadline)
        orbit_nodes += count
        if clean is None:
            exhaustive = False
            notes.append(f"size {k}: the class table passed the node or time budget; "
                         "the verdict there is open")
        elif clean.any():
            witness = ix.tuple_of(sets[int(np.argmax(clean))])
            break
    if not exhaustive:
        notes.append("value is a lower bound")
    return RankSearchResult(
        spec, "mu", len(witness), witness, exhaustive=exhaustive,
        stats={"m": m_val, "nodes": m_res.stats["nodes"], "orbit_nodes": orbit_nodes},
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# Full orbit partition at one size, for inspection.
# ---------------------------------------------------------------------------

@dataclass
class OrbitStatistics:
    group: GroupSpec
    size: int
    generating_classes: int
    orbit_count: int
    orbit_sizes: tuple
    orbits_with_redundant: int
    partial: bool
    notes: tuple = ()

    @property
    def fraction_with_redundant(self) -> float:
        return self.orbits_with_redundant / self.orbit_count if self.orbit_count else 0.0


def _generating_classes(ix: IndexedGroup, size: int, deadline: float) -> np.ndarray:
    """The canonical generating tuples of one size in increasing order, as
    far as the deadline allows, _LIST_CELLS candidates at a time: a tuple
    is canonical exactly when each entry is a fixed point of omin at the
    chain node the entries before it reach (any element if G is abelian)."""
    chain = None if ix.spec.is_abelian else ix._chain
    ar, step = np.arange(ix.n, dtype=np.int32), max(1, _LIST_CELLS // ix.n)
    rows, node = np.empty((1, 0), dtype=np.int32), np.full(1, _ROOT, dtype=np.int32)
    for j in range(size):
        parts, nodes = [np.empty((0, j + 1), dtype=np.int32)], [node[:0]]
        for lo in range(0, len(rows), step):
            if time.monotonic() > deadline:
                break
            h = node[lo:lo + step]
            fixed = np.ones((len(h), ix.n), dtype=bool) if chain is None else chain.omin[h] == ar
            x = np.tile(ar, len(h))[fixed.ravel()]      # row by row, in increasing order
            count = fixed.sum(axis=1)
            part = np.column_stack((np.repeat(rows[lo:lo + step], count, axis=0), x))
            parts.append(part if j + 1 < size else part[ix.generates_rows(part, deadline)])
            if j + 1 < size:
                h = np.repeat(h, count)
                nodes.append(h if chain is None else chain.child_of(h, x))
        rows, node = np.concatenate(parts), np.concatenate(nodes)
    return rows


def _generating_moves(k: int) -> tuple:
    """Moves that generate every Nielsen move of k-tuples: the neighbour
    swaps S(i,i+1), I(0) and R(0,1,+1) (Nielsen, Math. Ann. 91, 1924).
    The swaps generate every permutation of the entries, so I(i) and
    R(i,j,+-1) are swap conjugates of I(0), R(0,1,+1) and its inverse,
    and L(i,j,s) = I(i) R(i,j,-s) I(i)."""
    if k < 2:
        return all_moves(k)
    return (*(NielsenMove("S", i, i + 1) for i in range(k - 1)), NielsenMove("I", 0),
            NielsenMove("R", 0, 1, 1))


def _components(edges: np.ndarray) -> np.ndarray:
    """The least node of the connected component of each node, for the
    graph on range(len(edges)) with an edge from v to each edges[v, c].
    A union-find in array passes, a column of edges at a time: each root
    is hooked to the least root across an edge (np.minimum.at), then
    every node jumps to its root, until no column joins two roots.  A
    node points at no larger node, so every root is its component's
    least node."""
    root = np.arange(len(edges), dtype=edges.dtype)
    joined = True
    while joined:
        joined = False
        for col in edges.T:
            while (split := root != root[col]).any():
                a, b = root[split], root[col[split]]
                np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
                while ((jump := root[root]) != root).any():
                    root = jump
                joined = True
    return root


def _orbits(ix: IndexedGroup, table: np.ndarray, codes: np.ndarray, deadline: float):
    """(root, leaves) for a sorted table of canonical tuples with row
    codes codes, or None once the deadline passes before a slice: each
    slice of rows is moved by _generating_moves, canonicalised and mapped
    to table ids by binary search.  root names each class's component by
    its least class (_components), and leaves flags the classes that
    some move takes out of the table, with an edge to themselves."""
    k = table.shape[1]
    cells = _move_cells(_generating_moves(k), k)
    step = max(1, _SLICE_ROWS // len(cells))
    edges = np.empty((len(table), len(cells)), dtype=np.int32)
    leaves = np.zeros(len(table), dtype=bool)
    for lo in range(0, len(table) or 1, step):
        if time.monotonic() > deadline:
            return None
        moved = _row_keys(ix.canonical_tuples(_moved(ix, table[lo:lo + step], cells)), ix.n)
        order = np.argsort(moved)       # sorted needles search 2-4x faster
        ids = np.empty(len(moved), dtype=np.intp)
        ids[order] = np.minimum(np.searchsorted(codes, moved[order]), len(codes) - 1)
        out = (codes[ids] != moved).reshape(-1, len(cells))
        edges[lo:lo + step] = np.where(out, np.arange(lo, lo + len(out))[:, None],
                                       ids.reshape(out.shape))
        leaves[lo:lo + step] = out.any(axis=1)
    return _components(edges), leaves


def orbit_statistics(spec: GroupSpec, size: int,
                     limits: SearchLimits | None = None) -> OrbitStatistics:
    """Partition all conjugacy classes of generating tuples of one size
    into Nielsen orbits and report which orbits contain a redundant
    tuple.  Exact and exhaustive, hence limited to small groups.

    Conjugation commutes with every move, so the orbits of classes are
    the connected components of the class table under a set of moves
    generating all the others (_generating_moves); a component ignores
    edge direction, so the inverse moves come free.  The deadline is
    checked before every slice of the drop tests and of _orbits and, once
    passed, leaves no orbit.  Orbits are counted in order of least class
    while their total size stays within the node budget, so a budget
    below 1 stops right after the class listing."""
    limits = limits or SearchLimits()
    if size < 1:
        raise ValueError("size must be positive")
    if spec.order is None or spec.order > MAX_INDEXED_ORDER:
        raise ValueError(f"orbit statistics are limited to groups of order <= {MAX_INDEXED_ORDER}")
    # n^size classes (n^(size-1) up to conjugation), a factor max(n, 2) at a
    # time: no large integer, and every size from 22 on is refused
    est = 1
    for _ in range(size if spec.is_abelian else size - 1):
        est *= max(spec.order, 2)
        if est > 2_000_000:
            raise ValueError("too many tuple classes at this size; pick a smaller size")
    deadline = time.monotonic() + limits.time_budget
    notes = ("stopped at the search budget before all orbits were walked",)
    try:
        ix = IndexedGroup(spec, deadline)
        table = _generating_classes(ix, size, deadline)
    except TimeoutError:        # the tables or masks were not finished
        return OrbitStatistics(spec, size, 0, 0, (), 0, True, notes)
    if limits.node_budget < 1 and len(table):      # no orbit fits
        return OrbitStatistics(spec, size, len(table), 0, (), 0, True, notes)
    redundant = np.zeros(len(table), dtype=bool)
    for lo in range(0, len(table), _SLICE_ROWS):
        if time.monotonic() > deadline:         # then _orbits returns None
            break
        redundant[lo:lo + _SLICE_ROWS] = _droppable(ix, table[lo:lo + _SLICE_ROWS], deadline)
    found = _orbits(ix, table, _row_keys(table, ix.n), deadline)
    sizes, with_red, stopped = np.empty(0, dtype=np.int64), 0, found is None
    if not stopped:
        root, leaves = found
        if leaves.any():
            raise AssertionError("orbit left the generating-class table")
        redundant[root[redundant]] = True
        least = np.flatnonzero(root == np.arange(len(root)))
        sizes = np.bincount(root, minlength=len(root))[least]
        within = np.cumsum(sizes) <= limits.node_budget
        stopped = not within.all()
        sizes, with_red = sizes[within], int(redundant[least[within]].sum())
    return OrbitStatistics(spec, size, len(table), len(sizes),
                           tuple(sorted(sizes.tolist(), reverse=True)), with_red, stopped,
                           notes if stopped else ())
