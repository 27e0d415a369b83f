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
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .groups import GeneratingTuple, GroupSpec, Integers, CyclicPower, is_generating
from .indexed import MAX_INDEXED_ORDER, IndexedGroup
from .redundancy import (RankSearchResult, SearchLimits, irredundant_witness,
                         max_irredundant_size)

_MOVE_KINDS = ("L", "R", "I", "S")

# Rows of candidate tuples canonicalised at once when orbit_statistics
# lists the generating classes.
_SLICE_ROWS = 1 << 16


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

    def check_length(self, n: int) -> None:
        if max(self.i, self.j) >= n:
            raise ValueError("move index exceeds tuple length")

    def apply(self, items: tuple, mul, inv) -> tuple:
        """The move acting on a tuple of elements of any group, given its
        product and inverse.  Indices are not checked against the
        length; see check_length."""
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
    moves = []
    for kind in ("L", "R"):
        for i in range(n):
            for j in range(n):
                if i != j:
                    for s in (1, -1):
                        moves.append(NielsenMove(kind, i, j, s))
    for i in range(n):
        moves.append(NielsenMove("I", i))
    for i in range(n):
        for j in range(i + 1, n):
            moves.append(NielsenMove("S", i, j))
    return tuple(moves)


def apply_move(t: GeneratingTuple, mv: NielsenMove) -> GeneratingTuple:
    mv.check_length(len(t))
    g = t.group
    return GeneratingTuple(g, mv.apply(t.items, g.mul, g.inv))


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


def _redundant_entry(t: tuple, identity, inv, generates):
    """Index of a droppable entry, or None.  Cheap shapes first: an
    identity entry, a repeated entry, an entry whose inverse is also
    present; then the full one-entry drop tests.  Serves index tuples
    and element tuples alike: elements compare equal exactly when their
    encodings do."""
    seen = {}
    for i, x in enumerate(t):
        if x == identity or x in seen:
            return i
        seen[x] = i
    for i, x in enumerate(t):
        j = seen.get(inv(x))
        if j is not None and j != i:
            return i
    for i in range(len(t)):
        if generates(t[:i] + t[i + 1:]):
            return i
    return None


def _reconstruct_path(parents: dict, node: tuple) -> tuple:
    path = []
    while parents[node] is not None:
        node, mv = parents[node]
        path.append(mv)
    return tuple(reversed(path))


def _orbit_walk(start: tuple, canon, droppable, mul, inv, limits: SearchLimits,
                deadline: float | None = None):
    """Breadth-first walk over the canonical forms of the Nielsen orbit
    of start until a member with a droppable entry turns up.  Returns
    (verdict, that member or None, move path or None, visited)."""
    t0 = time.monotonic()
    moves = all_moves(len(start))
    start_c = canon(start)
    parents: dict = {start_c: None}
    dq = deque([start_c])
    while dq:
        now = time.monotonic()
        if len(parents) > limits.node_budget or now - t0 > limits.time_budget or \
                (deadline is not None and now > deadline):
            return "Unknown", None, None, len(parents)
        node = dq.popleft()
        if droppable(node) is not None:
            return ("NielsenRedundant", node, _reconstruct_path(parents, node),
                    len(parents))
        for mv in moves:
            child = canon(mv.apply(node, mul, inv))
            if child not in parents:
                parents[child] = (node, mv)
                dq.append(child)
    return "NielsenIrredundant", None, None, len(parents)


def _orbit_walk_indexed(ix: IndexedGroup, start: tuple, limits: SearchLimits,
                        deadline: float | None = None):
    inv = ix.inv.item
    return _orbit_walk(start, ix.canonical_tuple,
                       lambda t: _redundant_entry(t, ix.identity, inv, ix.generates),
                       ix.mult.item, inv, limits, deadline)


def _orbit_walk_generic(g: GroupSpec, items: tuple, limits: SearchLimits):
    """The orbit walk on the elements themselves, for groups past the
    indexed tables; tuples are kept literally, not up to conjugation."""
    e = g.identity()

    def generates(rest):
        return is_generating(GeneratingTuple(g, rest))

    return _orbit_walk(items, lambda t: t,
                       lambda t: _redundant_entry(t, e, g.inv, generates),
                       g.mul, g.inv, limits)


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
        ix = IndexedGroup.from_spec(g)
        walk = _orbit_walk_indexed(ix, ix.indices_of(t), limits)
        to_tuple = ix.tuple_of
    else:
        walk = _orbit_walk_generic(g, t.items, limits)
        to_tuple = partial(GeneratingTuple, g)
        if g.order is None or not g.is_abelian:
            notes = ("orbit deduplication is literal, not up to conjugation",)
    verdict, end, path, visited = walk
    if verdict == "Unknown":
        notes += ("orbit walk stopped at the search budget",)
    return OrbitReport(t, verdict, path, None if end is None else to_tuple(end),
                       visited, notes)


def _mu_analytic_cyclic(spec: CyclicPower) -> RankSearchResult:
    """mu for (Z/m)^k is k when m > 1: generating k-tuples are
    invertible matrices over Z/m, whose columns stay independent under
    column operations, while any longer generating tuple column-reduces
    to one with a dependent entry."""
    if spec.modulus == 1:
        witness = GeneratingTuple(spec, ())
        value = 0
    else:
        witness = GeneratingTuple(spec, spec.generators())
        value = spec.copies
    return RankSearchResult(
        spec, "mu", value, witness, exhaustive=True,
        stats={"m": None, "nodes": 0, "orbit_nodes": 0},
        notes=("value from column reduction over the residue ring",))


def mu_rank(spec: GroupSpec, limits: SearchLimits | None = None,
            force_search: bool = False) -> RankSearchResult:
    """Largest size of a Nielsen-irredundant generating tuple.

    The ladder runs over sizes from the minimal generating size d up to
    the maximal irredundant size m.  Size-d tuples are Nielsen
    irredundant outright (no generating tuple of any smaller size
    exists, so no entry is ever droppable anywhere in an orbit).  At
    each larger size every conjugacy class of irredundant generating
    sets is walked; redundant generating tuples are Nielsen redundant
    via the empty move sequence, so those classes cover everything."""
    limits = limits or SearchLimits()
    if isinstance(spec, Integers):
        return RankSearchResult(
            spec, "mu", 1, GeneratingTuple(spec, (1,)), exhaustive=True,
            stats={"m": None, "nodes": 0, "orbit_nodes": 0},
            notes=("any longer integer tuple reduces to a unit entry by the "
                   "euclidean algorithm through Nielsen moves",))
    if isinstance(spec, CyclicPower) and not force_search:
        return _mu_analytic_cyclic(spec)
    if spec.order is None:
        raise ValueError(f"unsupported infinite group {spec.descriptor()}")
    t0 = time.monotonic()
    if spec.order > MAX_INDEXED_ORDER:
        w = irredundant_witness(spec, 2, limits=limits)
        if w.witness is not None and not spec.is_abelian:
            return RankSearchResult(
                spec, "mu", 2, w.witness, exhaustive=False,
                stats={"m": None, "nodes": w.stats.get("nodes", 0), "orbit_nodes": 0},
                notes=("lower bound: a generating pair of a nonabelian group "
                       "is minimal, hence Nielsen irredundant; the exhaustive "
                       f"ladder is limited to order <= {MAX_INDEXED_ORDER}",))
        return RankSearchResult(
            spec, "mu", None, None, exhaustive=False,
            stats={"m": None, "nodes": w.stats.get("nodes", 0), "orbit_nodes": 0},
            notes=(f"group order exceeds the exhaustive bound {MAX_INDEXED_ORDER} "
                   "and no generating pair was found",))
    m_res = max_irredundant_size(spec, limits=limits, force_search=force_search)
    if not m_res.exhaustive:
        return RankSearchResult(
            spec, "mu", None, None, exhaustive=False,
            stats={"m": m_res.value, "nodes": m_res.stats["nodes"], "orbit_nodes": 0},
            notes=("the underlying irredundant-set search hit its budget",))
    classes = m_res.stats.get("classes", {})
    ix = IndexedGroup.from_spec(spec)
    if not classes:
        # trivial group: the empty tuple generates and nothing is droppable
        return RankSearchResult(
            spec, "mu", 0, GeneratingTuple(spec, ()), exhaustive=True,
            stats={"m": 0, "nodes": m_res.stats["nodes"], "orbit_nodes": 0})
    d = min(classes)
    m_val = max(classes)
    mu = d
    witness = ix.tuple_of(classes[d][0])
    notes = [f"size {d} is the minimal generating size; minimal tuples are "
             "Nielsen irredundant"]
    orbit_nodes = 0
    exhaustive = True
    deadline = t0 + limits.time_budget
    for k in range(d + 1, m_val + 1):
        for cset in classes.get(k, ()):
            verdict, _, _, visited = _orbit_walk_indexed(ix, tuple(cset), limits,
                                                         deadline=deadline)
            orbit_nodes += visited
            if verdict == "NielsenIrredundant":
                mu = k
                witness = ix.tuple_of(cset)
                break
            if verdict == "Unknown":
                exhaustive = False
                notes.append(f"size {k}: an orbit walk hit the budget; "
                             "the verdict there is open")
                break
    result_notes = tuple(notes if exhaustive else notes + [
        "value is a lower bound"])
    return RankSearchResult(
        spec, "mu", mu, witness, exhaustive=exhaustive,
        stats={"m": m_val, "nodes": m_res.stats["nodes"], "orbit_nodes": orbit_nodes},
        notes=result_notes)


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
        if self.orbit_count == 0:
            return 0.0
        return self.orbits_with_redundant / self.orbit_count


def orbit_statistics(spec: GroupSpec, size: int,
                     limits: SearchLimits | None = None) -> OrbitStatistics:
    """Partition all conjugacy classes of generating tuples of one size
    into Nielsen orbits and report which orbits contain a redundant
    tuple.  Exact and exhaustive, hence limited to small groups.  Orbits
    are walked a breadth-first layer at a time over the sorted class codes
    sum t_j n^(k-1-j); budgets are checked before every layer (the node
    budget counts classes reached) and an unfinished orbit is dropped."""
    limits = limits or SearchLimits()
    if size < 1:
        raise ValueError("size must be positive")
    if spec.order is None or spec.order > 1000:
        raise ValueError("orbit statistics are limited to groups of order <= 1000")
    est = spec.order ** size if spec.is_abelian else spec.order ** (size - 1)
    if est > 2_000_000:
        raise ValueError("too many tuple classes at this size; pick a smaller size")
    ix = IndexedGroup.from_spec(spec)
    t0 = time.monotonic()

    def spent(reached: int = 0) -> bool:
        return reached > limits.node_budget or time.monotonic() - t0 > limits.time_budget

    # a canonical tuple starts with a class representative c: one block per
    # c, canonicalised a slice of rows at a time to bound memory
    weights = ix.n ** np.arange(size - 1, -1, -1, dtype=np.int64)
    free = (np.arange(ix.n ** (size - 1))[:, None] // weights[1:] % ix.n).astype(np.int32)
    blocks = [np.empty((0, size), dtype=np.int32)]
    for c, lo in itertools.product(ix.class_min_reps(), range(0, len(free), _SLICE_ROWS)):
        if spent():
            break
        part = free[lo:lo + _SLICE_ROWS]
        rows = np.column_stack((np.full(len(part), c, dtype=np.int32), part))
        rows = rows[(ix.canonical_tuples(rows) == rows).all(axis=1)]
        blocks.append(rows[np.array([ix.generates(t) for t in rows.tolist()], dtype=bool)])
    table = np.concatenate(blocks)
    codes = table @ weights
    done = np.zeros(len(table), dtype=bool)
    orbit_sizes, with_red, stopped = [], 0, spent()
    for start in range(len(table)):
        if done[start]:
            continue
        done[start] = True
        layers = [np.array([start])]
        while layers[-1].size and not (stopped := spent(int(done.sum()))):
            cols, found = tuple(table[layers[-1]].T), []
            for mv in all_moves(size):
                moved = mv.apply(cols, lambda a, b: ix.mult[a, b], ix.inv.__getitem__)
                child = ix.canonical_tuples(np.stack(moved, axis=1)) @ weights
                ids = np.minimum(np.searchsorted(codes, child), len(codes) - 1)
                if (codes[ids] != child).any():
                    raise AssertionError("orbit left the generating-class table")
                found.append(np.unique(ids[~done[ids]]))
                done[found[-1]] = True
            layers.append(np.concatenate(found))
        if stopped:
            break
        members = table[np.concatenate(layers)].tolist()
        orbit_sizes.append(len(members))
        with_red += any(_redundant_entry(t, ix.identity, ix.inv.item, ix.generates) is not None
                        for t in members)
    notes = ("stopped at the search budget before all orbits were walked",) if stopped else ()
    return OrbitStatistics(spec, size, len(table), len(orbit_sizes),
                           tuple(sorted(orbit_sizes, reverse=True)), with_red, stopped, notes)
