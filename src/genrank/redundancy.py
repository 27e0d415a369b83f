"""Irredundant generating sets: redundancy verdicts, the ranks of finite
abelian groups by rule, maximal irredundant size search, and witnesses.

A finite subset of a group is independent when no member lies in the
subgroup generated by the others; a generating set is irredundant
exactly when it is independent.  Three facts drive the exhaustive
search:

  * generation and independence depend only on the cyclic subgroups of
    the members, and an independent set never holds two generators of
    one cyclic subgroup.  So the search walks sets of cyclic subgroups,
    each named by its least generator, and at the end expands every
    class it found into the classes of element sets that pick one
    generator of each member;
  * every subset of an irredundant generating set is separated: each
    member lies outside some maximal subgroup that holds the rest.  A
    partial set that is not separated is discarded with every
    extension.  With each element's maximal subgroups packed as a bit
    array, generation, separation and the drop tests of all one-element
    extensions of a set are one array pass;
  * a proper subset of an irredundant generating set never generates,
    so the moment a partial set generates, the branch is finished: the
    set is recorded if its one-element-smaller subsets all fail to
    generate, and either way nothing grows from it.

The search walks separated non-generating sets only, deduplicated up
to simultaneous conjugation: a conjugate of a separated non-generating
set is again one, and any extension of a set transfers to the
conjugated copy.  Exhausting the walk therefore visits every conjugacy
class of irredundant generating sets, which is what the maximum and the
class inventory rely on.  The time budget holds the table build, the
maximal masks, the walk and the expansion of the classes found.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from .fp import prime_coordinates, primes
from .groups import GeneratingTuple, GroupSpec, Integers, is_generating
from .indexed import _TABLE_CELLS, MAX_INDEXED_ORDER, IndexedGroup


@dataclass
class SearchLimits:
    """Budgets shared by the search entry points.  node_budget counts
    candidate evaluations; time_budget is wall seconds per search."""

    node_budget: int = 100_000_000
    time_budget: float = 600.0


@dataclass(frozen=True)
class RedundancyReport:
    """Generation plus per-entry droppability of one tuple."""

    subject: GeneratingTuple
    generates: bool
    droppable: tuple

    @property
    def verdict(self) -> str:
        if not self.generates:
            return "NotGenerating"
        return "RedundantGenerating" if any(self.droppable) else "IrredundantGenerating"


def is_redundant(t: GeneratingTuple) -> RedundancyReport:
    gen = is_generating(t)
    droppable = tuple(is_generating(t.without(i)) for i in range(len(t)))
    return RedundancyReport(t, gen, droppable)


@dataclass
class RankSearchResult:
    group: GroupSpec
    rank_kind: str                  # "m" or "mu"
    value: int | None
    witness: GeneratingTuple | None
    exhaustive: bool
    stats: dict
    notes: tuple = ()


@dataclass
class _SearchOutcome:
    best_size: int
    best_witness: tuple | None
    collected: dict
    nodes: int
    budget_hit: bool
    pushed_classes: int


class _SetSearch:
    """Depth-first walk over conjugacy classes of separated
    non-generating sets of cyclic subgroups, each subgroup named by its
    key, recording irredundant generating sets met one step above them.
    Without a target size the walk is exhaustive, and at the end each
    recorded class is expanded into the classes of element sets that
    pick one generator of every member.  With one it stops at the first
    irredundant generating set of that size and grows nothing past it.
    candidate_filter must take the same value on all generators of a
    cyclic subgroup.  The time budget counts from the monotonic time t0."""

    def __init__(self, ix: IndexedGroup, limits: SearchLimits, t0: float,
                 target_size: int | None = None, candidate_filter=None):
        self.ix = ix
        self.limits = limits
        self.t0 = t0
        self.target_size = target_size
        self.masks = ix.maximal_masks(t0 + limits.time_budget)
        cands = [i for i in np.flatnonzero(ix.cyclic_key == np.arange(ix.n)).tolist()
                 if i != ix.identity and (candidate_filter is None or candidate_filter(i))]
        self.cands = np.array(sorted(cands, key=lambda i: (int(ix.orders[i]), i)),
                              dtype=np.int32)
        self.full = np.bitwise_or.reduce(self.masks, axis=0)
        self.cand_masks = self.masks[self.cands]

    def run(self) -> _SearchOutcome:
        ix, limits = self.ix, self.limits
        best_size, best_witness = 0, None
        collected: dict = {}
        target = self.target_size
        if ix.n == 1:
            return _SearchOutcome(0, (), {0: [()]} if target is None else {}, 0, False, 0)
        stack = [()]
        seen_canon: set = set()
        nodes = pushed = 0
        budget_hit = False
        while stack:
            if nodes >= limits.node_budget or time.monotonic() - self.t0 > limits.time_budget:
                budget_hit = True
                break
            part = stack.pop()
            nodes += self.cands.size
            size = len(part) + 1
            irredundant, grows = self._children(part)
            if target is not None and size != target:
                irredundant = ()
            found = [tuple(sorted(part + (x,))) for x in irredundant]
            if found:
                if size > best_size:
                    best_size, best_witness = size, found[0]
                if target is not None:
                    return _SearchOutcome(best_size, best_witness, {}, nodes, False, pushed)
            if target is not None and size >= target:
                grows = ()
            # the recorded sets and the children in one canonical_sets call
            canon = self._canonical(found + [part + (x,) for x in grows], size)
            if found:
                collected.setdefault(size, set()).update(canon[:len(found)])
            for c in canon[len(found):]:
                if c not in seen_canon:
                    seen_canon.add(c)
                    stack.append(c)
                    pushed += 1
        classes, stopped = self._expand(collected)
        return _SearchOutcome(best_size, best_witness, classes, nodes, budget_hit or stopped,
                              pushed)

    def _canonical(self, sets: list, size: int) -> list:
        if not sets:
            return []
        rows = np.array(sets, dtype=np.int32).reshape(-1, size)
        return list(map(tuple, self.ix.canonical_sets(rows, families=True).tolist()))

    def _children(self, part: tuple) -> tuple[list, list]:
        """The candidates x, in candidate order, for which part + {x}
        is an irredundant generating set, and those for which it is
        separated and does not generate.  Separated means each member
        lies outside some maximal subgroup that holds the rest: every
        subset of an irredundant generating set is, so nothing else can
        grow into one.  By the maximal masks this is one pass over all
        candidates."""
        # row 0 is every maximal subgroup: the AND over no member
        rows = np.vstack([self.full, self.masks[list(part)]])
        common = np.bitwise_and.reduce(rows, axis=0)
        rest = np.empty((len(part), rows.shape[1]), dtype=np.uint64)
        for i in range(len(part)):
            rest[i] = np.bitwise_and.reduce(np.delete(rows, i + 1, axis=0), axis=0)
        cand = self.cand_masks[:, None, :]
        generates = ~(self.cand_masks & common).any(axis=1)
        drops_fail = (cand & rest).any(axis=2).all(axis=1)
        separated = (common & ~self.cand_masks).any(axis=1) & \
            (cand & rest & ~rows[1:]).any(axis=2).all(axis=1)
        return (self.cands[generates & drops_fail].tolist(),
                self.cands[~generates & separated].tolist())

    def _expand(self, collected: dict) -> tuple[dict, bool]:
        """Classes of element sets: every choice of generators of the
        members of each recorded class, in canonical form, a slice of
        canonical_sets at a time.  Past the deadline before a slice it stops:
        (the classes expanded so far, whether it stopped)."""
        key, deadline = self.ix.cyclic_key, self.t0 + self.limits.time_budget
        keys = {f for families in collected.values() for fam in families for f in fam}
        generators = {f: np.flatnonzero(key == f).tolist() for f in keys}
        out = {}
        for size, families in collected.items():
            choices = itertools.chain.from_iterable(
                itertools.product(*(generators[f] for f in fam)) for fam in families)
            found = set()
            while rows := list(itertools.islice(choices, _TABLE_CELLS // size)):
                if time.monotonic() > deadline:
                    return out | {size: sorted(found)}, True
                found.update(map(tuple, self.ix.canonical_sets(
                    np.array(rows, dtype=np.int32)).tolist()))
            out[size] = sorted(found)
        return out, False


def z_witness(n: int) -> GeneratingTuple:
    """An irredundant generating n-tuple of the integers: with q_1..q_n
    the first n primes and P their product, take x_i = P / q_i.  The
    gcd of all entries is 1, while dropping x_i leaves everything
    divisible by q_i.  Refused as soon as P / 2 has more digits than
    int's str conversion allows (sys.get_int_max_str_digits(), 0 for no
    limit): such a witness could not be printed."""
    if n < 1:
        raise ValueError("need at least one entry")
    limit = sys.get_int_max_str_digits()
    bound = 2 * 10 ** limit if limit else None
    first, total = [], 1
    for q in itertools.islice(primes(), n):
        first.append(q)
        total *= q
        if bound is not None and total >= bound:
            raise ValueError(f"the size-{n} witness has entries of more than {limit} digits")
    return GeneratingTuple(Integers(), tuple(total // q for q in first))


def _sample_involutions(spec: GroupSpec, k: int, rng, tries: int = 400):
    e_key = spec.encode(spec.identity())
    out = []
    for _ in range(tries):
        x = spec.random_element(rng)
        if spec.encode(x) != e_key and spec.encode(spec.mul(x, x)) == e_key:
            out.append(x)
            if len(out) == k:
                return tuple(out)
    return None


def _random_witness(spec: GroupSpec, k: int, rng, limits: SearchLimits, t0: float,
                    nodes: int, attempts: int, involutions_only: bool = False):
    """Seeded random search for an irredundant generating k-tuple: a
    uniform tuple first, then involution and uniform tuples in turn
    (involution tuples only, when asked), each verified by generation
    and drop tests.  Stops after `attempts` draws or at the time or node
    budget, also inside a stabilizer chain; t0 and nodes carry the start
    time and the draw count of earlier calls.  Returns (witness or None,
    draw count)."""
    deadline = t0 + limits.time_budget
    for a in range(attempts):
        if time.monotonic() - t0 > limits.time_budget or nodes >= limits.node_budget:
            break
        nodes += 1
        cand = None
        if involutions_only or a % 2 == 1:
            inv = _sample_involutions(spec, k, rng)
            if inv is not None:
                cand = GeneratingTuple(spec, inv)
            elif involutions_only:
                continue
        if cand is None:
            cand = GeneratingTuple(spec, tuple(spec.random_element(rng) for _ in range(k)))
        try:
            if is_generating(cand, deadline) and not any(
                    is_generating(cand.without(i), deadline) for i in range(k)):
                return cand, nodes
        except TimeoutError:
            break
    return None, nodes


def _witness_mode(spec: GroupSpec, limits: SearchLimits, seed: int) -> RankSearchResult:
    """Seeded random lower-bound search for groups too large to index:
    30 draws per size, sizes 2 to 8, stopping at the first size with no
    verified witness."""
    rng = random.Random(seed)
    t0 = time.monotonic()
    best: GeneratingTuple | None = None
    nodes = 0
    for k in range(2, 9):
        found, nodes = _random_witness(spec, k, rng, limits, t0, nodes, 30)
        if found is None:
            break
        best = found
    return RankSearchResult(
        spec, "m", None if best is None else len(best), best,
        exhaustive=False,
        stats={"nodes": nodes, "pushed_classes": 0, "recorded": {}},
        notes=("witness mode: group order exceeds the exhaustive-search bound "
               f"of {MAX_INDEXED_ORDER}; the value is a verified lower bound",))


def _unit_basis_check(t: GeneratingTuple) -> bool:
    """Does t, an abelian_rank witness, generate irredundantly?  Mod each
    prime p, on the words p divides, each entry must be zero or a unit on
    one word, one entry on each word: then t spans every A/pA (the rank
    test of is_generating) and no entry can be dropped, in one pass."""
    rows = [np.frombuffer(t.group.encode(x), dtype="<u2") for x in t.items]
    needed = set()
    for p, words in prime_coordinates(t.group.word_moduli()).items():
        hits = [(i, e) for e, row in enumerate(rows)
                for i in np.flatnonzero(row[words] % p).tolist()]
        owners = {e for _, e in hits}
        if sorted(i for i, _ in hits) != list(range(len(words))) or len(owners) < len(hits):
            return False
        needed |= owners
    return len(needed) == len(t)


def abelian_rank(spec: GroupSpec, kind: str) -> RankSearchResult:
    """m (kind "m") or mu (kind "mu") of a finite abelian group A, without
    search, from d_p = dim A/pA (fp.prime_coordinates).  m is the sum
    of the d_p: A splits over its primes, and every irredundant generating
    set of a p-group has its basis rank (Burnside's basis theorem).  mu is
    the largest d_p, the least generating size (Diaconis and Graham,
    1999).  The m witness has, per prime p and word i, the p'-part of the
    modulus at word i: without it word i is 0 mod p.  Entry j of the mu
    witness sums the j-th m witness entries of the primes."""
    moduli = spec.word_moduli()
    parts = []      # per prime, the m witness entries as rows of words
    for p, words in prime_coordinates(moduli).items():
        parts.append(np.zeros((len(words), len(moduli)), dtype=np.int64))
        for row, i in zip(parts[-1], words):
            row[i] = moduli[i]
            while row[i] % p == 0:
                row[i] //= p
    if kind == "m":
        rows = list(itertools.chain(*parts))
        notes = ("value from the basis rank of each prime part",)
    else:
        rows = [sum(part[j] for part in parts if j < len(part)) % moduli
                for j in range(max(map(len, parts), default=0))]
        notes = ("value from the largest basis rank of a prime part",)
    witness = GeneratingTuple(spec, tuple(map(spec.decode, rows)))
    if not _unit_basis_check(witness):
        raise AssertionError("constructed abelian witness failed verification")
    stats = {"nodes": 0, "pushed_classes": 0, "recorded": {}} if kind == "m" else \
        {"m": None, "nodes": 0, "orbit_nodes": 0}
    return RankSearchResult(spec, kind, len(witness), witness, exhaustive=True, stats=stats,
                            notes=notes + ("witness verified by drop tests",))


def max_irredundant_size(spec: GroupSpec, limits: SearchLimits | None = None,
                         seed: int = 0) -> RankSearchResult:
    """Largest size of an irredundant generating set.  Exhaustive (with
    per-size class counts) for groups of order at most 4096; verified
    lower bound otherwise.  Finite abelian groups are solved by
    abelian_rank.  For the integers every size occurs, so the value is
    reported as None with a witness recipe note."""
    limits = limits or SearchLimits()
    if isinstance(spec, Integers):
        return RankSearchResult(
            spec, "m", None, None, exhaustive=True,
            stats={"nodes": 0, "pushed_classes": 0, "recorded": {}},
            notes=("no finite maximum: products of distinct primes give "
                   "irredundant generating sets of every size",))
    if spec.order is None:
        raise ValueError(f"unsupported infinite group {spec.descriptor()}")
    if spec.is_abelian:
        return abelian_rank(spec, "m")
    if spec.order > MAX_INDEXED_ORDER:
        return _witness_mode(spec, limits, seed)
    return _searched_rank(spec, limits)[0]


def _searched_rank(spec: GroupSpec,
                   limits: SearchLimits) -> tuple[RankSearchResult, IndexedGroup | None, dict]:
    """The exhaustive m search of an indexed group, the tables it ran on
    (None when their build stopped at the time budget), and the classes
    of irredundant generating sets it found: by size, the sorted
    canonical rows of element indices into those tables."""
    t0 = time.monotonic()       # the budget holds the table build and subgroup walk
    ix = None
    try:
        ix = IndexedGroup(spec, t0 + limits.time_budget)
        out = _SetSearch(ix, limits, t0).run()
    except TimeoutError:        # the tables or masks were not finished
        out = _SearchOutcome(0, None, {}, 0, True, 0)
    witness = ix.tuple_of(out.best_witness) if out.best_witness is not None else None
    res = RankSearchResult(
        spec, "m", out.best_size if witness is not None or spec.order == 1 else None,
        witness, exhaustive=not out.budget_hit,
        stats={"nodes": out.nodes, "pushed_classes": out.pushed_classes,
               "recorded": {k: len(v) for k, v in out.collected.items()}},
        notes=() if not out.budget_hit else
        ("search stopped at the node or time budget; value is a lower bound",))
    return res, ix, out.collected


@dataclass
class WitnessSearchResult:
    group: GroupSpec
    size: int
    witness: GeneratingTuple | None
    exhausted: bool
    stats: dict
    notes: tuple = ()


def irredundant_witness(spec: GroupSpec, size: int,
                        involutions_only: bool = False,
                        limits: SearchLimits | None = None,
                        seed: int = 0) -> WitnessSearchResult:
    """Find one irredundant generating set of the requested size, or
    certify that none exists (exhausted=True with no witness)."""
    limits = limits or SearchLimits()
    if size < 1:
        raise ValueError("size must be positive")
    if isinstance(spec, Integers):
        if involutions_only:
            return WitnessSearchResult(spec, size, None, True,
                                       {"nodes": 0},
                                       ("the integers have no involutions",))
        w = z_witness(size)
        return WitnessSearchResult(spec, size, w, False, {"nodes": 0})
    if spec.order is None:
        raise ValueError(f"unsupported infinite group {spec.descriptor()}")
    t0 = time.monotonic()
    if spec.order > MAX_INDEXED_ORDER:
        witness, nodes = _random_witness(spec, size, random.Random(seed), limits, t0, 0,
                                         limits.node_budget, involutions_only)
        stats = {"nodes": nodes}
        if witness is not None:
            return WitnessSearchResult(spec, size, witness, False, stats)
        return WitnessSearchResult(
            spec, size, None, False, stats,
            ("random search found nothing; existence remains undecided",))
    try:
        ix = IndexedGroup(spec, t0 + limits.time_budget)
        filt = (lambda i: ix.orders[i] == 2) if involutions_only else None
        out = _SetSearch(ix, limits, t0, target_size=size, candidate_filter=filt).run()
    except TimeoutError:        # the tables or masks were not finished
        out = _SearchOutcome(0, None, {}, 0, True, 0)
    witness = None
    if out.best_witness is not None and out.best_size == size:
        witness = ix.tuple_of(out.best_witness)
    return WitnessSearchResult(
        spec, size, witness, exhausted=witness is None and not out.budget_hit,
        stats={"nodes": out.nodes},
        notes=() if not out.budget_hit else ("search budget exhausted",))
