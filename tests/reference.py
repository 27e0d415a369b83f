"""Helpers for the tests: the dense conjugation table, the closure of
one generating set on the indexed tables, generation of one set by the
maximal masks, and the reference paths that read no mask: generation
by closure, and the m search deciding each extension by closure.  Also
the Nielsen moves on element and rational tuples, the dihedral check of
an involution pair, the small abelian groups that the abelian rule is
compared on, and simplicity by normal closures, which the simplicity
rule is compared with."""

import itertools
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from genrank import redundancy
from genrank.arithmetic import RationalMatrix, RationalTuple
from genrank.groups import CyclicPower, GeneratingTuple, ProductGroup, closure
from genrank.nielsen import NielsenMove

_CONJ_TABLES = weakref.WeakKeyDictionary()


def conj_table(ix) -> np.ndarray:
    """The n x n table of g x g^-1 at [g, x], by one dense gather, kept
    while its instance lives: brute-force references read it per tuple."""
    if ix not in _CONJ_TABLES:
        _CONJ_TABLES[ix] = ix.mult[ix.mult, ix.inv[:, None]]
    return _CONJ_TABLES[ix]


def closure_mask(ix, gens, cap=None, target=None):
    """The subgroup generated by gens, grown from the identity by
    closure_rows: (mask, count, exceeded, found), found saying whether
    it holds target."""
    mask, count, exceeded = ix.closure_rows(
        (np.arange(ix.n) == ix.identity)[None], np.array([list(gens)], dtype=np.int32), cap=cap)
    return mask[0], int(count[0]), bool(exceeded[0]), target is not None and bool(mask[0, target])


def generates(ix, gens) -> bool:
    """Whether the set of gens generates, by generates_rows on its
    distinct members."""
    distinct = np.array(sorted(set(gens)), dtype=np.int32)
    return bool(ix.generates_rows(distinct.reshape(1, -1))[0])


def closure_generates(ix, gens) -> bool:
    return closure_mask(ix, gens)[1] == ix.n


class ClosureSearch(redundancy._SetSearch):
    """The m search deciding each extension by closure and pruning by
    independence, which every subset of an irredundant generating set
    has as well, in place of separation over the maximal masks."""

    def _children(self, part: tuple) -> tuple[list, list]:
        ix, irredundant, grows = self.ix, [], []
        inside = closure_mask(ix, part)[0]
        for x in self.cands[~inside[self.cands]].tolist():
            s = part + (x,)
            rests = [s[:i] + s[i + 1:] for i in range(len(part))]
            if closure_generates(ix, s):
                if not any(closure_generates(ix, r) for r in rests):
                    irredundant.append(x)
            elif not any(closure_mask(ix, r, target=v)[3] for r, v in zip(rests, s)):
                grows.append(x)
        return irredundant, grows


def conjugate(spec, x, g):
    """g x g^-1 in spec."""
    return spec.mul(spec.mul(g, x), spec.inv(g))


def conjugated(t: GeneratingTuple, g) -> GeneratingTuple:
    return GeneratingTuple(t.group, tuple(conjugate(t.group, x, g) for x in t.items))


def simple_by_normal_closures(spec) -> bool:
    """Brute-force simplicity of a small finite group: it is nontrivial
    and every non-identity conjugacy class has the whole group as its
    normal closure."""
    if spec.order == 1:
        return False
    els = spec.elements()
    e_key = spec.encode(spec.identity())
    seen = set()
    for x in els:
        if spec.encode(x) == e_key or spec.encode(x) in seen:
            continue
        cls = {spec.encode(y): y for y in (conjugate(spec, x, g) for g in els)}
        seen.update(cls)
        if closure(GeneratingTuple(spec, tuple(cls.values()))).order < spec.order:
            return False
    return True


def _check_length(mv: NielsenMove, n: int) -> None:
    if max(mv.i, mv.j) >= n:
        raise ValueError("move index exceeds tuple length")


def apply_move(t: GeneratingTuple, mv: NielsenMove) -> GeneratingTuple:
    _check_length(mv, len(t))
    g = t.group
    return GeneratingTuple(g, mv.apply(t.items, g.mul, g.inv))


def apply_move_rational(t: RationalTuple, mv: NielsenMove) -> RationalTuple:
    """The Nielsen move acting on exact rational matrices; reduction
    modulo any usable prime commutes with it."""
    _check_length(mv, len(t.matrices))
    return RationalTuple(mv.apply(t.matrices, operator.mul, RationalMatrix.inverse))


@dataclass(frozen=True)
class InvolutionPairReport:
    closure_order: int
    product_order: int
    proper: bool


def involution_pair_is_proper(t: GeneratingTuple) -> InvolutionPairReport:
    """Check the dihedral trap: two involutions generate a dihedral
    group of twice the order of their product, never the whole
    PSL2(F_p)."""
    g = t.group
    if len(t) != 2:
        raise ValueError("expected a pair")
    a, b = t.items
    e = g.identity()
    for x in (a, b):
        if g.encode(x) == g.encode(e) or g.encode(g.mul(x, x)) != g.encode(e):
            raise ValueError("entries must be involutions")
    prod = g.mul(a, b)
    k = 1
    acc = prod
    while g.encode(acc) != g.encode(e):
        acc = g.mul(acc, prod)
        k += 1
    cl = closure(t)
    if cl.order != 2 * k:
        raise AssertionError("involution pair closure is not dihedral")
    return InvolutionPairReport(cl.order, k, cl.order < g.order)


def small_abelian_groups(max_order: int = 48) -> list:
    """Every cyclic power (Z/m)^k, m >= 2, and every product of two of
    them, factors in list order, of order at most max_order, except
    those with five or more even words: the set search of
    prod(cyclic:2^2,cyclic:2^3) alone takes seconds."""
    powers = [CyclicPower(m, k) for m in range(2, max_order + 1)
              for k in range(1, max_order.bit_length()) if m ** k <= max_order]
    prods = [ProductGroup(pair) for pair in itertools.combinations_with_replacement(powers, 2)
             if pair[0].order * pair[1].order <= max_order]
    return [g for g in powers + prods if sum(m % 2 == 0 for m in g.word_moduli()) < 5]
