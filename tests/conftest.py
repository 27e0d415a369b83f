"""Shared test fixtures."""

import pytest

from genrank.fp import FpMatrix, canonical_rep, nonresidue, projective_canonicalize
from genrank.groups import SpecialLinear


def _pgl2_conjugators(p: int) -> list:
    """Every element of PGL2(F_p), p >= 5, once: each representative is
    scaled to determinant 1 or the least non-residue, then to its
    canonical sign; sorted by encoding."""
    dmat = FpMatrix.from_rows(p, [[nonresidue(p), 0], [0, 1]])
    reps = {}
    for m in SpecialLinear(2, p).elements():
        for c in (m, dmat * m):
            r = canonical_rep(c)
            reps.setdefault(r.encode(), r)
    assert len(reps) == p * (p * p - 1)
    return [reps[k] for k in sorted(reps)]


def _conjugate(c: FpMatrix, x):
    """c x c^-1 for x in PSL2(F_p)."""
    return projective_canonicalize(c * x * c.inverse())


@pytest.fixture(scope="session")
def pgl2():
    """(conjugators(p), conjugate(c, x)) for the automorphisms of PSL2(F_p)."""
    return _pgl2_conjugators, _conjugate
