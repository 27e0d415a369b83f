"""The benchmark's workloads: genrank CLI operations and their checks.

Each workload is a list of operations.  An operation is one genrank
command line (run with `--format json` in a fresh process) plus a check
of its parsed output against the independent reference code in
`checks.py`.  Inputs that are random come from `random.Random` streams
derived from the run's seed, so one seed always gives the same files.

rank     exhaustive set search, where the generation oracle does most of
         the work: m and mu of psl2:5, sl2:5 and psl2:7, and a size-3
         witness in psl2:11 (the 660-element table).
orbit    the same indexed tables walked by Nielsen orbits, where canonical
         forms and move application dominate; cyclic:5^2 has trivial
         canonical forms.
certify  paths that bypass the indexed tables: pure-Python closures and
         matrix products in `groups` and `fp`, density certificates,
         replays and product-group generation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

# m(PSL2(q)) from Whiston and Saxl, J. Algebra 2002; the centre of SL2(p)
# is Frattini for p >= 5, so m(sl2:p) = m(psl2:p).
M_RANK = {"psl2:5": 3, "sl2:5": 3, "psl2:7": 4}

# The sl3 pair that `certify` cannot handle today: mod 7 the group is too
# large for closure evidence and has no structural test, so the command
# ends in a traceback.  The pair is unitriangular at every prime, so the
# mended command must report "not certified".
SL3_UNIPOTENT_FAULT = "too large for closure evidence"


class Checker:
    """Collects the outcome of every correctness check of one run."""

    def __init__(self):
        self.results: list[tuple[str, str, bool]] = []

    def expect(self, label: str, ok: bool, what: str) -> None:
        result = (label, what, bool(ok))
        if result not in self.results:     # a repeated sample repeats its checks
            self.results.append(result)

    def for_op(self, label: str) -> Callable[[bool, str], None]:
        return lambda ok, what: self.expect(label, ok, what)

    @property
    def ok(self) -> bool:
        return all(ok for _, _, ok in self.results)


@dataclass
class Outcome:
    exit: int
    payload: dict


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[Outcome, Callable[[bool, str], None]], None]
    fault: str | None = None     # text of a known crash, counted as failed


def _group(desc: str) -> tuple[str, int]:
    kind, p = desc.split(":")
    return kind, int(p)


def _matrices(witness) -> list[tuple]:
    return [checks.flatten(x) for x in witness]


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def _check_rank(desc: str):
    kind, p = _group(desc)

    def check(out: Outcome, expect) -> None:
        res = out.payload
        expect(out.exit == 0, "exit 0")
        expect(res["exhaustive"] is True, "exhaustive")
        expect(res["value"] == M_RANK[desc], f"m = {M_RANK[desc]} (Whiston-Saxl)")
        gens = _matrices(res["witness"])
        whole, drops = checks.irredundant_generating(gens, kind, p)
        expect(len(gens) == res["value"], "witness size equals m")
        expect(whole, "witness generates (own BFS)")
        expect(not drops, "no one-entry drop of the witness generates (own BFS)")
    return check


def _check_mu(desc: str):
    kind, p = _group(desc)
    m = M_RANK[desc]

    def check(out: Outcome, expect) -> None:
        res = out.payload
        expect(out.exit == 0, "exit 0")
        expect(res["exhaustive"] is True, "exhaustive")
        expect(2 <= res["value"] <= m, f"2 <= mu <= m = {m}")
        expect(res["stats"]["m"] == m, f"ladder ran up to m = {m}")
        gens = _matrices(res["witness"])
        expect(len(gens) == res["value"], "witness size equals mu")
        expect(checks.generates(gens, kind, p), "witness generates (own BFS)")
    return check


def _check_witness(desc: str, size: int):
    kind, p = _group(desc)

    def check(out: Outcome, expect) -> None:
        res = out.payload
        expect(out.exit == 0, "exit 0")
        gens = _matrices(res["witness"] or [])
        whole, drops = checks.irredundant_generating(gens, kind, p)
        expect(len(gens) == size, f"witness of size {size} found")
        expect(whole, "witness generates (own BFS)")
        expect(not drops, "no one-entry drop of the witness generates (own BFS)")
    return check


def rank_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for desc in ("psl2:5", "sl2:5", "psl2:7"):
        ops.append(Op(f"rank {desc}", ["rank", desc], _check_rank(desc)))
        ops.append(Op(f"mu {desc}", ["mu", desc], _check_mu(desc)))
    ops.append(Op("witness psl2:11 --size 3", ["witness", "psl2:11", "--size", "3"],
                  _check_witness("psl2:11", 3)))
    return ops


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def _check_orbit(classes: int, redundant: str | None):
    """redundant: "none" when no orbit may hold a redundant tuple (size-2
    tuples of a non-cyclic group), "all" when every orbit must."""

    def check(out: Outcome, expect) -> None:
        res = out.payload
        expect(out.exit == 0, "exit 0")
        expect(res["partial"] is False, "partial is false")
        expect(res["generating_classes"] == classes,
               f"generating classes = {classes} (Hall's Eulerian function)")
        expect(sum(res["orbit_sizes"]) == res["generating_classes"],
               "orbit sizes sum to the generating classes")
        expect(len(res["orbit_sizes"]) == res["orbit_count"], "one size per orbit")
        if redundant == "none":
            expect(res["orbits_with_redundant"] == 0, "no orbit holds a redundant tuple")
        elif redundant == "all":
            expect(res["orbits_with_redundant"] == res["orbit_count"],
                   "every orbit holds a redundant tuple")
    return check


def orbit_ops(seed: int, workdir: Path) -> list[Op]:
    cases = (
        ("psl2:5", 3, checks.generating_classes(checks.eulerian_a5(3), 1, 60), None),
        ("sl2:5", 2, checks.generating_classes(checks.eulerian_sl2_5(2), 2, 120), "none"),
        ("psl2:7", 2, checks.generating_classes(checks.eulerian_psl2_7(2), 1, 168), "none"),
        ("cyclic:5^2", 3, checks.eulerian_elementary_abelian(5, 2, 3), "all"),
    )
    return [Op(f"orbit {desc} --size {k}", ["orbit", desc, "--size", str(k)],
               _check_orbit(classes, red))
            for desc, k, classes, red in cases]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _rows_text(dim: int, mats) -> str:
    return f"sl {dim}\n" + "".join(" ".join(str(v) for v in m) + "\n" for m in mats)


def _random_fraction(rng: random.Random) -> Fraction:
    # denominators up to 5 make 5 a denominator prime now and then, so
    # the prime plan sometimes starts at 7
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3, 4, 5)))


def random_rational_sl2(rng: random.Random) -> tuple:
    """E12(a) E21(b) E12(c) with small random rationals: determinant 1."""
    a, b, c = (_random_fraction(rng) for _ in range(3))
    return (1 + a * b, a + c * (1 + a * b), b, b * c + 1)


def _reduction_generates(mats, p: int) -> bool:
    """Own BFS: does the reduction mod p of the rational matrices
    generate SL2(p)?"""
    red = [checks.reduce_mod_p(m, p) for m in mats]
    return None not in red and checks.generates(red, "sl2", p)


def _check_per_prime(mats, cert: dict, expect) -> None:
    """Every tried prime's verdict against the own BFS of the reduction."""
    records = cert["per_prime"]
    expect(all(_reduction_generates(mats, r["prime"]) == r["generates"] for r in records),
           "each tried prime's verdict matches the own BFS")
    expect(not any(r["generates"] for r in records[:-1]),
           "no prime before the last tried one generates")


def _check_certified_sl(dim: int, p: int):
    order = checks.sl_order(dim, p)

    def check(out: Outcome, expect) -> None:
        cert = out.payload["certificate"]
        expect(out.exit == 0, "exit 0")
        expect(out.payload["certified"] is True, "certified")
        expect(cert["witness_prime"] == p, f"witness prime {p}")
        expect(cert["closure_order"] == order, f"closure order |SL{dim}({p})| = {order}")
    return check


def _check_standard_sl2(mats):
    base = _check_certified_sl(2, 5)

    def check(out: Outcome, expect) -> None:
        base(out, expect)
        records = out.payload["irredundancy"]["records"]
        agree = all(_reduction_generates(mats, r["prime"]) == r["generates"] for r in records)
        expect(len(records) == 5 and agree,
               "irredundancy evidence at 5 primes matches the own BFS")
        expect(len(out.payload["nielsen"]["records"]) == 3, "nielsen evidence at 3 primes")
    return check


def _check_random_certify(mats):
    def check(out: Outcome, expect) -> None:
        res = out.payload
        cert = res["certificate"]
        _check_per_prime(mats, cert, expect)
        if res["certified"]:
            p = cert["per_prime"][-1]["prime"]
            expect(out.exit == 0, "exit 0 when certified")
            expect(cert["witness_prime"] == p, "the witness prime is the last tried")
            expect(cert["closure_order"] == checks.sl_order(2, p),
                   "closure order |SL2(p)| at the witness prime")
        else:
            expect(out.exit == 3, "exit 3 when not certified")
            expect(len(cert["per_prime"]) == 10, "all 10 planned primes tried")
    return check


def _check_replay(out: Outcome, expect) -> None:
    expect(out.exit == 0, "exit 0")
    expect(out.payload["match"] is True, "replay matches bytewise")


def _check_borel(mats):
    def check(out: Outcome, expect) -> None:
        records = out.payload["certificate"]["per_prime"]
        expect(out.exit == 3, "exit 3")
        expect(out.payload["certified"] is False, "not certified")
        expect(len(records) == 10 and all(r["diagnosis"] == "common eigenvector"
                                          for r in records),
               "common eigenvector at all 10 primes")
        expect(not any(_reduction_generates(mats, r["prime"]) for r in records),
               "no reduction generates (own BFS)")
    return check


def _check_not_certified(out: Outcome, expect) -> None:
    expect(out.exit == 3, "exit 3")
    expect(out.payload["certified"] is False, "not certified")


def _random_psl2(rng: random.Random, p: int) -> tuple:
    while True:
        m = tuple(rng.randrange(p) for _ in range(4))
        if checks.det2(m, p) == 1:
            return m


def _graph_pair(rng: random.Random, p: int) -> list[tuple]:
    """(x, g x g^-1) for a generating pair x of PSL2(p) and a random g in
    GL2(p): the graph of an inner or outer automorphism."""
    while True:
        x = [_random_psl2(rng, p), _random_psl2(rng, p)]
        if checks.generates(x, "psl2", p):
            break
    while True:
        g = tuple(rng.randrange(p) for _ in range(4))
        d = checks.det2(g, p)
        if d:
            break
    di = pow(d, p - 2, p)
    g_inv = ((g[3] * di) % p, (-g[1] * di) % p, (-g[2] * di) % p, (g[0] * di) % p)
    return [(a, checks.matmul(checks.matmul(g, a, 2, p), g_inv, 2, p)) for a in x]


def _product_text(p1: int, p2: int, pairs) -> str:
    return f"prod psl2:{p1} psl2:{p2}\n" + "".join(
        " ".join(map(str, a)) + " | " + " ".join(map(str, b)) + "\n" for a, b in pairs)


def _check_product(pairs, p1: int, p2: int, graph: bool):
    full = checks.psl2_order(p1) * checks.psl2_order(p2)

    def check(out: Outcome, expect) -> None:
        res = out.payload
        own = checks.product_closure_order(pairs, p1, p2)
        expect(out.exit == 0, "exit 0")
        expect(res["generates"] == (own == full), "verdict matches the own product BFS")
        if graph:
            expect(own == checks.psl2_order(p1), "graph subgroup has the factor's order")
            expect(res["diagnosis"].startswith("graph of"), "rejected with an isomorphism named")
    return check


def certify_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []

    def add(name: str, text: str) -> str:
        (workdir / name).write_text(text)
        return name

    sl3_std = [(0, 0, 1, 1, 0, 0, 0, 1, 0), (1, 1, 0, 0, 1, 0, 0, 0, 1)]
    sl3_uni = [(1, 1, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1, 0, 0, 1)]
    sl2_std = [(0, -1, 1, 0), (1, 1, 0, 1)]
    borel = [(1, 1, 0, 1), (2, 0, 0, Fraction(1, 2))]
    ops.append(Op("certify sl3 standard pair",
                  ["certify", add("sl3_standard.txt", _rows_text(3, sl3_std))],
                  _check_certified_sl(3, 5)))
    ops.append(Op("certify sl3 unipotent pair",
                  ["certify", add("sl3_unipotent.txt", _rows_text(3, sl3_uni))],
                  _check_not_certified, fault=SL3_UNIPOTENT_FAULT))
    ops.append(Op("certify sl2 standard pair with evidence",
                  ["certify", add("sl2_standard.txt", _rows_text(2, sl2_std)),
                   "--irredundancy", "5", "--nielsen", "3", "--out", "sl2_standard.cert"],
                  _check_standard_sl2(sl2_std)))
    ops.append(Op("replay sl2 standard pair", ["certify", "sl2_standard.cert", "--replay"],
                  _check_replay))
    ops.append(Op("certify upper-triangular pair",
                  ["certify", add("borel.txt", _rows_text(2, borel))], _check_borel(borel)))
    for name, k in (("random_pair", 2), ("random_triple", 3)):
        mats = [random_rational_sl2(rng) for _ in range(k)]
        ops.append(Op(f"certify {name.replace('_', ' ')}",
                      ["certify", add(f"{name}.txt", _rows_text(2, mats)),
                       "--out", f"{name}.cert"], _check_random_certify(mats)))
        ops.append(Op(f"replay {name.replace('_', ' ')}",
                      ["certify", f"{name}.cert", "--replay"], _check_replay))
    for p1, p2 in ((5, 5), (5, 7), (7, 7)):
        k = rng.choice((2, 3))
        pairs = [(_random_psl2(rng, p1), _random_psl2(rng, p2)) for _ in range(k)]
        name = f"product_{p1}{p2}_random.txt"
        ops.append(Op(f"product-check psl2:{p1} x psl2:{p2} random",
                      ["product-check", add(name, _product_text(p1, p2, pairs))],
                      _check_product(pairs, p1, p2, graph=False)))
        if p1 == p2:
            pairs = _graph_pair(rng, p1)
            name = f"product_{p1}{p2}_graph.txt"
            ops.append(Op(f"product-check psl2:{p1} x psl2:{p2} graph",
                          ["product-check", add(name, _product_text(p1, p2, pairs))],
                          _check_product(pairs, p1, p2, graph=True)))
    return ops


WORKLOADS = {"rank": rank_ops, "orbit": orbit_ops, "certify": certify_ops}
