"""Exact rational matrix tuples and their reductions modulo primes.

A tuple of determinant-one matrices over the rationals generates a
subgroup of SL_n(Q); if some reduction modulo a good prime generates
the full finite group SL_n(F_p), the subgroup is Zariski dense.  This
module plans usable primes (skipping denominator primes and a
configurable exceptional floor), certifies density with replayable
evidence, and collects per-prime irredundancy and Nielsen evidence for
the rational tuple.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .fp import (MAX_MODULUS, FpMatrix, check_modulus, invert, prime_factors, primes,
                 row_reduce)
from .groups import (GeneratingTuple, SpecialLinear, is_generating,
                     sl2_generation_report, subgroup_order)
from .nielsen import SearchLimits, is_nielsen_redundant
from .redundancy import is_redundant

SCHEMA_VERSION = 1
CLOSURE_EVIDENCE_CAP = 500_000      # the largest reduction whose subgroup order is evidence


class DenominatorClash(ValueError):
    """Reduction modulo p is undefined: p divides some denominator."""

    def __init__(self, prime: int):
        super().__init__(f"prime {prime} divides a denominator of the tuple")
        self.prime = prime


def as_fraction(v) -> Fraction:
    """An exact rational from a Fraction, an int or a string like 2,
    -1/3 or 0.5.  Exponent notation is refused: "1e99999999" would make
    Fraction build a hundred-million-digit integer."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if "e" in v.lower():
            raise ValueError(f"exponent notation is not supported: {v!r}")
        return Fraction(v)
    raise ValueError(f"entries must be rational, got {type(v).__name__}")


@dataclass(frozen=True)
class RationalMatrix:
    """A square matrix of exact rationals with determinant one."""

    dim: int
    entries: tuple

    def __post_init__(self):
        if self.dim < 1 or len(self.entries) != self.dim * self.dim:
            raise ValueError("entry count must match the dimension")
        if any(not isinstance(v, Fraction) for v in self.entries):
            raise ValueError("entries must be Fractions; use from_rows to coerce")
        if self.det() != 1:
            raise ValueError("determinant is not 1")

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        dim = len(rows)
        flat = []
        for row in rows:
            if len(row) != dim:
                raise ValueError("matrix must be square")
            flat.extend(as_fraction(v) for v in row)
        return cls(dim, tuple(flat))

    def rows(self):
        n = self.dim
        return tuple(self.entries[i * n:(i + 1) * n] for i in range(n))

    def det(self) -> Fraction:
        _, pivots, det = row_reduce(self.rows())
        return det if len(pivots) == self.dim else Fraction(0)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n, a, b = self.dim, self.entries, other.entries
        return RationalMatrix(n, tuple(sum((a[i * n + k] * b[k * n + j] for k in range(n)),
                                           Fraction(0)) for i in range(n) for j in range(n)))

    def inverse(self) -> "RationalMatrix":
        return RationalMatrix(self.dim, tuple(v for r in invert(self.rows()) for v in r))

    def is_identity(self) -> bool:
        n = self.dim
        return all(self.entries[i * n + j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))

    def denominator_primes(self) -> set:
        out = set()
        for v in self.entries:
            if v.denominator > 1:
                out.update(prime_factors(v.denominator))
        return out

    def entry_strings(self) -> tuple:
        return tuple(str(v) for v in self.entries)


@dataclass(frozen=True)
class RationalTuple:
    """An ordered tuple of determinant-one rational matrices of one
    dimension."""

    matrices: tuple

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("tuple must be nonempty")
        dims = {m.dim for m in self.matrices}
        if len(dims) != 1:
            raise ValueError("all matrices must share one dimension")

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    def denominator_primes(self) -> tuple:
        out = set()
        for m in self.matrices:
            out.update(m.denominator_primes())
        return tuple(sorted(out))

    def entry_strings(self) -> tuple:
        return tuple(m.entry_strings() for m in self.matrices)

    def fingerprint(self) -> str:
        payload = f"sl{self.dim}|" + "|".join(
            ",".join(strs) for strs in self.entry_strings())
        return hashlib.sha256(payload.encode()).hexdigest()


def reduce_matrix_mod_p(m: RationalMatrix, p: int) -> FpMatrix:
    """Entrywise reduction a/b -> a * b^(-1) mod p; denominators
    divisible by p have no reduction."""
    vals = []
    for v in m.entries:
        if v.denominator % p == 0:
            raise DenominatorClash(p)
        vals.append(v.numerator * pow(v.denominator, p - 2, p) % p)
    out = FpMatrix(p, m.dim, tuple(vals))
    if out.det() != 1:
        raise AssertionError("reduction broke the determinant")
    return out


def reduce_tuple_mod_p(t: RationalTuple, p: int) -> GeneratingTuple:
    spec = SpecialLinear(t.dim, p)
    return GeneratingTuple(spec, tuple(reduce_matrix_mod_p(m, p)
                                       for m in t.matrices))


@dataclass(frozen=True)
class PlanConfig:
    exceptional_floor: int = 3
    max_primes: int = 10
    explicit_primes: tuple | None = None


@dataclass(frozen=True)
class PrimePlan:
    candidates: tuple
    excluded_denominator_primes: tuple
    exceptional_floor: int
    notes: tuple = ()


def plan_primes(t: RationalTuple, config: PlanConfig | None = None) -> PrimePlan:
    """Candidate primes for reduction: the first max_primes primes above
    the exceptional floor that divide no denominator.  Explicit primes
    bypass the floor (with a note) but never the denominator rule.  A
    prime or floor past fp.MAX_MODULUS is refused before any trial
    division."""
    config = config or PlanConfig()
    denoms = t.denominator_primes()
    floor = max(config.exceptional_floor, 3 if t.dim == 2 else 2)
    notes = []
    if floor != config.exceptional_floor:
        notes.append(f"exceptional floor raised to {floor} for dimension {t.dim}")
    if config.explicit_primes is not None:
        chosen = []
        for p in dict.fromkeys(config.explicit_primes):
            check_modulus(p)
            if p in denoms:
                raise ValueError(f"prime {p} divides a denominator of the tuple")
            if p <= floor:
                notes.append(f"prime {p} is at or below the exceptional floor {floor}")
            chosen.append(p)
        return PrimePlan(tuple(chosen), denoms, floor, tuple(notes))
    if floor >= MAX_MODULUS:
        raise ValueError(f"exceptional floor {floor} exceeds supported bound {MAX_MODULUS}")
    out = itertools.islice((q for q in primes(floor + 1) if q not in denoms),
                           max(config.max_primes, 0))
    return PrimePlan(tuple(out), denoms, floor, tuple(notes))


@dataclass(frozen=True)
class PerPrimeRecord:
    prime: int
    generates: bool
    diagnosis: str


@dataclass(frozen=True)
class DensityCertificate:
    """The outcome of certify_density.  certified says whether some tried
    prime's reduction generates; the witness prime and its evidence are
    None when none does."""

    version: int
    certified: bool
    ambient: str
    entries: tuple
    fingerprint: str
    config: PlanConfig
    witness_prime: int | None
    evidence_kind: str | None   # "closure-order" or "fast-test"
    closure_order: int | None
    fast_test_reason: str | None
    caveat: str
    per_prime: tuple


def _generation_evidence(gt: GeneratingTuple):
    """Generation verdict plus certificate evidence at one prime.
    Small groups get the exact subgroup order, from a stabilizer chain
    (the diagnosis and evidence kind keep the word "closure"); larger
    SL2 reductions get the structural transcript.  Both agree where both
    apply.  A larger reduction with no structural test is left undecided
    and counts as not generating, so it never certifies."""
    spec = gt.group
    p = spec.p
    structural = None
    if spec.n == 2 and p >= 5:
        structural = sl2_generation_report(gt)
    if spec.order <= CLOSURE_EVIDENCE_CAP:
        order = subgroup_order(gt)
        generates = order == spec.order
        diagnosis = "full closure" if generates else f"closure order {order}"
        if structural is not None:
            if structural.generates != generates:
                raise AssertionError(
                    "structural test disagrees with the subgroup order")
            diagnosis = structural.reason
        return generates, "closure-order", order, None, diagnosis
    if structural is None:
        return (False, None, None, None,
                "undecided: too large for closure evidence")
    return (structural.generates, "fast-test", None, structural.reason,
            structural.reason)


def certify_density(t: RationalTuple, config: PlanConfig | None = None) -> DensityCertificate:
    """Try planned primes in order; the first generating reduction
    certifies, with its evidence."""
    config = config or PlanConfig()
    plan = plan_primes(t, config)
    per = []
    for p in plan.candidates:
        gt = reduce_tuple_mod_p(t, p)
        generates, *evidence, diagnosis = _generation_evidence(gt)
        per.append(PerPrimeRecord(p, generates, diagnosis))
        if generates:
            witness = (p, *evidence)
            caveat = (f"generation of sl{t.dim} mod {p} certifies Zariski "
                      f"density; primes at most {plan.exceptional_floor} were "
                      "treated as potentially exceptional")
            break
    else:
        witness = (None, None, None, None)
        caveat = ("no tried prime yields generation; this is evidence of "
                  "non-density, not a proof")
    return DensityCertificate(SCHEMA_VERSION, witness[0] is not None, f"sl{t.dim}",
                              t.entry_strings(), t.fingerprint(), config, *witness, caveat,
                              tuple(per))


def serialize_certificate(obj: DensityCertificate) -> str:
    """Canonical JSON form of a certificate, certified or not; key order
    and separators are fixed so replays compare bytewise."""
    payload = {
        "version": obj.version,
        "certified": obj.certified,
        "ambient": obj.ambient,
        "entries": [list(e) for e in obj.entries],
        "fingerprint": obj.fingerprint,
        "config": {
            "exceptional_floor": obj.config.exceptional_floor,
            "max_primes": obj.config.max_primes,
            "closure_evidence_cap": CLOSURE_EVIDENCE_CAP,
        },
        "witness_prime": obj.witness_prime,
        "evidence_kind": obj.evidence_kind,
        "closure_order": obj.closure_order,
        "fast_test_reason": obj.fast_test_reason,
        "caveat": obj.caveat,
        "per_prime": [{"prime": r.prime, "generates": r.generates,
                       "diagnosis": r.diagnosis} for r in obj.per_prime],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def tuple_from_entry_strings(entries) -> RationalTuple:
    mats = []
    for strs in entries:
        dim = int(round(len(strs) ** 0.5))
        if dim * dim != len(strs):
            raise ValueError("entry count is not a square")
        mats.append(RationalMatrix(dim, tuple(map(as_fraction, strs))))
    return RationalTuple(tuple(mats))


def _parse_certificate(s: str) -> tuple[DensityCertificate, RationalTuple]:
    """A serialized certificate and the rational tuple of its entries.
    Invalid JSON, missing keys, and values of the wrong type or shape for
    a replay raise ValueError."""
    try:
        payload = json.loads(s)
        if payload.get("version") != SCHEMA_VERSION:
            raise ValueError("unsupported certificate version")
        config = PlanConfig(exceptional_floor=payload["config"]["exceptional_floor"],
                            max_primes=payload["config"]["max_primes"])
        entries = tuple(tuple(e) for e in payload["entries"])
        per = tuple(PerPrimeRecord(r["prime"], r["generates"], r["diagnosis"])
                    for r in payload["per_prime"])
        numbers = (config.exceptional_floor, config.max_primes,
                   payload["config"]["closure_evidence_cap"], *(r.prime for r in per))
        if not all(type(v) is int for v in numbers):
            raise ValueError("config values and primes must be integers")
        if not all(isinstance(v, str) for e in entries for v in e):
            raise ValueError("entries must be strings")
        cert = DensityCertificate(
            payload["version"], payload["certified"], payload["ambient"], entries,
            payload["fingerprint"], config, payload["witness_prime"], payload["evidence_kind"],
            payload["closure_order"], payload["fast_test_reason"], payload["caveat"], per)
        return cert, tuple_from_entry_strings(entries)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed certificate: {type(exc).__name__}: {exc}") from exc


def deserialize_certificate(s: str) -> DensityCertificate:
    """Parse a serialized certificate; see _parse_certificate."""
    return _parse_certificate(s)[0]


def replay_certificate(s: str):
    """Re-run the serialized evidence from scratch and compare bytewise.
    The tried primes are replayed explicitly so the run revisits the
    same reductions in the same order."""
    obj, t = _parse_certificate(s)
    if t.fingerprint() != obj.fingerprint:
        return False, "fingerprint mismatch: entries were altered"
    primes = tuple(r.prime for r in obj.per_prime)
    config = PlanConfig(exceptional_floor=obj.config.exceptional_floor,
                        max_primes=obj.config.max_primes,
                        explicit_primes=primes)
    fresh = serialize_certificate(certify_density(t, config))
    if fresh == s:
        return True, "replay reproduced the certificate bytewise"
    return False, "replay diverged from the stored certificate"


# ---------------------------------------------------------------------------
# Per-prime irredundancy and Nielsen evidence for rational tuples.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeIrredundancyRecord:
    prime: int
    generates: bool
    verdict: str
    droppable: tuple


@dataclass(frozen=True)
class Evidence:
    """Per-prime records of a rational tuple's reductions, irredundancy
    or Nielsen ones, and their summary across the primes."""

    fingerprint: str
    records: tuple
    summary: str


def _evidence_primes(t: RationalTuple, prime_count: int, config: PlanConfig | None) -> tuple:
    return plan_primes(t, replace(config or PlanConfig(), max_primes=prime_count)).candidates


def _summary(records: list, names: dict) -> str:
    """Over the primes with a verdict in names, those that generate:
    never-generating if none, names[v] if all read v, else mixed."""
    decided = {r.verdict for r in records if r.verdict in names}
    if not decided:
        return "never-generating"
    return names[decided.pop()] if len(decided) == 1 else "mixed"


def assess_irredundancy(t: RationalTuple, prime_count: int = 5,
                        config: PlanConfig | None = None) -> Evidence:
    """Redundancy verdicts of the reductions at the first usable
    primes.  The summary is all-irredundant, all-redundant, mixed, or
    never-generating, judged over the generating primes only."""
    records = []
    for p in _evidence_primes(t, prime_count, config):
        rep = is_redundant(reduce_tuple_mod_p(t, p))
        records.append(PrimeIrredundancyRecord(p, rep.generates, rep.verdict,
                                               rep.droppable))
    summary = _summary(records, {"IrredundantGenerating": "all-irredundant",
                                 "RedundantGenerating": "all-redundant"})
    return Evidence(t.fingerprint(), tuple(records), summary)


@dataclass(frozen=True)
class PrimeNielsenRecord:
    prime: int
    verdict: str
    visited: int


def assess_nielsen_irredundancy(t: RationalTuple, prime_count: int = 3,
                                config: PlanConfig | None = None,
                                limits: SearchLimits | None = None) -> Evidence:
    """Nielsen orbit verdicts of the reductions at the first usable
    primes.  The time budget covers all primes together: each walk gets
    only what the walks before it left.  Budget-limited walks report
    Unknown and taint the summary as undecided rather than guessing."""
    limits = limits or SearchLimits(node_budget=200_000, time_budget=60.0)
    deadline = time.monotonic() + limits.time_budget
    records = []
    for p in _evidence_primes(t, prime_count, config):
        gt = reduce_tuple_mod_p(t, p)
        if not is_generating(gt):
            records.append(PrimeNielsenRecord(p, "NotGenerating", 0))
            continue
        rep = is_nielsen_redundant(gt, SearchLimits(limits.node_budget,
                                                    deadline - time.monotonic()))
        records.append(PrimeNielsenRecord(p, rep.verdict, rep.visited))
    summary = "undecided" if any(r.verdict == "Unknown" for r in records) else _summary(
        records, {"NielsenIrredundant": "all-nielsen-irredundant",
                  "NielsenRedundant": "all-nielsen-redundant"})
    return Evidence(t.fingerprint(), tuple(records), summary)
