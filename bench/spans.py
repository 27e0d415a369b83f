"""Layer spans for the traced benchmark run.

The tracer replaces the cross-module entry points of each genrank layer
with wrappers that record a span (name, parent span, start, end) and,
for some entry points, a work count taken from the return value.  Spans
stay in memory and are written once, when the operation ends.  An entry
point that no longer exists is listed as missing and reports 0 calls,
so a refactor that renames one does not fail the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def _stats(**names):
    """Counts read from a result's `stats` dict: counter -> stats key."""
    return lambda res: {counter: res.stats.get(key) or 0
                        for counter, key in names.items()}


def _closure_elements(res):
    # a capped closure raises CapExceeded carrying the elements it visited
    return {"groups.closure_elements": res.visited if isinstance(res, Exception)
            else res.order}


# (span name, module, attribute path, counts taken from the result)
TARGETS = (
    ("indexed.table_build", "genrank.indexed", "IndexedGroup.__init__", None),
    ("indexed.generates", "genrank.indexed", "IndexedGroup.generates", None),
    ("indexed.closure", "genrank.indexed", "IndexedGroup.closure_mask",
     lambda res: {"indexed.closure_visited": int(res[1])}),
    ("indexed.canonical_set", "genrank.indexed", "IndexedGroup.canonical_set", None),
    ("indexed.canonical_tuple", "genrank.indexed", "IndexedGroup.canonical_tuple", None),
    ("groups.sl2_test", "genrank.groups", "_sl2_verdict", None),
    ("groups.closure", "genrank.groups", "closure", _closure_elements),
    ("groups.product_check", "genrank.groups", "product_generates", None),
    ("groups.isomorphisms", "genrank.groups", "enumerate_isomorphisms", None),
    ("redundancy.search", "genrank.redundancy", "max_irredundant_size",
     _stats(**{"redundancy.search_nodes": "nodes",
               "redundancy.pushed_classes": "pushed_classes"})),
    ("redundancy.search", "genrank.redundancy", "irredundant_witness",
     _stats(**{"redundancy.search_nodes": "nodes"})),
    ("nielsen.orbit", "genrank.nielsen", "mu_rank",
     _stats(**{"nielsen.orbit_nodes": "orbit_nodes"})),
    ("nielsen.orbit", "genrank.nielsen", "orbit_statistics",
     lambda res: {"nielsen.orbit_nodes": sum(res.orbit_sizes)}),
    ("nielsen.orbit", "genrank.nielsen", "is_nielsen_redundant",
     lambda res: {"nielsen.orbit_nodes": res.visited}),
    ("arithmetic.reduce", "genrank.arithmetic", "reduce_tuple_mod_p", None),
    ("arithmetic.certify", "genrank.arithmetic", "certify_density",
     lambda res: {"arithmetic.primes_tried": len(res.per_prime)}),
    ("arithmetic.certify", "genrank.arithmetic", "assess_irredundancy", None),
    ("arithmetic.certify", "genrank.arithmetic", "assess_nielsen_irredundancy", None),
    ("arithmetic.replay", "genrank.arithmetic", "replay_certificate", None),
    ("cli.main", "genrank.cli", "main", None),
)

# Entry points counted without a span: they run too often for one.
COUNTED = (
    ("fp.matmul_calls", "genrank.fp", "FpMatrix.__mul__"),
)

COUNTERS = ("indexed.closure_visited", "groups.closure_elements",
            "redundancy.search_nodes", "redundancy.pushed_classes",
            "nielsen.orbit_nodes", "arithmetic.primes_tried",
            "fp.matmul_calls")


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the entry point is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    if not callable(fn):
        return None
    return owner, parts[-1], fn


def _rebind(owner, attr: str, fn, wrapper) -> None:
    """Point every genrank module name bound to fn at the wrapper, so a
    `from .groups import closure` elsewhere is traced too."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, mod in list(sys.modules.items()):
        if name == "genrank" or name.startswith("genrank."):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapper)


class Tracer:
    """Spans and counts of one operation process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []       # [name id, parent index, start, end]
        self._open: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _count(self, name: str, counts, res) -> None:
        # a result whose shape changed counts as no work, not as a failure
        try:
            found = counts(res)
        except (AttributeError, KeyError, TypeError, IndexError, ValueError):
            note = f"counts of {name}"
            if note not in self.missing:
                self.missing.append(note)
            return
        for counter, value in found.items():
            self.counts[counter] += int(value)

    def wrap(self, name: str, fn, counts=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([nid, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(sid)
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                if counts is not None and hasattr(exc, "visited"):
                    self._count(name, counts, exc)
                raise
            finally:
                spans[sid][3] = clock()
                stack.pop()
            if counts is not None:
                self._count(name, counts, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        for name, module, path, counts in TARGETS:
            self._name_id(name)
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            _rebind(owner, attr, fn, self.wrap(name, fn, counts))
        for counter, module, path in COUNTED:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            _rebind(owner, attr, fn, self.count_calls(counter, fn))

    def layers(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.  Self
        time is a span's duration minus the time its child spans cover;
        spans nest strictly in this single-threaded program, so that is
        the sum of the direct children's durations."""
        child_time = [0.0] * len(self.spans)
        for nid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, (nid, parent, t0, t1) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["incl_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[i]
        return out

    def nested_s(self, outer: str, inner: str) -> float:
        """Inclusive time of the outermost `inner` spans that run inside
        an `outer` span, such as the m search inside the mu ladder."""
        o, n = self._name_ids.get(outer), self._name_ids.get(inner)
        in_outer = [False] * len(self.spans)
        in_inner = [False] * len(self.spans)
        total = 0.0
        for i, (nid, parent, t0, t1) in enumerate(self.spans):
            if parent >= 0:
                in_outer[i] = in_outer[parent] or self.spans[parent][0] == o
                in_inner[i] = in_inner[parent] or self.spans[parent][0] == n
            if nid == n and in_outer[i] and not in_inner[i]:
                total += t1 - t0
        return total

    def write(self, path: str, op: str) -> None:
        """All spans of the operation, times relative to its first span."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"op": op, "names": self.names, "missing": self.missing,
                       "fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": [[i, parent, nid, round(t0 - base, 7), round(t1 - base, 7)]
                                 for i, (nid, parent, t0, t1) in enumerate(self.spans)]},
                      fh, separators=(",", ":"))
