"""Benchmark for genrank: end-to-end CLI cost and, traced, per-layer cost.

    python3 bench/run.py --workload {rank,orbit,certify,all} --seed N \
        --seconds S --trace {0,1}

Every operation is one `genrank ... --format json` call in a fresh
Python process (`child.py`), as a user pays it.  One client runs one
operation at a time (a closed loop), so the run stays within two cores.
A run repeats whole rounds of its workload's operations until at least
--seconds have passed and at least MIN_ROUNDS rounds are done.

Times are full-speed times (`pace.py`): other tenants of the shared
machine slow its cores up to two times, for seconds or for minutes, so
every operation process times a reference loop every 20 ms and each
stretch of its time counts at the speed the loop measured then.  Raw times are
printed beside them and kept in result.json.

--trace 0 prints the end-to-end metrics:
  setup_s      median over the run's operation processes of the time
               from spawn to entering `cli.main` (interpreter start and
               `import genrank`)
  wall_s       sum over operations of the median over rounds of the
               time inside `main`
  cpu_s        the same for user+system CPU time
  peak_rss_mb  largest peak resident set of any operation process
--trace 1 alternates untraced and traced rounds, at least two of each,
and prints the per-layer metrics of the traced rounds (see README.md).

Every operation's output is checked against independent reference code
(`checks.py`), outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Inputs, results and traces go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
from spans import COUNTERS  # noqa: E402
from workloads import WORKLOADS, Checker, Op, Outcome  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

MIN_ROUNDS = 2
# no round starts once the run could not finish it this long after start
DEADLINE_S = 160.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (span name, "calls" | "incl_s" | "self_s")
SPAN_METRICS = {
    "indexed.table_builds": ("indexed.table_build", "calls"),
    "indexed.table_build_s": ("indexed.table_build", "incl_s"),
    "indexed.generates_calls": ("indexed.generates", "calls"),
    "indexed.generates_s": ("indexed.generates", "incl_s"),
    "indexed.closure_calls": ("indexed.closure", "calls"),
    "indexed.closure_s": ("indexed.closure", "incl_s"),
    "indexed.canonical_set_calls": ("indexed.canonical_set", "calls"),
    "indexed.canonical_set_s": ("indexed.canonical_set", "incl_s"),
    "indexed.canonical_tuple_calls": ("indexed.canonical_tuple", "calls"),
    "indexed.canonical_tuple_s": ("indexed.canonical_tuple", "incl_s"),
    "groups.sl2_test_calls": ("groups.sl2_test", "calls"),
    "groups.sl2_test_s": ("groups.sl2_test", "incl_s"),
    "groups.closure_calls": ("groups.closure", "calls"),
    "groups.closure_s": ("groups.closure", "incl_s"),
    "groups.product_check_s": ("groups.product_check", "incl_s"),
    "groups.isomorphisms_s": ("groups.isomorphisms", "incl_s"),
    "redundancy.search_s": ("redundancy.search", "self_s"),
    "nielsen.orbit_s": ("nielsen.orbit", "self_s"),
    "arithmetic.reduce_s": ("arithmetic.reduce", "incl_s"),
    "arithmetic.certify_s": ("arithmetic.certify", "self_s"),
    "arithmetic.replay_s": ("arithmetic.replay", "incl_s"),
    "cli.self_s": ("cli.main", "self_s"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "count"


def _span_value(sample: dict, span: str, field: str) -> float:
    value = sample["layers"].get(span, {}).get(field, 0)
    return value if field == "calls" else value * sample["speed"]


def run_op(op: Op, workdir: Path, trace_out: str, deadline: float) -> dict:
    """One operation in a fresh process; the child's report plus set-up."""
    cmd = [sys.executable, str(CHILD), str(SRC), trace_out, "--",
           *op.argv, "--format", "json"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"harness_error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:]
        return {"harness_error": f"child exited {proc.returncode}: {tail}"}
    try:
        report = json.loads(lines[-1])
    except ValueError:
        return {"harness_error": f"child printed no report: {lines[-1][:200]}"}
    report["spawned"] = spawned
    return report


def at_full_speed(rep: dict) -> None:
    """Adds the sample's full-speed times; `speed` scales the tracer's
    raw span times."""
    bursts = rep.pop("bursts")
    entered, left = rep["entered"], rep["left"]
    raw = left - entered
    in_main = sum(length for t0, length, _ in bursts if entered <= t0 < left)
    rep["wall_raw_s"] = raw
    rep["setup_raw_s"] = entered - rep["spawned"]
    rep["wall_s"] = pace.full_speed_time(bursts, entered, left)
    rep["setup_s"] = pace.full_speed_time(bursts, rep["spawned"], entered)
    rep["import_s"] = pace.full_speed_time(bursts, rep["started"], entered)
    rep["speed"] = rep["wall_s"] / raw if raw > 0 else 1.0
    work = raw - in_main
    rep["cpu_s"] = (rep["cpu_s"] - in_main) * rep["wall_s"] / work if work > 0 else 0.0


class Run:
    """All samples of one workload run, and their checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = OUT / f"{workload}-seed{seed}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "trace").mkdir(parents=True)
        self.ops = WORKLOADS[workload](seed, self.workdir)
        self.checker = Checker()
        self.samples: list[list[dict]] = [[] for _ in self.ops]   # per op, per round
        self.first_stdout: list[str | None] = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.rounds: list[bool] = []      # traced?
        self.counts_repeat = True

    def execute(self) -> None:
        start = time.monotonic()
        deadline = start + DEADLINE_S
        # a traced run alternates untraced and traced rounds, two of each at
        # least: the overhead compares medians with medians, and counts
        # are compared across traced rounds
        pattern = (False, True) if self.trace else (False,)
        min_rounds = 4 if self.trace else MIN_ROUNDS
        last = 0.0
        while len(self.rounds) < min_rounds or time.monotonic() - start < self.seconds:
            t0 = time.monotonic()
            if len(self.rounds) and t0 + last > deadline:
                break
            traced = pattern[len(self.rounds) % len(pattern)]
            first_traced = traced and True not in self.rounds
            for i, op in enumerate(self.ops):
                out = "-"
                if traced:
                    out = str(self.workdir / "trace" / f"op{i:02d}.json") if first_traced else "+"
                self._record(i, op, run_op(op, self.workdir, out, deadline), traced)
            self.rounds.append(traced)
            last = time.monotonic() - t0
        procs = [s for samples in self.samples for s in samples if "bursts" in s]
        self.median_burst = statistics.median(d for s in procs for _, _, d in s["bursts"])
        for s in procs:
            at_full_speed(s)

    def _record(self, i: int, op: Op, rep: dict, traced: bool) -> None:
        self.attempted += 1
        rep["traced"] = traced
        expect = self.checker.for_op(op.label)
        error = rep.get("harness_error") or rep.get("error")
        if error:
            self.failed += 1
            rep["failed"] = True
            known = op.fault is not None and op.fault in (rep.get("error") or "")
            expect(known, f"fails only with the known fault ({op.fault})" if op.fault
                   else f"does not crash: {error}")
            self.samples[i].append(rep)
            return
        rep["failed"] = False
        self.samples[i].append(rep)
        if self.first_stdout[i] is None:
            self.first_stdout[i] = rep["stdout"]
            try:
                payload = json.loads(rep["stdout"])
                op.check(Outcome(rep["exit"], payload), expect)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                expect(False, f"output has the expected shape: {type(exc).__name__}: {exc}")
        elif rep["stdout"] != self.first_stdout[i]:
            expect(False, "stdout is byte-identical across repetitions")

    # -- metrics -----------------------------------------------------------

    def _ok(self, traced: bool) -> list[list[dict]]:
        return [[s for s in samples if not s["failed"] and s["traced"] == traced]
                for samples in self.samples]

    def _sum_of_medians(self, key: str, traced: bool) -> float:
        return sum(statistics.median(s[key] for s in per_op)
                   for per_op in self._ok(traced) if per_op)

    def end_to_end(self) -> dict:
        procs = [s for samples in self.samples for s in samples if "entered" in s]
        return {
            "setup_s": statistics.median(s["setup_s"] for s in procs),
            "wall_s": self._sum_of_medians("wall_s", False),
            "cpu_s": self._sum_of_medians("cpu_s", False),
            "peak_rss_mb": max(s["maxrss_kb"] for s in procs) / 1024.0,
        }

    def per_layer(self) -> dict:
        traced = self._ok(True)
        expect = self.checker.for_op("trace")
        out = {}
        for name, (span, field) in SPAN_METRICS.items():
            out[name] = self._layer_sum(traced, partial(_span_value, span=span, field=field),
                                        exact=field == "calls")
        for name in COUNTERS:
            out[name] = self._layer_sum(traced, lambda s, name=name: s["counts"].get(name, 0),
                                        exact=True)
        search_s = self._layer_sum(traced, partial(_span_value, span="redundancy.search",
                                                   field="incl_s"))
        orbit_s = self._layer_sum(traced, lambda s: _span_value(
            s, "nielsen.orbit", "incl_s") - s["nested"] * s["speed"])
        out["redundancy.nodes_per_s"] = out["redundancy.search_nodes"] / search_s if search_s else 0.0
        out["nielsen.orbit_nodes_per_s"] = out["nielsen.orbit_nodes"] / orbit_s if orbit_s else 0.0
        out["cli.import_s"] = statistics.median(s["import_s"] for per_op in traced
                                                for s in per_op)
        missing = sorted({m for per_op in traced for s in per_op for m in s["missing"]})
        out["trace.missing_entry_points"] = len(missing)
        for m in missing:
            print(f"note: traced entry point not found: {m}")
        untraced = self._sum_of_medians("wall_s", False)
        traced_wall = self._sum_of_medians("wall_s", True)
        out["trace.untraced_wall_s"] = untraced
        out["trace.traced_wall_s"] = traced_wall
        out["trace.overhead_pct"] = 100.0 * (traced_wall / untraced - 1.0)
        expect(self.counts_repeat, "counts repeat exactly across traced rounds")
        return out

    def _layer_sum(self, traced, value, exact: bool = False) -> float:
        """Sum over operations of the median traced round; counts must be
        the same in every traced round."""
        total = 0
        for per_op in traced:
            if not per_op:
                continue
            vals = [value(s) for s in per_op]
            if exact and len(set(vals)) > 1:
                self.counts_repeat = False
            total += vals[0] if exact else statistics.median(vals)
        return total

    # -- report ------------------------------------------------------------

    def report(self) -> dict:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        print(f"workload {self.workload}  seed {self.seed}  rounds {len(self.rounds)} "
              f"({sum(self.rounds)} traced)  operations/round {len(self.ops)}  "
              f"attempted {self.attempted}  failed {self.failed}")
        print(f"  reference burst: median {self.median_burst * 1e3:.4f} ms, "
              f"{pace.REFERENCE_BURST_S * 1e3:.4f} ms at full speed")
        for op, samples in zip(self.ops, self.samples):
            ok = [s for s in samples if not s["failed"] and not s["traced"]]
            wall = (f"median {statistics.median(s['wall_s'] for s in ok):8.4f} s at full "
                    f"speed, {statistics.median(s['wall_raw_s'] for s in ok):8.4f} s raw"
                    ) if ok else "failed"
            print(f"  op {op.label:44s} wall {wall}  samples {len(samples)}")
        for label, what, ok in self.checker.results:
            print(f"  check {'ok  ' if ok else 'FAIL'} {label}: {what}")
        for name, value in metrics.items():
            print(f"  metric {name:34s} {value:16.6f} {self._unit(name)}")
        result = {"correct": self.checker.ok, "attempted": self.attempted,
                  "failed": self.failed,
                  "metrics": {name: {"value": value, "unit": self._unit(name)}
                              for name, value in metrics.items()}}
        (self.workdir / "result.json").write_text(json.dumps(
            {"result": result, "checks": self.checker.results, "rounds": self.rounds,
             "median_burst_s": self.median_burst,
             "ops": [{"label": op.label, "argv": op.argv,
                      "samples": [{k: v for k, v in s.items() if k != "stdout"}
                                  for s in samples]}
                     for op, samples in zip(self.ops, self.samples)]}, indent=1))
        return result

    def _unit(self, name: str) -> str:
        return E2E_UNITS[name] if not self.trace else layer_unit(name)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "genrank" / "cli.py").is_file():
        print(f"error: genrank sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        run.execute()
        results[name] = run.report()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
