"""One workload, measured inside a fresh single-threaded child process.

Started by `run.py` with the hash seed fixed and `src` and this directory on
the import path.  Prints one JSON object on its last stdout line.

Times are wall-clock `time.perf_counter` seconds scaled to a reference
machine speed: measured × PROBE_REF_S / (median time of a fixed speed probe
run between queries, once per PROBE_EVERY_S elapsed, in the same process).  On
a shared machine the speed of the core drifts by tens of percent within a
minute; the probe, which runs none of the program's code, tracks that drift.
The raw wall times and the scale are reported beside the scaled ones.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

MEMORY_LIMIT = 2 << 30  # bytes of address space; an overrun is a counted MemoryError
PROBE_REF_S = 0.010
PROBE_EVERY_S = 0.2
PROBE_BURST = 10
# tuples of small ints and a dict over them: what the program hashes and
# looks up most (regions, beliefs, cache keys)
PROBE_KEYS = [(i % 97, (i % 89, i * 7 % 83), ()) for i in range(16000)]
PROBE_TABLE = dict.fromkeys(PROBE_KEYS, 0)
MIN_SETUP_ROUNDS = 5
TAIL_BEYOND = 10  # samples a tail percentile must have above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TRACE_DIR = ".perfbench"


def speed_probe() -> float:
    """Seconds for two timed sweeps of hashing and dict lookups over fixed
    keys.  An untimed sweep first brings the keys into cache, and the
    collector is off, so the program's heap does not leak into the time."""
    gc.disable()
    try:
        x = 0
        for k in PROBE_KEYS:
            x += PROBE_TABLE[k]
        t0 = time.perf_counter()
        for _ in range(2):
            for k in PROBE_KEYS:
                x += PROBE_TABLE[k] + hash(k) % 3
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Probe:
    def __init__(self):
        self.times: list[float] = []
        self.last = time.perf_counter() - PROBE_EVERY_S

    def maybe(self) -> None:
        """Probes once per PROBE_EVERY_S since the last probe, at most
        PROBE_BURST times, so a long query is weighed by its length."""
        due = int((time.perf_counter() - self.last) / PROBE_EVERY_S)
        if due:
            for _ in range(min(due, PROBE_BURST)):
                self.times.append(speed_probe())
            self.last = time.perf_counter()

    def scale(self) -> float:
        return PROBE_REF_S / statistics.median(self.times)


@dataclass
class Pass:
    times: list[float]  # per query, text to verdict
    setup_s: float
    verdicts: list[str]
    decided: int
    wall: float


def run_pass(queries, probe: Probe, after=None, tracer=None) -> Pass:
    """All queries once.  `after(i, query, outcome)` runs untimed right after
    each query, so no outcome outlives the next query."""
    gc.collect()
    p = Pass([], 0.0, [], 0, 0.0)
    t0 = time.perf_counter()
    for i, q in enumerate(queries):
        probe.maybe()
        if tracer is not None:
            tracer.begin_query(i)
        out = workloads.run_query(q)
        p.times.append(out.total_s)
        p.setup_s += out.setup_s
        p.verdicts.append(out.verdict)
        p.decided += out.decided
        if after is not None:
            after(i, q, out)
        del out  # frees the query's caches before the next one runs
    probe.maybe()
    p.wall = time.perf_counter() - t0
    return p


def setup_round(queries, probe: Probe) -> float:
    gc.collect()
    total = 0.0
    for q in queries:
        probe.maybe()
        t0 = time.perf_counter()
        workloads.set_up(q)
        total += time.perf_counter() - t0
    return total


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile of TAIL_LADDER with at least TAIL_BEYOND
    samples above it (nearest rank), and that percentile; the maximum, as
    percentile 100, when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(n * pct / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Untraced passes until `seconds` of them have run (half of it when
    traced, then traced passes for the other half); at least one of each."""
    queries = workloads.build(workload, seed, Path.cwd())
    expected = workloads.load_expected(workload, seed, queries)
    probe = Probe()
    failures: dict[int, list[str]] = {}

    def gate(i, q, out) -> None:
        reasons = workloads.gate(q, out, expected[i] if expected else None)
        if reasons:
            failures[i] = reasons

    first = run_pass(queries, probe, after=gate)

    def same_verdict(i, q, out) -> None:
        if out.verdict != first.verdicts[i]:
            failures.setdefault(i, []).append(f"verdict changed to {out.verdict}")

    budget = seconds / 2 if traced else seconds
    passes = [first]
    while sum(p.wall for p in passes) < budget:
        passes.append(run_pass(queries, probe, after=same_verdict))

    layer_passes, traced_totals = [], []
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall = 0.0
            while not layer_passes or traced_wall < budget:
                tracer.reset()
                p = run_pass(queries, probe, after=same_verdict, tracer=tracer)
                traced_totals.append(sum(p.times))
                layer_passes.append(tracer.metrics())
                tracer.record_spans = False
                traced_wall += p.wall
        finally:
            tracer.uninstall()
        write_trace(workload, seed, tracer, queries)
    setups = [p.setup_s for p in passes]
    while not traced and len(setups) < MIN_SETUP_ROUNDS:
        setups.append(setup_round(queries, probe))

    scale = probe.scale()
    n = len(queries)
    failed = len(failures)
    pass_raw = statistics.median(sum(p.times) for p in passes)
    per_query = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
    tail_s, tail_pct = tail(per_query)
    info = {
        "queries": n,
        "state_caps": sorted({q.state_cap for q in queries if q.state_cap}),
        "rlimit_as_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
        "passes": len(passes),
        "speed_scale": scale,
        "speed_probes": len(probe.times),
        "pass_raw_s": pass_raw,
        "setup_raw_s": statistics.median(setups),
        "query_tail_percentile": tail_pct,
        "query_tail_samples": n,
        "expected_table": "checked" if expected else "no entry for this seed",
        "failures": {queries[i].qid: r for i, r in sorted(failures.items())[:20]},
        "verdicts": dict(Counter(first.verdicts).most_common()),
    }
    if traced:
        metrics = {}
        for name, (unit, _) in tracing.METRICS.items():
            if name == "trace.overhead_ratio":
                value = statistics.median(traced_totals) / pass_raw
            else:
                value = statistics.median_low(p[name] for p in layer_passes)
                if unit == "s":
                    value *= scale
            metrics[name] = {"value": value, "unit": unit}
        info["traced_passes"] = len(layer_passes)
        info["counts_repeat"] = all(
            p[c] == layer_passes[0][c] for p in layer_passes for c in tracing.COUNTS
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setups) * scale, "s"),
            "pass_s": (pass_raw * scale, "s"),
            "query_p50_s": (statistics.median(per_query) * scale, "s"),
            "query_tail_s": (tail_s * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "decided_share": (first.decided / n, "share"),
            "verified_share": ((n - failed) / n, "share"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        info["failed_share"] = failed / n
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def write_trace(workload: str, seed: int, tracer, queries) -> None:
    """Spans of the first traced pass and the last pass's aggregates, in raw
    perf_counter seconds."""
    out = Path(TRACE_DIR)
    out.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "queries": [q.qid for q in queries],
        "span_fields": ["query", "boundary", "start", "end", "parent"],
        "spans": tracer.spans,
        "aggregates": tracer.aggregates(),
    }
    path = out / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")


def record(workload: str, seed: int) -> dict:
    """One pass, gated by the cross-checks alone, for the expected table."""
    queries = workloads.build(workload, seed, Path.cwd())
    failures = {}

    def gate(i, q, out) -> None:
        if reasons := workloads.gate(q, out, None):
            failures[q.qid] = reasons

    p = run_pass(queries, Probe(), after=gate)
    return {
        "qids": [q.qid for q in queries],
        "verdicts": p.verdicts,
        "codes": [workloads.code(v) for v in p.verdicts],
        "failures": failures,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    if args.record:
        result = record(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
