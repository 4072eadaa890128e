"""Traced mode: wraps the program's layer boundaries at run time, from the
benchmark's own files, and turns what it records into per-layer metrics.

Hot boundaries (region and belief successors, game expansion) are only
aggregated: count, total time and time spent in wrapped callees.  The other
boundaries also record one span each, tagged with the query it belongs to.
Everything is kept in memory until the run writes it out.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

from etopaq import game, msformat, oracle, taformat
from etopaq import ta as ta_mod
from etopaq.beliefs import BeliefSpace
from etopaq.regions import RegionContext

# boundary -> layer whose self time it counts towards
LAYER_OF = {
    "taformat.parse": "taformat",
    "msformat.parse": "msformat",
    "ta.validate": "ta",
    "ta.prepare": "ta",
    "regions.delay_steps": "regions",
    "regions.discrete_steps": "regions",
    "beliefs.successor": "beliefs",
    "beliefs.initial": "beliefs",
    "game.solve": "game",
    "game.game_successors": "game",
    "game.witness_to_metastrategy": "fold",
    "strategies.check_metastrategy": "strategies",
    "strategies.check_exists": "strategies",
    "strategies.encountered_beliefs": "strategies",
    "oracle.oracle_buckets": "oracle",
    "oracle.oracle_verdict": "oracle",
}
HOT = {
    "regions.delay_steps", "regions.discrete_steps",
    "beliefs.successor", "beliefs.initial",
    "game.game_successors",
}
# name -> (unit, better), in report order; `trace.overhead_ratio` is added
# by the run, which also times the untraced passes.
METRICS = {
    "taformat.parse_s": ("s", "lower"),
    "ta.prepare_s": ("s", "lower"),
    "ta.prepared_edges": ("count", "lower"),
    "msformat.parse_s": ("s", "lower"),
    "regions.calls": ("count", "lower"),
    "regions.distinct": ("count", "lower"),
    "regions.hit_ratio": ("ratio", "higher"),
    "regions.self_s": ("s", "lower"),
    "beliefs.calls": ("count", "lower"),
    "beliefs.distinct": ("count", "lower"),
    "beliefs.hit_ratio": ("ratio", "higher"),
    "beliefs.size_mean": ("regions", "lower"),
    "beliefs.self_s": ("s", "lower"),
    "game.expand_calls": ("count", "lower"),
    "game.states": ("count", "lower"),
    "game.edges": ("count", "lower"),
    "game.explore_s": ("s", "lower"),
    "game.search_s": ("s", "lower"),
    "game.self_s": ("s", "lower"),
    "game.stem_len": ("labels", "lower"),
    "game.loop_len": ("labels", "lower"),
    "game.fold_s": ("s", "lower"),
    "strategies.buckets": ("count", "lower"),
    "strategies.check_s": ("s", "lower"),
    "oracle.rows": ("count", "lower"),
    "oracle.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
COUNTS = (  # must repeat exactly between traced runs with the same seed
    "regions.calls", "beliefs.calls", "game.expand_calls", "game.states",
    "game.edges", "strategies.buckets", "oracle.rows",
)


class Tracer:
    """Install with `install()`, bracket each query with `begin_query`, read
    the pass's numbers with `metrics()`, then `reset()` for the next pass."""

    def __init__(self):
        self.record_spans = True
        self.spans: list[tuple] = []  # (query, boundary, start, end, parent span)
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self._stack = [[0.0]]  # per open call: time spent in wrapped callees
        self._span_stack: list[int] = []
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # boundary -> count, total, child
        self.n = defaultdict(int)
        self.stems: list[int] = []
        self.loops: list[int] = []
        self.query = None
        self._seen = defaultdict(set)
        self._solve_last_expand = None

    def begin_query(self, query: int) -> None:
        """Region and belief caches are per query, so are the distinct sets."""
        self.query = query
        self._seen.clear()

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        w = self._wrap
        w(taformat, "parse", "taformat.parse")
        w(msformat, "parse", "msformat.parse")
        w(ta_mod, "validate", "ta.validate")
        w(ta_mod, "prepare", "ta.prepare", self._after_prepare)
        w(RegionContext, "delay_steps", "regions.delay_steps", self._after_delay)
        w(RegionContext, "discrete_steps", "regions.discrete_steps", self._after_discrete)
        w(BeliefSpace, "successor", "beliefs.successor", self._after_successor)
        w(BeliefSpace, "initial", "beliefs.initial", self._after_initial)
        w(game, "game_successors", "game.game_successors", self._after_expand)
        w(game, "solve", "game.solve", self._after_solve)
        w(game, "witness_to_metastrategy", "game.witness_to_metastrategy")
        w(game, "check_metastrategy", "strategies.check_metastrategy")
        w(game, "check_exists", "strategies.check_exists")
        w(game, "encountered_beliefs", "strategies.encountered_beliefs", self._after_buckets)
        w(oracle, "oracle_buckets", "oracle.oracle_buckets", self._after_rows)
        w(oracle, "oracle_verdict", "oracle.oracle_verdict")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, boundary: str, after=None) -> None:
        fn = getattr(owner, attr)
        clock = time.perf_counter
        keep_span = boundary not in HOT
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            if keep_span and tracer.record_spans:
                span = len(tracer.spans)
                parent = tracer._span_stack[-1] if tracer._span_stack else None
                tracer.spans.append(None)
                tracer._span_stack.append(span)
            else:
                span = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack[-1][0] += t1 - t0
                a = tracer.agg[boundary]
                a[0] += 1
                a[1] += t1 - t0
                a[2] += frame[0]
                if span is not None:
                    tracer._span_stack.pop()
                    tracer.spans[span] = (tracer.query, boundary, t0, t1, parent)
            if after is not None:
                after(args, result, t0, t1)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    # -- counters ----------------------------------------------------------------

    def _after_prepare(self, args, result, t0, t1) -> None:
        self.n["ta.prepared_edges"] += len(result.edges)

    def _distinct(self, kind: str, key, counter: str) -> bool:
        seen = self._seen[kind]
        size = len(seen)
        seen.add(key)
        if len(seen) == size:
            return False
        self.n[counter] += 1
        return True

    # each successor method has its own cache, so its own distinct set
    def _after_delay(self, args, result, t0, t1) -> None:
        self._distinct("delay", args[1], "regions.distinct")

    def _after_discrete(self, args, result, t0, t1) -> None:
        self._distinct("discrete", args[1], "regions.distinct")

    def _after_successor(self, args, result, t0, t1) -> None:
        self._new_belief((args[1], args[2], frozenset(args[3])), result)

    def _after_initial(self, args, result, t0, t1) -> None:
        self._new_belief(frozenset(args[1]), result)

    def _new_belief(self, key, belief) -> None:
        if self._distinct("beliefs", key, "beliefs.distinct"):
            self.n["beliefs.size_sum"] += len(belief)

    def _after_expand(self, args, result, t0, t1) -> None:
        self.n["game.edges"] += len(result)
        self._distinct("game", args[1], "game.states")
        self._solve_last_expand = t1

    def _after_solve(self, args, result, t0, t1) -> None:
        last = self._solve_last_expand
        if last is None or last < t0:
            last = t0
        self.n["game.explore_s"] += last - t0
        self.n["game.search_s"] += t1 - last
        if result.status == "SAT":
            self.stems.append(len(result.witness.stem))
            self.loops.append(len(result.witness.loop))

    def _after_buckets(self, args, result, t0, t1) -> None:
        self.n["strategies.buckets"] += len(result.buckets)

    def _after_rows(self, args, result, t0, t1) -> None:
        self.n["oracle.rows"] += len(result.rows)

    # -- per-layer metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """This pass's per-layer numbers, times in raw seconds."""
        self_time = defaultdict(float)
        for boundary, (_, total, child) in self.agg.items():
            self_time[LAYER_OF[boundary]] += total - child

        def calls(*boundaries: str) -> int:
            return sum(self.agg[b][0] for b in boundaries if b in self.agg)

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        n = self.n
        region_calls = calls("regions.delay_steps", "regions.discrete_steps")
        belief_calls = calls("beliefs.successor", "beliefs.initial")
        return {
            "taformat.parse_s": self_time["taformat"],
            "ta.prepare_s": self_time["ta"],
            "ta.prepared_edges": n["ta.prepared_edges"],
            "msformat.parse_s": self_time["msformat"],
            "regions.calls": region_calls,
            "regions.distinct": n["regions.distinct"],
            "regions.hit_ratio": ratio(region_calls - n["regions.distinct"], region_calls),
            "regions.self_s": self_time["regions"],
            "beliefs.calls": belief_calls,
            "beliefs.distinct": n["beliefs.distinct"],
            "beliefs.hit_ratio": ratio(belief_calls - n["beliefs.distinct"], belief_calls),
            "beliefs.size_mean": ratio(n["beliefs.size_sum"], n["beliefs.distinct"]),
            "beliefs.self_s": self_time["beliefs"],
            "game.expand_calls": calls("game.game_successors"),
            "game.states": n["game.states"],
            "game.edges": n["game.edges"],
            "game.explore_s": n["game.explore_s"],
            "game.search_s": n["game.search_s"],
            "game.self_s": self_time["game"],
            "game.stem_len": statistics.fmean(self.stems) if self.stems else 0.0,
            "game.loop_len": statistics.fmean(self.loops) if self.loops else 0.0,
            "game.fold_s": self_time["fold"],
            "strategies.buckets": n["strategies.buckets"],
            "strategies.check_s": self_time["strategies"],
            "oracle.rows": n["oracle.rows"],
            "oracle.self_s": self_time["oracle"],
        }

    def aggregates(self) -> dict[str, dict[str, float]]:
        return {
            b: {"count": c, "total_s": t, "child_s": ch}
            for b, (c, t, ch) in sorted(self.agg.items())
        }
