"""One-player Büchi game deciding meta-strategy existence, per opacity mode.

Game states pair the current belief with the belief accumulated since the
last tick-1 action; closing a bucket (taking a tick-1) is guarded by the
mode's leak predicate on the accumulated belief.  The closed mode carries two
extra bits: whether the last closed interval contained a final region, and a
pending obligation that the next interval must.  A winning play is a
reachable lasso whose loop takes tick-1 actions; its labels directly spell an
eventually periodic meta-strategy.
"""
from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .beliefs import BOTTOM, DEAD, Belief, BeliefSpace
from .strategies import Bucket, Label, MetaStrategy, UnitPlan, encountered_beliefs


class Mode(Enum):
    FULL = "full"
    WEAK = "weak"
    ALMOST_FULL = "almost"
    CLOSED_FULL = "closed"


DEFAULT_STATE_CAP = 200_000
STATE_CAP_ENV = "ETOPAQ_STATE_CAP"


def state_cap_default() -> int:
    raw = os.environ.get(STATE_CAP_ENV)
    return int(raw) if raw else DEFAULT_STATE_CAP


@dataclass(frozen=True, slots=True)
class GameState:
    current: object  # Belief or BOTTOM
    accumulated: Belief
    at_integer: bool
    prev_interval_finals: bool = False
    obligation: bool = False


INITIAL = GameState(BOTTOM, DEAD, True)


def _interval_close_ok(space: BeliefSpace, st: GameState, mode: Mode) -> bool:
    acc = st.accumulated
    if mode is Mode.WEAK:
        if space.leaking_weak(acc):
            return False
    else:
        if space.leaking_full(acc):
            return False
    if mode is Mode.CLOSED_FULL and st.obligation and not space.finals_present(acc):
        return False
    return True


def game_successors(
    space: BeliefSpace, st: GameState, mode: Mode
) -> list[tuple[Label, GameState]]:
    """Legal moves.  Integer-phase states only offer tick-1 actions (the
    choice schedule of a meta-strategy never switches mid-point), interval
    states offer '0+' and '1'; losing moves are pruned here."""
    out: list[tuple[Label, GameState]] = []
    subsets = space.enabled_sets()
    if st.current is BOTTOM:
        for e in subsets:
            b = space.initial(e)
            out.append((("0", e), GameState(b, b, True)))
        return out
    if st.at_integer:
        acc = st.accumulated
        leak_point = (
            space.leaking_weak(acc) if mode is Mode.WEAK else space.leaking_full(acc)
        )
        obligation = False
        if mode is Mode.ALMOST_FULL:
            pass  # punctual violations are ignored outright
        elif mode is Mode.CLOSED_FULL:
            if leak_point and not st.prev_interval_finals:
                obligation = True
        elif leak_point:
            return out
        for e in subsets:
            b = space.successor(st.current, "1", e)
            out.append(
                (("1", e), GameState(b, b, False, st.prev_interval_finals, obligation))
            )
        return out
    for e in subsets:
        b = space.successor(st.current, "0+", e)
        out.append(
            (
                ("0+", e),
                GameState(
                    b,
                    st.accumulated | b,
                    False,
                    st.prev_interval_finals,
                    st.obligation,
                ),
            )
        )
    if _interval_close_ok(space, st, mode):
        finals = (
            space.finals_present(st.accumulated) if mode is Mode.CLOSED_FULL else False
        )
        for e in subsets:
            b = space.successor(st.current, "1", e)
            out.append((("1", e), GameState(b, b, True, finals, False)))
    return out


@dataclass(frozen=True)
class WinningWitness:
    stem: tuple[Label, ...]
    loop: tuple[Label, ...]


@dataclass(frozen=True)
class SolveStats:
    states: int
    edges: int
    seconds: float


@dataclass(frozen=True)
class SolveResult:
    status: str  # 'SAT' | 'UNSAT' | 'INDETERMINATE'
    witness: WinningWitness | None
    stats: SolveStats
    detail: str = ""


class _Cap(Exception):
    """A resource cap was hit; carries how far exploration got."""

    def __init__(self, reason: str, states: int, edges: int):
        super().__init__(reason)
        self.states = states
        self.edges = edges


def _explore(
    space: BeliefSpace,
    mode: Mode,
    state_cap: int,
    time_cap: float | None,
    workers: int,
) -> tuple[dict[GameState, list[tuple[Label, GameState]]], list[GameState]]:
    """Reachable pruned game graph, breadth first.  Workers parallelize
    successor generation only; the resulting graph is schedule-independent."""
    start = time.monotonic()
    adj: dict[GameState, list[tuple[Label, GameState]]] = {}
    order: list[GameState] = [INITIAL]
    seen = {INITIAL}
    frontier = [INITIAL]
    edges = 0

    def expand(st: GameState) -> tuple[GameState, list[tuple[Label, GameState]]]:
        return st, game_successors(space, st, mode)

    while frontier:
        if time_cap is not None and time.monotonic() - start > time_cap:
            raise _Cap(f"time cap {time_cap}s exceeded", len(seen), edges)
        if workers > 1 and len(frontier) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                expanded = list(pool.map(expand, frontier))
        else:
            expanded = [expand(st) for st in frontier]
        nxt: list[GameState] = []
        for st, succs in expanded:
            adj[st] = succs
            edges += len(succs)
            for _, s2 in succs:
                if s2 not in seen:
                    seen.add(s2)
                    order.append(s2)
                    nxt.append(s2)
                    if len(seen) > state_cap:
                        raise _Cap(f"state cap {state_cap} exceeded", len(seen), edges)
        frontier = nxt
    return adj, order


def _sccs(
    adj: dict[GameState, list[tuple[Label, GameState]]], order: list[GameState]
) -> dict[GameState, int]:
    """Iterative Tarjan; returns the component index per state."""
    index: dict[GameState, int] = {}
    low: dict[GameState, int] = {}
    comp: dict[GameState, int] = {}
    stack: list[GameState] = []
    on_stack: set[GameState] = set()
    counter = 0
    ncomp = 0
    for root in order:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for _, child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adj.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = ncomp
                    if w is node or w == node:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def _label_key(label: Label) -> tuple:
    return (label[0], len(label[1]), tuple(sorted(label[1])))


def _shortest_path(
    adj: dict[GameState, list[tuple[Label, GameState]]],
    src: GameState,
    dst: GameState,
    restrict: set[GameState] | None = None,
) -> list[tuple[Label, GameState]] | None:
    if src == dst:
        return []
    prev: dict[GameState, tuple[GameState, Label]] = {}
    queue = [src]
    seen = {src}
    while queue:
        nxt: list[GameState] = []
        for u in queue:
            for label, w in sorted(adj.get(u, ()), key=lambda e: _label_key(e[0])):
                if w in seen or (restrict is not None and w not in restrict):
                    continue
                seen.add(w)
                prev[w] = (u, label)
                if w == dst:
                    path: list[tuple[Label, GameState]] = []
                    node = w
                    while node != src:
                        p, lbl = prev[node]
                        path.append((lbl, node))
                        node = p
                    path.reverse()
                    return path
                nxt.append(w)
        queue = nxt
    return None


def solve(
    space: BeliefSpace,
    mode: Mode,
    state_cap: int | None = None,
    time_cap: float | None = None,
    workers: int = 1,
) -> SolveResult:
    """SAT with a lasso witness when some infinite play takes tick-1 actions
    forever, UNSAT after exhausting the pruned game, INDETERMINATE when a
    resource cap is hit."""
    cap = state_cap if state_cap is not None else state_cap_default()
    t0 = time.monotonic()
    try:
        adj, order = _explore(space, mode, cap, time_cap, workers)
    except _Cap as stop:
        stats = SolveStats(stop.states, stop.edges, time.monotonic() - t0)
        return SolveResult("INDETERMINATE", None, stats, str(stop))
    stats = SolveStats(
        len(adj), sum(len(v) for v in adj.values()), time.monotonic() - t0
    )
    comp = _sccs(adj, order)
    dist: dict[GameState, int] = {INITIAL: 0}
    queue = deque([INITIAL])
    while queue:
        u = queue.popleft()
        for _, w in adj.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    rank = {st: i for i, st in enumerate(order)}
    best = None
    for u in order:
        for label, w in adj.get(u, ()):
            if label[0] == "1" and comp[u] == comp[w]:
                key = (dist.get(u, 1 << 30), rank[u], _label_key(label), rank[w])
                if best is None or key < best[0]:
                    best = (key, u, label, w)
    if best is None:
        return SolveResult("UNSAT", None, stats)
    _, u, label, w = best
    members = {s for s in order if comp[s] == comp[u]}
    back = _shortest_path(adj, w, u, restrict=members)
    assert back is not None
    stem_path = _shortest_path(adj, INITIAL, u)
    assert stem_path is not None
    cycle: list[tuple[Label, GameState]] = [(label, w)] + back
    # rotation: start the loop right after a tick-1 landing on an integer point
    states = [u] + [s for _, s in cycle]
    rot = next(i for i, s in enumerate(states[:-1]) if s.at_integer)
    loop_labels = tuple(lbl for lbl, _ in cycle[rot:] + cycle[:rot])
    stem_labels = tuple(lbl for lbl, _ in stem_path) + tuple(
        lbl for lbl, _ in cycle[:rot]
    )
    return SolveResult("SAT", WinningWitness(stem_labels, loop_labels), stats)


def witness_to_metastrategy(witness: WinningWitness) -> MetaStrategy:
    """Folds the winning play's labels into unit plans: each tick-1 opens an
    interval or closes onto the next integer point, '0+' labels extend the
    open interval.  Two loop passes are materialized so a straddling first
    unit lands in the stem."""
    if not any(t == "1" for t, _ in witness.loop):
        raise ValueError("loop carries no tick-1 action")
    if not witness.stem or witness.stem[0][0] != "0":
        raise ValueError("stem must start with the initial zero-time choice")
    stem_ones = sum(1 for t, _ in witness.stem if t == "1")
    loop_ones = sum(1 for t, _ in witness.loop if t == "1")
    if stem_ones % 2 or loop_ones % 2:
        raise ValueError("witness is not aligned on integer points")
    stream = list(witness.stem) + list(witness.loop) * 2
    units: list[UnitPlan] = []
    point = stream[0][1]
    interval: list[frozenset[str]] = []
    ones = 0
    for tick, enabled in stream[1:]:
        if tick == "1":
            ones += 1
            if ones % 2:
                interval = [enabled]
            else:
                units.append(UnitPlan(point, tuple(interval)))
                point = enabled
        else:
            interval.append(enabled)
    stem_units = stem_ones // 2
    per_pass = loop_ones // 2
    first = units[stem_units : stem_units + per_pass]
    second = units[stem_units + per_pass : stem_units + 2 * per_pass]
    if first == second:
        return MetaStrategy(tuple(units[:stem_units]), tuple(first))
    return MetaStrategy(tuple(units[: stem_units + per_pass]), tuple(second))


# --- direct checks of a given meta-strategy -----------------------------------


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    offending: Bucket | None = None


def check_metastrategy(
    space: BeliefSpace, phi: MetaStrategy, mode: Mode
) -> CheckResult:
    """Applies the mode's leak schedule to the encountered beliefs; the
    bucket list is periodic, so scanning the enumerated prefix decides."""
    enc = encountered_beliefs(space, phi, extra_units=2)
    intervals = {b.k: bel for b, bel in enc.buckets if b.kind == "interval"}
    max_point = max(b.k for b, _ in enc.buckets if b.kind == "point")
    for bucket, belief in enc.buckets:
        if bucket.kind == "interval":
            leaking = (
                space.leaking_weak(belief)
                if mode is Mode.WEAK
                else space.leaking_full(belief)
            )
            if leaking:
                return CheckResult(False, bucket)
            continue
        if mode is Mode.ALMOST_FULL:
            continue
        leak_point = (
            space.leaking_weak(belief)
            if mode is Mode.WEAK
            else space.leaking_full(belief)
        )
        if not leak_point:
            continue
        if mode is not Mode.CLOSED_FULL:
            return CheckResult(False, bucket)
        k = bucket.k
        if k == max_point:
            continue  # next interval not enumerated; covered by its periodic twin
        prev_ok = k - 1 in intervals and space.finals_present(intervals[k - 1])
        next_ok = k in intervals and space.finals_present(intervals[k])
        if not (prev_ok or next_ok):
            return CheckResult(False, bucket)
    return CheckResult(True, None)


@dataclass(frozen=True)
class ExistsResult:
    holds: bool
    witness: Bucket | None
    witnesses: tuple[Bucket, ...]


def check_exists(space: BeliefSpace, phi: MetaStrategy | None = None) -> ExistsResult:
    """Existential opacity: some bucket reaches both a private and a public
    final.  Checked under the all-enabled meta-strategy unless one is given
    (enabling more only grows both duration sets)."""
    from .strategies import all_enabled

    if phi is None:
        phi = all_enabled(space.ctx.ta)
    enc = encountered_beliefs(space, phi)
    hits = tuple(
        bucket
        for bucket, belief in enc.buckets
        if space.has_private_final(belief) and space.has_public_final(belief)
    )
    return ExistsResult(bool(hits), hits[0] if hits else None, hits)
