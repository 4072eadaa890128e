"""One-player Büchi game deciding meta-strategy existence, per opacity mode.

Game states pair the current belief with the belief accumulated since the
last tick-1 action; closing a bucket (taking a tick-1) is guarded by the
mode's leak rule (`modes.Mode.leaks`) on the accumulated belief.  The closed
mode carries two extra bits: whether the last closed interval contained a
final region, and a pending obligation that the next interval must.  A
winning play is a reachable lasso whose loop takes tick-1 actions; its
labels directly spell an eventually periodic meta-strategy.

`solve` explores the pruned game breadth first, one state at a time, with
the caps checked per expanded state, then searches the explored graph once:
Tarjan's SCCs, the first tick-1 edge inside an SCC in discovery order, the
BFS parent chain as the stem and a shortest path inside the SCC as the loop.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .beliefs import BOTTOM, DEAD, Belief, BeliefSpace
from .modes import Mode, bucket_verdict
from .strategies import (
    Bucket,
    Label,
    MetaStrategy,
    UnitPlan,
    all_enabled,
    encountered_beliefs,
)

DEFAULT_STATE_CAP = 200_000


@dataclass(frozen=True, slots=True)
class GameState:
    current: object  # Belief or BOTTOM
    accumulated: Belief
    at_integer: bool
    prev_interval_finals: bool = False
    obligation: bool = False


INITIAL = GameState(BOTTOM, DEAD, True)


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
    acc = st.accumulated
    priv, pub = space.has_private_final(acc), space.has_public_final(acc)
    leak = mode.leaks(priv, pub)
    if st.at_integer:
        obligation = False
        if mode is Mode.ALMOST_FULL:
            pass  # punctual violations are ignored outright
        elif mode is Mode.CLOSED_FULL:
            obligation = leak and not st.prev_interval_finals
        elif leak:
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
                    acc | b,
                    False,
                    st.prev_interval_finals,
                    st.obligation,
                ),
            )
        )
    closed = mode is Mode.CLOSED_FULL
    if not leak and not (closed and st.obligation and not (priv or pub)):
        finals = closed and (priv or pub)
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


Adjacency = dict[GameState, list[tuple[Label, GameState]]]
Tree = dict[GameState, tuple[GameState, Label] | None]  # BFS parent edges


def explore(
    space: BeliefSpace, mode: Mode, state_cap: int, time_cap: float | None
) -> tuple[Adjacency, list[GameState], Tree, str]:
    """Reachable pruned game graph, breadth first, one state at a time:
    adjacency, discovery order, BFS parent edges, and why exploration
    stopped short ("" when it did not).  The time cap is checked before each
    expansion, the state cap at each discovery."""
    deadline = None if time_cap is None else time.monotonic() + time_cap
    adj: Adjacency = {}
    order = [INITIAL]
    parent: Tree = {INITIAL: None}
    for st in order:  # `order` grows behind the cursor: a FIFO queue
        if deadline is not None and time.monotonic() > deadline:
            return adj, order, parent, f"time cap {time_cap}s exceeded"
        adj[st] = succs = game_successors(space, st, mode)
        for label, s2 in succs:
            if s2 not in parent:
                parent[s2] = (st, label)
                order.append(s2)
                if len(order) > state_cap:
                    return adj, order, parent, f"state cap {state_cap} exceeded"
    return adj, order, parent, ""


def _sccs(adj: Adjacency, order: list[GameState]) -> dict[GameState, int]:
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
        work = [(root, iter(adj[root]))]
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
                    work.append((child, iter(adj[child])))
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
                    if w == node:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def _path_to(tree: Tree, node: GameState) -> list[tuple[Label, GameState]]:
    """The (label, state) steps from the root of ``tree`` down to ``node``."""
    path = []
    while tree[node] is not None:
        prev, label = tree[node]
        path.append((label, node))
        node = prev
    path.reverse()
    return path


def _path_within(
    adj: Adjacency, src: GameState, dst: GameState, members: set[GameState]
) -> list[tuple[Label, GameState]]:
    """Shortest path from ``src`` to ``dst`` through ``members`` (one SCC),
    breadth first in emission order."""
    tree: Tree = {src: None}
    queue = [src]
    for u in queue:
        if u == dst:
            break
        for label, w in adj[u]:
            if w not in tree and w in members:
                tree[w] = (u, label)
                queue.append(w)
    return _path_to(tree, dst)


def solve(
    space: BeliefSpace,
    mode: Mode,
    state_cap: int = DEFAULT_STATE_CAP,
    time_cap: float | None = None,
    workers: int = 1,
) -> SolveResult:
    """SAT with a lasso witness when some infinite play takes tick-1 actions
    forever, UNSAT after exhausting the pruned game, INDETERMINATE when a
    resource cap is hit.  ``workers`` is accepted and ignored: the solver is
    sequential, and the benchmark harness still passes ``workers=1``."""
    t0 = time.monotonic()
    adj, order, parent, stopped = explore(space, mode, state_cap, time_cap)
    stats = SolveStats(
        len(order), sum(len(v) for v in adj.values()), time.monotonic() - t0
    )
    if stopped:
        return SolveResult("INDETERMINATE", None, stats, stopped)
    comp = _sccs(adj, order)
    # Discovery order is BFS order, so the first tick-1 edge inside an SCC,
    # scanning states in that order and each state's edges as emitted
    # (ticks "0" < "0+" < "1", then `enabled_sets()` order), is the one
    # closest to the start with the smallest label.
    best = next(
        (
            (u, label, w)
            for u in order
            for label, w in adj[u]
            if label[0] == "1" and comp[u] == comp[w]
        ),
        None,
    )
    if best is None:
        return SolveResult("UNSAT", None, stats)
    u, label, w = best
    members = {s for s in order if comp[s] == comp[u]}
    cycle = [(label, w)] + _path_within(adj, w, u, members)
    stem = [lbl for lbl, _ in _path_to(parent, u)]
    # rotation: start the loop right after a tick-1 landing on an integer point
    states = [u] + [s for _, s in cycle]
    rot = next(i for i, s in enumerate(states[:-1]) if s.at_integer)
    loop_labels = tuple(lbl for lbl, _ in cycle[rot:] + cycle[:rot])
    stem_labels = tuple(stem + [lbl for lbl, _ in cycle[:rot]])
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
    ok, offending = bucket_verdict(
        mode,
        (
            (bucket, space.has_private_final(b), space.has_public_final(b))
            for bucket, b in enc.buckets
        ),
    )
    return CheckResult(ok, offending)


@dataclass(frozen=True)
class ExistsResult:
    holds: bool
    witness: Bucket | None
    witnesses: tuple[Bucket, ...]


def check_exists(space: BeliefSpace, phi: MetaStrategy | None = None) -> ExistsResult:
    """Existential opacity: some bucket reaches both a private and a public
    final.  Checked under the all-enabled meta-strategy unless one is given
    (enabling more only grows both duration sets)."""
    if phi is None:
        phi = all_enabled(space.ctx.ta)
    enc = encountered_beliefs(space, phi)
    hits = tuple(
        bucket
        for bucket, belief in enc.buckets
        if space.has_private_final(belief) and space.has_public_final(belief)
    )
    return ExistsResult(bool(hits), hits[0] if hits else None, hits)
