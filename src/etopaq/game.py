"""One-player Büchi game deciding meta-strategy existence, per opacity mode.

A game state is a plain tuple (current, accumulated, at_integer, memo): the
current belief, the belief accumulated since the last tick-1 action, whether
the state sits on an integer point, and the one memo the leak schedule
(`modes.Mode.rule`) hands from each bucket to the next, which only closed
mode sets.  Closing a bucket (taking a tick-1) is guarded by the schedule on
the accumulated belief.  Both beliefs are plain int masks (`beliefs`), and
`INITIAL` is the state before time 0.  A winning play is a reachable lasso
whose loop takes tick-1 actions; its labels directly spell an eventually
periodic meta-strategy.  Enabled sets that lead to the same successor state
are one move, labelled with the smallest of them: fewest names first, then
by sorted names.  A label is the int `BeliefSpace.successors` gives the
move, which packs the tick and that smallest set, so that building, hashing
and interning a state or a label per edge all run in C; `BeliefSpace.label`
alone decodes one back to (tick, enabled).

`solve` explores the pruned game with `graphs.bfs` under its caps, into
its interned state store, then searches it once, on ids, with one nested
depth-first search for a point state on a cycle (`point_loop`): the inner
search's path from that state back to it is the loop, and one more
`graphs.shortest_path` over the store, from the start to that state, the
stem.  Only the witness maps ids back, and decodes its labels.
"""
from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

from .beliefs import BOTTOM, DEAD, BeliefSpace
from .graphs import Explored, bfs, shortest_path
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

INITIAL = (BOTTOM, DEAD, True, False)


def game_successors(space: BeliefSpace, st: tuple, mode: Mode) -> list[tuple[int, tuple]]:
    """Legal moves.  Integer-phase states only offer tick-1 actions (the
    choice schedule of a meta-strategy never switches mid-point), interval
    states offer '0+' and '1'; a tick-1 closes the state's bucket, and
    `Mode.rule` prunes it when the bucket loses.  A move's target depends
    on its tick and successor belief alone, so each distinct successor
    belief gives one move, labelled with the smallest enabled set that
    yields it (`BeliefSpace.successors`): the edges left out duplicate an
    earlier edge of the same state, so every walk discovers the same states
    through the same edges.  Each move keeps the int label that
    `BeliefSpace.successors` gives it."""
    current, acc, point, memo = st
    if current is BOTTOM:
        return [(code, (b, b, True, False)) for code, b in space.successors(BOTTOM, "0")]
    out = [] if point else [
        (code, (b, acc | b, False, memo)) for code, b in space.successors(current, "0+")
    ]
    handed = mode.rule(point, space.has_private_final(acc), space.has_public_final(acc), memo)
    if handed is not None:
        point = not point  # a tick-1 moves from a point into an interval or back
        out += [(code, (b, b, point, handed)) for code, b in space.successors(current, "1")]
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


def explore(
    space: BeliefSpace, mode: Mode, state_cap: int | None, time_cap: float | None
) -> Explored:
    """The reachable pruned game graph as `graphs.bfs` returns it."""
    return bfs(INITIAL, lambda st: game_successors(space, st, mode), state_cap, time_cap)


def point_loop(g: Explored) -> tuple[int, list[int]] | None:
    """A point state of the fully expanded ``g`` on a cycle, and the label
    ids of one such cycle from it back to it; None when there is none.  The
    nested depth-first search of Courcoubetis, Vardi, Wolper & Yannakakis
    (FMSD 1992): as the outer DFS leaves a point state (``nodes[i][2]``;
    node 0, the start, is on no cycle), an inner breadth-first search
    (`graphs.shortest_path`) looks for an edge back to it through the states
    no inner search has reached yet.  The inner searches share one
    ``trail``, their mark and their paths.  When the outer DFS leaves the
    first point on a cycle, no state on a cycle through it is marked, so
    its inner search finds its way back."""
    n = len(g.nodes)
    trail = array("i", [-1]) * (2 * n)
    seen = bytearray(n)
    seen[0] = 1
    stack = [(0, g.steps(0))]
    while stack:
        u, it = stack[-1]
        for _, j in it:
            if not seen[j]:
                seen[j] = 1
                stack.append((j, g.steps(j)))
                break
        else:
            stack.pop()
            if u and g.nodes[u][2]:
                loop = shortest_path(g, u, u, trail)
                if loop is not None:
                    return u, loop
    return None


def solve(
    space: BeliefSpace,
    mode: Mode,
    state_cap: int = DEFAULT_STATE_CAP,
    time_cap: float | None = None,
    workers: int = 1,
) -> SolveResult:
    """SAT with a lasso witness when some infinite play takes tick-1 actions
    forever, UNSAT after exhausting the pruned game, INDETERMINATE when a
    resource cap is hit.  Every tick-1 lands on or leaves a point state, so
    a play does that exactly when its loop passes a point state
    (`point_loop`).  ``workers`` is accepted and ignored: the solver is
    sequential, and the benchmark harness still passes ``workers=1``."""
    t0 = time.monotonic()
    g = explore(space, mode, state_cap, time_cap)

    def stats() -> SolveStats:  # taken at each return: the search and the witness count too
        return SolveStats(len(g.nodes), g.edges, time.monotonic() - t0)

    if g.stopped:
        return SolveResult("INDETERMINATE", None, stats(), g.stopped)
    found = point_loop(g)
    if found is None:
        return SolveResult("UNSAT", None, stats())
    point, loop = found
    stem = shortest_path(g, 0, point, array("i", [-1]) * (2 * len(g.nodes)))
    stem, loop = (tuple(space.label(g.labels[lid]) for lid in path) for path in (stem, loop))
    return SolveResult("SAT", WinningWitness(stem, loop), stats())


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
    bucket list is periodic, so scanning the enumerated prefix decides.  One
    unit past the period lists both neighbour intervals of every point of
    the period but the last, whose periodic twin is judged before it; that
    unit's beliefs are copied from the period's first, not stepped again."""
    enc = encountered_beliefs(space, phi)
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
