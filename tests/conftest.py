from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Sequence

import pytest

from etopaq import prepare, taformat, validate
from etopaq.beliefs import BeliefSpace
from etopaq.graphs import Explored
from etopaq.regions import RegionContext
from etopaq.strategies import MetaStrategy, UnitPlan
from etopaq.ta import (
    CONTROLLABLE,
    UNCONTROLLABLE,
    Action,
    Atom,
    Clock,
    Edge,
    TimedAutomaton,
    make_finals_urgent,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SOLVE_FIXTURES = ("ta_opaque", "ta1", "ta_opaque2", "ta_counterex", "t2_like", "t3_like")


def fixture_path(name: str) -> Path:
    return FIXTURES / name


_ta_cache: dict[str, TimedAutomaton] = {}
_space_cache: dict[str, BeliefSpace] = {}


def load_ta(name: str) -> TimedAutomaton:
    if name not in _ta_cache:
        _ta_cache[name] = taformat.load(str(FIXTURES / f"{name}.ta"))
    return _ta_cache[name]


def load_space(name: str) -> BeliefSpace:
    if name not in _space_cache:
        _space_cache[name] = BeliefSpace(RegionContext(prepare(load_ta(name))))
    return _space_cache[name]


def every_enabled_set(space: BeliefSpace) -> tuple[frozenset[str], ...]:
    """Every subset of the controllable names, smallest first, then by
    sorted names: the order in which a class's smallest enabled set labels
    its moves, listed apart from `BeliefSpace`."""
    names = sorted(space.ctx.ta.controllable)
    return tuple(frozenset(c) for k in range(len(names) + 1) for c in combinations(names, k))


def belief_edges(space: BeliefSpace, g: Explored):
    """The edges of a belief store from ``space.explore``, as (source,
    tick, enabled, target) with both ends read back as nodes and the label
    decoded by the space."""
    for i in range(len(g.ends)):
        for lid, j in g.steps(i):
            yield (g.nodes[i], *space.label(g.labels[lid]), g.nodes[j])


def leaking_full(space: BeliefSpace, belief) -> bool:
    """Exactly one kind of final (private or public) is reachable: the
    full-mode leak, written out apart from `Mode.leaks`."""
    return space.has_private_final(belief) != space.has_public_final(belief)


def time_successor(ctx: RegionContext, rid: int):
    """The delay step (tag, id) that leaves region ``rid`` (every delay step
    but the stay-in-place one), or None when the invariant or the caps stop it."""
    return next(((tag, j) for tag, j in ctx.delay_steps(rid) if j != rid), None)


def valuations_equivalent(
    a: Sequence[Fraction], b: Sequence[Fraction], cmax: Sequence[int]
) -> bool:
    """Direct three-condition check, kept independent of the encoding so it
    can arbitrate `RegionContext.id_of`."""
    n = len(a)
    for i in range(n):
        above_a, above_b = a[i] > cmax[i], b[i] > cmax[i]
        if above_a != above_b:
            return False
        if not above_a and int(a[i]) != int(b[i]):
            return False
    for i in range(n):
        if a[i] > cmax[i]:
            continue
        fa_i = a[i] - int(a[i])
        fb_i = b[i] - int(b[i])
        if (fa_i == 0) != (fb_i == 0):
            return False
        for j in range(n):
            if a[j] > cmax[j]:
                continue
            fa_j = a[j] - int(a[j])
            fb_j = b[j] - int(b[j])
            if (fa_i <= fa_j) != (fb_i <= fb_j):
                return False
    return True


def edges_by_key(ta: TimedAutomaton) -> dict[str, Edge]:
    """'src>tgt/action' lookup; assumes at most one such edge per key."""
    return {f"{e.source}>{e.target}/{e.action.name}": e for e in ta.edges}


@pytest.fixture
def opaque_space() -> BeliefSpace:
    return load_space("ta_opaque")


@pytest.fixture
def ta1_space() -> BeliefSpace:
    return load_space("ta1")


# --- randomized small automata ------------------------------------------------


def random_ta(rng: random.Random, name: str = "rand") -> TimedAutomaton:
    """A small automaton within the randomized-suite envelope: at most four
    locations, two user clocks, constants up to 2; finals made urgent."""
    n_extra = rng.randint(0, 1)
    locations = ["l0", "lp", "lf"] + [f"m{i}" for i in range(n_extra)]
    n_clocks = rng.randint(1, 2)
    clocks = tuple(Clock(i, "xy"[i]) for i in range(n_clocks))
    n_ctrl = rng.randint(1, 2)
    actions = (Action("u", UNCONTROLLABLE),) + tuple(
        Action(c, CONTROLLABLE) for c in "ab"[:n_ctrl]
    )
    from etopaq.ta import SILENT

    sources = [l for l in locations if l != "lf"]
    edges = []
    for _ in range(rng.randint(3, 7)):
        src = rng.choice(sources)
        tgt = rng.choice(locations)
        guard = []
        for _ in range(rng.randint(0, 2)):
            guard.append(
                Atom(
                    rng.randrange(n_clocks),
                    rng.choice(("<", "<=", "=", ">=", ">")),
                    rng.randint(0, 2),
                )
            )
        resets = frozenset(
            i for i in range(n_clocks) if rng.random() < 0.3
        )
        action = SILENT if rng.random() < 0.15 else rng.choice(actions)
        edges.append(Edge(src, tuple(guard), action, resets, tgt))
    invariants = {}
    for loc in sources:
        if rng.random() < 0.4:
            invariants[loc] = (Atom(rng.randrange(n_clocks), "<=", rng.randint(1, 2)),)
    ta = TimedAutomaton(
        name=name,
        actions=actions,
        locations=tuple(locations),
        invariants=invariants,
        init="l0",
        private="lp",
        finals=frozenset({"lf"}),
        clocks=clocks,
        edges=tuple(edges),
    )
    ta = make_finals_urgent(ta)
    assert validate(ta) == []
    return ta


def chained_ta(rng: random.Random, name: str = "chain") -> TimedAutomaton:
    """A small automaton with three or four controllable names whose steps
    chain: an unguarded path from the initial location takes each name once,
    in a random order, so one name's step leads to where another name fires.
    A few random edges as in `random_ta` ride along; finals made urgent."""
    names = list("abcd"[: rng.randint(3, 4)])
    actions = (Action("u", UNCONTROLLABLE),) + tuple(Action(c, CONTROLLABLE) for c in names)
    by_name = {a.name: a for a in actions}
    rng.shuffle(names)
    mids = [f"m{i}" for i in range(len(names) - 1)]
    locations = ["l0", "lp", "lf"] + mids
    n_clocks = rng.randint(1, 2)
    clocks = tuple(Clock(i, "xy"[i]) for i in range(n_clocks))
    path = ["l0", *mids, rng.choice(("lp", "lf"))]
    edges = [
        Edge(src, (), by_name[a], frozenset(i for i in range(n_clocks) if rng.random() < 0.3), tgt)
        for src, tgt, a in zip(path, path[1:], names)
    ]
    sources = ["l0", "lp", *mids]
    for _ in range(rng.randint(2, 5)):
        guard = tuple(
            Atom(rng.randrange(n_clocks), rng.choice(("<", "<=", "=", ">=", ">")), rng.randint(0, 2))
            for _ in range(rng.randint(0, 2))
        )
        resets = frozenset(i for i in range(n_clocks) if rng.random() < 0.3)
        action = by_name[rng.choice(("u", *names))]
        edges.append(Edge(rng.choice(sources), guard, action, resets, rng.choice(locations)))
    invariants = {
        loc: (Atom(rng.randrange(n_clocks), "<=", rng.randint(1, 2)),)
        for loc in sources
        if rng.random() < 0.3
    }
    ta = TimedAutomaton(
        name=name,
        actions=actions,
        locations=tuple(locations),
        invariants=invariants,
        init="l0",
        private="lp",
        finals=frozenset({"lf"}),
        clocks=clocks,
        edges=tuple(edges),
    )
    ta = make_finals_urgent(ta)
    assert validate(ta) == []
    return ta


def mortal_ta() -> TimedAutomaton:
    """One-shot automaton: the initial location's invariant kills every run
    at time 1, so beliefs go dead afterwards."""
    ta = TimedAutomaton(
        name="mortal",
        actions=(Action("a", CONTROLLABLE), Action("u", UNCONTROLLABLE)),
        locations=("l0", "lp", "lf"),
        invariants={"l0": (Atom(0, "<=", 1),)},
        init="l0",
        private="lp",
        finals=frozenset({"lf"}),
        clocks=(Clock(0, "x"),),
        edges=(Edge("l0", (Atom(0, "<", 1),), Action("a", CONTROLLABLE), frozenset(), "lf"),),
    )
    return make_finals_urgent(ta)


def random_metastrategy(rng: random.Random, controllable: frozenset[str]) -> MetaStrategy:
    names = sorted(controllable)

    def subset() -> frozenset[str]:
        return frozenset(n for n in names if rng.random() < 0.5)

    def plan() -> UnitPlan:
        return UnitPlan(subset(), tuple(subset() for _ in range(rng.randint(1, 2))))

    stem = tuple(plan() for _ in range(rng.randint(0, 2)))
    loop = tuple(plan() for _ in range(rng.randint(1, 2)))
    return MetaStrategy(stem, loop)
