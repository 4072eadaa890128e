"""Seeded generator of benchmark inputs: random timed automata, written as
`.ta` text, and random meta-strategies.

The program under test only ever sees the text this module writes; every
automaton is round-trip checked through `taformat.parse` before use.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from etopaq import taformat
from etopaq.strategies import MetaStrategy, UnitPlan
from etopaq.ta import (
    CONTROLLABLE,
    RELATIONS,
    SILENT,
    UNCONTROLLABLE,
    Action,
    Atom,
    Clock,
    Edge,
    TimedAutomaton,
    make_finals_urgent,
    validate,
)

SILENT_SHARE = 0.15
RESET_SHARE = 0.3
INVARIANT_SHARE = 0.4


@dataclass(frozen=True)
class Knobs:
    """Size of one random automaton, before the urgency repair adds the
    clock `w`."""

    locations: int  # init, private and final included
    clocks: int
    max_constant: int
    controllable: int
    edges: int


@dataclass(frozen=True)
class StrategyKnobs:
    max_stem: int
    max_loop: int
    max_choices: int  # enabled sets per open interval


def random_ta(rng: random.Random, knobs: Knobs, name: str) -> TimedAutomaton:
    if knobs.locations < 3 or knobs.clocks < 1 or knobs.controllable < 1:
        raise ValueError(f"knobs too small: {knobs}")
    locations = ["l0", "lp", "lf"] + [f"m{i}" for i in range(knobs.locations - 3)]
    clocks = tuple(Clock(i, f"c{i}") for i in range(knobs.clocks))
    actions = (Action("u", UNCONTROLLABLE),) + tuple(
        Action(f"a{i}", CONTROLLABLE) for i in range(knobs.controllable)
    )
    sources = [l for l in locations if l != "lf"]

    def atom(rel: str | None = None, low: int = 0) -> Atom:
        return Atom(
            rng.randrange(knobs.clocks),
            rel or rng.choice(RELATIONS),
            rng.randint(low, knobs.max_constant),
        )

    edges = []
    for _ in range(knobs.edges):
        src, tgt = rng.choice(sources), rng.choice(locations)
        guard = tuple(atom() for _ in range(rng.randint(0, 2)))
        resets = frozenset(i for i in range(knobs.clocks) if rng.random() < RESET_SHARE)
        action = SILENT if rng.random() < SILENT_SHARE else rng.choice(actions)
        edges.append(Edge(src, guard, action, resets, tgt))
    invariants = {
        loc: (atom("<=", 1),) for loc in sources if rng.random() < INVARIANT_SHARE
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
    problems = validate(ta)
    if problems:
        raise ValueError(f"generator produced an invalid automaton: {problems}")
    return ta


def ta_text(ta: TimedAutomaton) -> str:
    """`.ta` text of the automaton, checked to parse back to itself."""
    text = taformat.dump(ta)
    if taformat.dump(taformat.parse(text)) != text:
        raise ValueError(f"{ta.name}: .ta text does not round-trip")
    return text


def random_metastrategy(
    rng: random.Random, controllable: list[str], knobs: StrategyKnobs
) -> MetaStrategy:
    def subset() -> frozenset[str]:
        return frozenset(n for n in controllable if rng.random() < 0.5)

    def plan() -> UnitPlan:
        return UnitPlan(
            subset(), tuple(subset() for _ in range(rng.randint(1, knobs.max_choices)))
        )

    stem = tuple(plan() for _ in range(rng.randint(0, knobs.max_stem)))
    loop = tuple(plan() for _ in range(rng.randint(1, knobs.max_loop)))
    return MetaStrategy(stem, loop)


def automata(seed: int, knobs: Knobs, count: int, prefix: str) -> list[tuple[str, str]]:
    """`count` (name, .ta text) pairs drawn from `seed`."""
    rng = random.Random(f"{prefix}:{seed}")
    out = []
    for i in range(count):
        name = f"{prefix}{i:04d}"
        out.append((name, ta_text(random_ta(rng, knobs, name))))
    return out
