"""Timed automata: syntax, validation, and the transform that prepares an
automaton for the region and belief layers.

Everything here is an immutable value.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cached_property
from itertools import count
from types import MappingProxyType
from typing import Mapping

RELATIONS = ("<", "<=", "=", ">=", ">")

TICK_CLOCK = "z"
PRIME_SUFFIX = "^p"

CONTROLLABLE = "controllable"
UNCONTROLLABLE = "uncontrollable"
SILENT_KIND = "silent"


@dataclass(frozen=True, slots=True)
class Clock:
    index: int
    name: str


@dataclass(frozen=True, slots=True)
class Atom:
    """One conjunct ``clock <rel> bound`` of a guard or invariant."""

    clock: int
    rel: str
    bound: int

    def __post_init__(self) -> None:
        if self.rel not in RELATIONS:
            raise ValueError(f"bad relation {self.rel!r}")
        if self.bound < 0:
            raise ValueError("clock bounds must be nonnegative")

    def holds(self, value: Fraction) -> bool:
        if self.rel == "<":
            return value < self.bound
        if self.rel == "<=":
            return value <= self.bound
        if self.rel == "=":
            return value == self.bound
        if self.rel == ">=":
            return value >= self.bound
        return value > self.bound


Guard = tuple[Atom, ...]


@dataclass(frozen=True, slots=True)
class Action:
    name: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (CONTROLLABLE, UNCONTROLLABLE, SILENT_KIND):
            raise ValueError(f"bad action kind {self.kind!r}")


SILENT = Action("~", SILENT_KIND)


@dataclass(frozen=True, slots=True)
class Edge:
    source: str
    guard: Guard
    action: Action
    resets: frozenset[int]
    target: str


def prime(location: str) -> str:
    return location + PRIME_SUFFIX


def is_primed(location: str) -> bool:
    return location.endswith(PRIME_SUFFIX)


@dataclass(frozen=True)
class TimedAutomaton:
    name: str
    actions: tuple[Action, ...]
    locations: tuple[str, ...]
    invariants: Mapping[str, Guard] = field(hash=False)  # a read-only view, so left out of the hash
    init: str
    private: str
    finals: frozenset[str]
    clocks: tuple[Clock, ...]
    edges: tuple[Edge, ...]
    prepared: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "invariants", MappingProxyType(dict(self.invariants)))

    def __reduce__(self):
        # a read-only view cannot be pickled: rebuild from the fields, invariants as a dict
        return type(self), tuple(
            dict(self.invariants) if f.name == "invariants" else getattr(self, f.name)
            for f in fields(self)
        )

    def invariant(self, location: str) -> Guard:
        return self.invariants.get(location, ())

    # the value is immutable, so what is derived from it is computed once
    @cached_property
    def controllable(self) -> frozenset[str]:
        return frozenset(a.name for a in self.actions if a.kind == CONTROLLABLE)

    @cached_property
    def uncontrollable(self) -> frozenset[str]:
        return frozenset(a.name for a in self.actions if a.kind == UNCONTROLLABLE)

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(_check(self))


@dataclass(frozen=True, slots=True)
class Violation:
    rule: str
    subject: str
    detail: str = ""


def validate(ta: TimedAutomaton) -> list[Violation]:
    """Why `prepare` cannot take ``ta``: well-formedness plus the
    urgent-final requirement.

    Finals must have no outgoing edges and be urgent: some clock is reset on
    every edge into a final and pinned to 0 by the final's invariant.  No
    location name may end in the prime suffix, which marks the primed copy
    `prepare` makes, and no clock may take the name of the tick clock it
    adds; so a prepared automaton does not validate, and `prepare` does not
    take it twice.  The violations are found once per automaton value; each
    call returns a fresh list of them.
    """
    return list(ta._violations)


def _check(ta: TimedAutomaton) -> list[Violation]:
    out: list[Violation] = []
    locs = set(ta.locations)
    names = [c.name for c in ta.clocks]
    if len(set(names)) != len(names):
        out.append(Violation("duplicate-clock-name", ta.name))
    if TICK_CLOCK in names:
        out.append(Violation("reserved-clock-name", TICK_CLOCK))
    if len(set(ta.locations)) != len(ta.locations):
        out.append(Violation("duplicate-location-name", ta.name))
    for i, c in enumerate(ta.clocks):
        if c.index != i:
            out.append(Violation("clock-index-gap", c.name))
    if ta.init not in locs:
        out.append(Violation("missing-init", ta.init))
    if ta.private not in locs:
        out.append(Violation("missing-private", ta.private))
    if ta.private in ta.finals:
        out.append(Violation("private-is-final", ta.private))
    for f in ta.finals:
        if f not in locs:
            out.append(Violation("missing-final", f))
    for loc in ta.locations:
        if is_primed(loc):
            out.append(Violation("reserved-location-suffix", loc))
    for a in ta.actions:
        if a.kind == SILENT_KIND:
            out.append(Violation("silent-in-alphabet", a.name))
    kinds = {SILENT.name: SILENT_KIND, **{a.name: a.kind for a in ta.actions}}
    if len(kinds) <= len(ta.actions):  # a name declared twice, or the silent action's
        out.append(Violation("duplicate-action-name", ta.name))
    for loc, inv in ta.invariants.items():
        if loc not in locs:
            out.append(Violation("invariant-on-unknown-location", loc))
        for atom in inv:
            if atom.clock >= len(ta.clocks):
                out.append(Violation("invariant-unknown-clock", loc))
    for e in ta.edges:
        where = f"{e.source}->{e.target}"
        if kinds.get(e.action.name) != e.action.kind:
            out.append(Violation("edge-unknown-action", where, e.action.name))
        if e.source not in locs or e.target not in locs:
            out.append(Violation("edge-unknown-location", where))
            continue
        if any(r >= len(ta.clocks) for r in e.resets):
            out.append(Violation("edge-unknown-reset", where))
        for atom in e.guard:
            if atom.clock >= len(ta.clocks):
                out.append(Violation("edge-unknown-clock", where))
        if e.source in ta.finals:
            out.append(Violation("final-has-outgoing", where))
    out.extend(_check_final_urgency(ta))
    return out


def _check_final_urgency(ta: TimedAutomaton) -> list[Violation]:
    if not ta.finals:
        return []
    urgent = {c.index for c in ta.clocks}  # pinned to 0 in every final, reset into it
    for f in ta.finals:
        urgent.intersection_update(
            a.clock for a in ta.invariant(f) if a.rel == "=" and a.bound == 0
        )
    for e in ta.edges:
        if e.target in ta.finals:
            urgent &= e.resets
    if urgent:
        return []
    return [Violation("final-not-urgent", ",".join(sorted(ta.finals)))]


def make_finals_urgent(ta: TimedAutomaton) -> TimedAutomaton:
    """Adds a fresh clock, the first of ``w``, ``w1``, ``w2``, ... that the
    automaton does not declare, reset on every edge into a final and pinned
    to 0 by each final's invariant, so that time cannot elapse in final
    locations.
    """
    taken = {c.name for c in ta.clocks}
    name = next(n for n in (f"w{k}" if k else "w" for k in count()) if n not in taken)
    idx = len(ta.clocks)
    clocks = ta.clocks + (Clock(idx, name),)
    edges = tuple(
        Edge(e.source, e.guard, e.action, e.resets | {idx}, e.target)
        if e.target in ta.finals else e
        for e in ta.edges
    )
    invariants = dict(ta.invariants)
    for f in ta.finals:
        invariants[f] = invariants.get(f, ()) + (Atom(idx, "=", 0),)
    return replace(ta, clocks=clocks, edges=edges, invariants=invariants)


def prepare(ta: TimedAutomaton) -> TimedAutomaton:
    """The automaton the region and belief layers read, built in one pass.

    A primed copy of every location, entered on leaving the private
    location, so that a visit to it is readable off the final location
    reached; and the tick clock z, added last: ``z <= 1`` on every invariant
    and a silent self-loop resetting z at ``z = 1`` on every location, so z
    always equals the fractional part of absolute time.  The private
    location's self-loop stays on it, not redirected into the primed copy
    like its other outgoing edges.  An automaton already validated is not
    checked again: its violations are kept on the value.
    """
    problems = validate(ta)
    if problems:
        raise ValueError(f"invalid automaton: {problems}")
    pub = tuple(loc for loc in ta.locations if loc != ta.private)
    locations = pub + tuple(prime(loc) for loc in ta.locations) + (ta.private,)
    z = len(ta.clocks)
    # immutable values, so every location shares one of each
    bound, guard, reset = (Atom(z, "<=", 1),), (Atom(z, "=", 1),), frozenset({z})
    edges = [e for e in ta.edges if e.source != ta.private]
    edges += [Edge(prime(e.source), e.guard, e.action, e.resets, prime(e.target))
              for e in ta.edges]
    edges += [Edge(e.source, e.guard, e.action, e.resets, prime(e.target))
              for e in ta.edges if e.source == ta.private]
    edges += [Edge(loc, guard, SILENT, reset, loc) for loc in locations]
    return replace(
        ta,
        locations=locations,
        finals=ta.finals | {prime(f) for f in ta.finals},
        # no name of ``ta`` ends in the suffix, so stripping it finds the original
        invariants={loc: ta.invariant(loc.removesuffix(PRIME_SUFFIX)) + bound
                    for loc in locations},
        clocks=ta.clocks + (Clock(z, TICK_CLOCK),),
        edges=tuple(edges),
        prepared=True,
    )
