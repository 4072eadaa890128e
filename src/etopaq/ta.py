"""Timed automata: syntax, concrete semantics, runs, and structural transforms.

Everything here is an immutable value; all time arithmetic is exact
(`fractions.Fraction`), never floating point.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
    is_tick: bool = False


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
    invariants: Mapping[str, Guard]
    init: str
    private: str
    finals: frozenset[str]
    clocks: tuple[Clock, ...]
    edges: tuple[Edge, ...]
    has_tick_clock: bool = False
    is_duplicated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "invariants", MappingProxyType(dict(self.invariants)))

    def invariant(self, location: str) -> Guard:
        return self.invariants.get(location, ())

    def clock_named(self, name: str) -> Clock:
        for c in self.clocks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def controllable(self) -> frozenset[str]:
        return frozenset(a.name for a in self.actions if a.kind == CONTROLLABLE)

    @property
    def uncontrollable(self) -> frozenset[str]:
        return frozenset(a.name for a in self.actions if a.kind == UNCONTROLLABLE)

    def zero_valuation(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(0) for _ in self.clocks)


@dataclass(frozen=True, slots=True)
class Violation:
    rule: str
    subject: str
    detail: str = ""


def _is_tick_self_loop(ta: TimedAutomaton, e: Edge) -> bool:
    if not ta.has_tick_clock:
        return False
    z = ta.clock_named(TICK_CLOCK).index
    return (
        e.source == e.target
        and e.action.kind == SILENT_KIND
        and e.guard == (Atom(z, "=", 1),)
        and e.resets == frozenset({z})
    )


def validate(ta: TimedAutomaton) -> list[Violation]:
    """Well-formedness plus the urgent-final requirement.

    Finals must have no outgoing edges (tick self-loops excepted on augmented
    automata) and be urgent: some clock is reset on every edge into a final
    and pinned to 0 by the final's invariant.
    """
    out: list[Violation] = []
    locs = set(ta.locations)
    names = [c.name for c in ta.clocks]
    if len(set(names)) != len(names):
        out.append(Violation("duplicate-clock-name", ta.name))
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
    for a in ta.actions:
        if a.kind == SILENT_KIND:
            out.append(Violation("silent-in-alphabet", a.name))
    for loc, inv in ta.invariants.items():
        if loc not in locs:
            out.append(Violation("invariant-on-unknown-location", loc))
        for atom in inv:
            if atom.clock >= len(ta.clocks):
                out.append(Violation("invariant-unknown-clock", loc))
    for e in ta.edges:
        where = f"{e.source}->{e.target}"
        if e.source not in locs or e.target not in locs:
            out.append(Violation("edge-unknown-location", where))
            continue
        if any(r >= len(ta.clocks) for r in e.resets):
            out.append(Violation("edge-unknown-reset", where))
        for atom in e.guard:
            if atom.clock >= len(ta.clocks):
                out.append(Violation("edge-unknown-clock", where))
        if e.source in ta.finals and not _is_tick_self_loop(ta, e):
            out.append(Violation("final-has-outgoing", where))
    out.extend(_check_final_urgency(ta))
    if ta.has_tick_clock:
        out.extend(_check_tick_shape(ta))
    return out


def _check_final_urgency(ta: TimedAutomaton) -> list[Violation]:
    if not ta.finals:
        return []
    # tick self-loops pass no time, so they need not witness urgency
    incoming = [
        e
        for e in ta.edges
        if e.target in ta.finals and not _is_tick_self_loop(ta, e)
    ]
    for c in ta.clocks:
        pinned = all(
            Atom(c.index, "=", 0) in ta.invariant(f) for f in ta.finals
        )
        if pinned and all(c.index in e.resets for e in incoming):
            return []
    return [Violation("final-not-urgent", ",".join(sorted(ta.finals)))]


def _check_tick_shape(ta: TimedAutomaton) -> list[Violation]:
    out: list[Violation] = []
    z = ta.clock_named(TICK_CLOCK).index
    for loc in ta.locations:
        if Atom(z, "<=", 1) not in ta.invariant(loc):
            out.append(Violation("tick-invariant-missing", loc))
        if not any(
            e.source == loc and _is_tick_self_loop(ta, e) for e in ta.edges
        ):
            out.append(Violation("tick-loop-missing", loc))
    return out


def make_finals_urgent(ta: TimedAutomaton, clock_name: str = "w") -> TimedAutomaton:
    """Adds a fresh clock, reset on every edge into a final and pinned to 0
    by each final's invariant, so that time cannot elapse in final locations.
    """
    if any(c.name == clock_name for c in ta.clocks):
        raise ValueError(f"clock {clock_name!r} already declared")
    idx = len(ta.clocks)
    clocks = ta.clocks + (Clock(idx, clock_name),)
    edges = tuple(
        replace(e, resets=e.resets | {idx}) if e.target in ta.finals else e
        for e in ta.edges
    )
    invariants = dict(ta.invariants)
    for f in ta.finals:
        invariants[f] = invariants.get(f, ()) + (Atom(idx, "=", 0),)
    return replace(ta, clocks=clocks, edges=edges, invariants=invariants)


def add_tick_clock(ta: TimedAutomaton) -> TimedAutomaton:
    """Adds the tick clock: ``z <= 1`` on every invariant and a silent
    self-loop resetting z at ``z = 1`` on every location, so z always equals
    the fractional part of absolute time.
    """
    if ta.has_tick_clock:
        raise ValueError("automaton already has a tick clock")
    if any(c.name == TICK_CLOCK for c in ta.clocks):
        raise ValueError(f"clock name {TICK_CLOCK!r} is reserved")
    z = len(ta.clocks)
    clocks = ta.clocks + (Clock(z, TICK_CLOCK, is_tick=True),)
    invariants = {
        loc: ta.invariant(loc) + (Atom(z, "<=", 1),) for loc in ta.locations
    }
    loops = tuple(
        Edge(loc, (Atom(z, "=", 1),), SILENT, frozenset({z}), loc)
        for loc in ta.locations
    )
    return replace(
        ta,
        clocks=clocks,
        invariants=invariants,
        edges=ta.edges + loops,
        has_tick_clock=True,
    )


def duplicate(ta: TimedAutomaton) -> TimedAutomaton:
    """Duplicated automaton: a primed copy entered on leaving the private
    location, so visiting it is readable off the final location reached.
    """
    if ta.is_duplicated:
        raise ValueError("automaton already duplicated")
    pub = [l for l in ta.locations if l != ta.private]
    priv = [prime(l) for l in ta.locations] + [ta.private]
    locations = tuple(pub) + tuple(priv)
    finals = ta.finals | {prime(f) for f in ta.finals}
    invariants: dict[str, Guard] = {}
    for loc in ta.locations:
        invariants[loc] = ta.invariant(loc)
        invariants[prime(loc)] = ta.invariant(loc)
    edges: list[Edge] = []
    for e in ta.edges:
        if e.source != ta.private:
            edges.append(e)
    for e in ta.edges:
        edges.append(replace(e, source=prime(e.source), target=prime(e.target)))
    for e in ta.edges:
        if e.source == ta.private:
            edges.append(replace(e, target=prime(e.target)))
    return replace(
        ta,
        locations=locations,
        finals=frozenset(finals),
        invariants=invariants,
        edges=tuple(edges),
        is_duplicated=True,
    )


def prepare(ta: TimedAutomaton) -> TimedAutomaton:
    """Validation, duplication, then tick-clock augmentation.

    The tick clock is added to the duplicated automaton: its self-loop must
    stay on the private location rather than being redirected to the primed
    copy like an ordinary outgoing edge.
    """
    problems = validate(ta)
    if problems:
        raise ValueError(f"invalid automaton: {problems}")
    return add_tick_clock(duplicate(ta))


# --- concrete semantics ---------------------------------------------------

State = tuple[str, tuple[Fraction, ...]]


class StepError(ValueError):
    def __init__(self, message: str, atom: Atom | None = None):
        super().__init__(message)
        self.atom = atom


def initial_state(ta: TimedAutomaton) -> State:
    return (ta.init, ta.zero_valuation())


def invariant_holds(ta: TimedAutomaton, loc: str, vals: Sequence[Fraction]) -> Atom | None:
    """Returns the first violated invariant atom, or None."""
    for atom in ta.invariant(loc):
        if not atom.holds(vals[atom.clock]):
            return atom
    return None


def step_delay(ta: TimedAutomaton, state: State, d: Fraction) -> State:
    """Lets ``d`` time units pass; the invariant must hold along the way.

    Clock values grow monotonically, so upper-bound atoms are checked at the
    end, lower-bound atoms at the start, and equalities at both.
    """
    if d < 0:
        raise StepError("negative delay")
    loc, vals = state
    after = tuple(v + d for v in vals)
    for atom in ta.invariant(loc):
        check_start = atom.rel in (">", ">=", "=")
        check_end = atom.rel in ("<", "<=", "=")
        if check_start and not atom.holds(vals[atom.clock]):
            raise StepError("invariant violated during delay", atom)
        if check_end and not atom.holds(after[atom.clock]):
            raise StepError("invariant violated during delay", atom)
    return (loc, after)


def step_discrete(ta: TimedAutomaton, state: State, edge: Edge) -> State:
    loc, vals = state
    if edge.source != loc:
        raise StepError(f"edge leaves {edge.source}, state is at {loc}")
    for atom in edge.guard:
        if not atom.holds(vals[atom.clock]):
            raise StepError("guard not satisfied", atom)
    after = tuple(
        Fraction(0) if i in edge.resets else v for i, v in enumerate(vals)
    )
    bad = invariant_holds(ta, edge.target, after)
    if bad is not None:
        raise StepError("target invariant violated", bad)
    return (edge.target, after)


@dataclass(frozen=True, slots=True)
class TimedRun:
    """Alternating states and (delay, edge) moves, starting at (init, 0)."""

    states: tuple[State, ...]
    moves: tuple[tuple[Fraction, Edge], ...]

    @property
    def duration(self) -> Fraction:
        return sum((d for d, _ in self.moves), Fraction(0))

    @property
    def last(self) -> State:
        return self.states[-1]

    def prefix(self, n_moves: int) -> "TimedRun":
        return TimedRun(self.states[: n_moves + 1], self.moves[:n_moves])


def build_run(ta: TimedAutomaton, moves: Iterable[tuple[Fraction | int, Edge]]) -> TimedRun:
    """Checks each move against the semantics and assembles the run."""
    states = [initial_state(ta)]
    taken: list[tuple[Fraction, Edge]] = []
    for d, e in moves:
        d = Fraction(d)
        mid = step_delay(ta, states[-1], d)
        states.append(step_discrete(ta, mid, e))
        taken.append((d, e))
    return TimedRun(tuple(states), tuple(taken))


def validate_run(ta: TimedAutomaton, run: TimedRun) -> bool:
    if run.states[0] != initial_state(ta):
        return False
    try:
        rebuilt = build_run(ta, run.moves)
    except StepError:
        return False
    return rebuilt.states == run.states


def classify_run(ta_dup: TimedAutomaton, run: TimedRun) -> tuple[str, Fraction]:
    """'private' / 'public' / 'neither' for a legal run of the duplicated
    automaton, plus its duration.
    """
    if not ta_dup.is_duplicated:
        raise ValueError("classification needs the duplicated automaton")
    if not validate_run(ta_dup, run):
        raise ValueError("run is not legal in this automaton")
    loc = run.last[0]
    if loc in ta_dup.finals:
        kind = "private" if is_primed(loc) else "public"
    else:
        kind = "neither"
    return kind, run.duration
