"""The concrete semantics, kept as the reference the belief layer is
checked against: timed runs and their legality, piecewise-constant
strategies and their satisfaction of a meta-strategy, the choice schedule a
meta-strategy spells one label at a time, run admission by a label
sequence, and feasibility.  The decision procedure never runs any of this;
the acceptance and cross-check tests compare beliefs, buckets and the
oracle against it.

All time arithmetic is exact (`fractions.Fraction`), never floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from etopaq.beliefs import BOTTOM, BeliefSpace
from etopaq.strategies import Label, MetaStrategy, UnitPlan
from etopaq.ta import (
    SILENT_KIND,
    UNCONTROLLABLE,
    Atom,
    Edge,
    TimedAutomaton,
    is_primed,
)


# --- concrete semantics ---------------------------------------------------

State = tuple[str, tuple[Fraction, ...]]


class StepError(ValueError):
    def __init__(self, message: str, atom: Atom | None = None):
        super().__init__(message)
        self.atom = atom


def initial_state(ta: TimedAutomaton) -> State:
    return (ta.init, tuple(Fraction(0) for _ in ta.clocks))


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


# --- concrete strategies ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class Piece:
    lo: Fraction
    lo_open: bool
    hi: Fraction
    hi_open: bool
    enabled: frozenset[str]

    def contains(self, t: Fraction) -> bool:
        if t < self.lo or (t == self.lo and self.lo_open):
            return False
        if t > self.hi or (t == self.hi and self.hi_open):
            return False
        return True


@dataclass(frozen=True, slots=True)
class ConcreteStrategy:
    """Consecutive pieces partitioning [0, horizon)."""

    pieces: tuple[Piece, ...]

    @property
    def horizon(self) -> Fraction:
        return self.pieces[-1].hi

    def at(self, t: Fraction) -> frozenset[str]:
        for p in self.pieces:
            if p.contains(t):
                return p.enabled
        raise ValueError(f"time {t} beyond strategy horizon")


def sigma_compatible(run: TimedRun, sigma: ConcreteStrategy) -> bool:
    """Every discrete step is silent, uncontrollable, or enabled by the
    strategy at the absolute time the edge fires."""
    now = Fraction(0)
    for d, e in run.moves:
        now += d
        if e.action.kind in (SILENT_KIND, UNCONTROLLABLE):
            continue
        if e.action.name not in sigma.at(now):
            return False
    return True


# --- the choice schedule -----------------------------------------------------


def nothing_enabled() -> MetaStrategy:
    empty: frozenset[str] = frozenset()
    return MetaStrategy(stem=(), loop=(UnitPlan(empty, (empty,)),))


def next_choice(phi: MetaStrategy, v: Sequence[Label]) -> Label:
    """The choice the meta-strategy makes after the prefix ``v``.

    Counting 2k + k' tick-1 labels in v: with k' = 0 the unit's interval
    opens; with k' = 1 the interval has already emitted its opening choice
    plus the trailing '0+' run, so either the next interval choice follows or
    the unit closes onto the next integer point.
    """
    if not v:
        return ("0", phi.point(0))
    if v[0][0] != "0" or any(t == "0" for t, _ in v[1:]):
        raise ValueError("malformed prefix: misplaced tick-0 label")
    ones = sum(1 for t, _ in v if t == "1")
    k, parity = divmod(ones, 2)
    if parity == 0:
        return ("1", phi.interval(k)[0])
    trailing = 0
    while v[-1 - trailing][0] != "1":
        trailing += 1
    emitted = trailing + 1
    m = len(phi.interval(k))
    if emitted < m:
        return ("0+", phi.interval(k)[emitted])
    if emitted == m:
        return ("1", phi.point(k + 1))
    raise ValueError("malformed prefix: too many interval choices")


def labels_for_units(phi: MetaStrategy, units: int) -> int:
    """Schedule length covering integer points 0..units and the intervals
    between them."""
    return 1 + sum(len(phi.interval(k)) + 1 for k in range(units))


# --- sampling and satisfaction ----------------------------------------------


def sample_strategy(phi: MetaStrategy, horizon: int | None = None) -> ConcreteStrategy:
    """A concrete strategy satisfying the meta-strategy, interval switch
    points spread uniformly; the first interval piece is left-open."""
    if horizon is None:
        horizon = len(phi.stem) + 2 * len(phi.loop)
    pieces: list[Piece] = []
    for k in range(horizon):
        kf = Fraction(k)
        pieces.append(Piece(kf, False, kf, False, phi.point(k)))
        choices = phi.interval(k)
        m = len(choices)
        cuts = [kf + Fraction(j, m) for j in range(m + 1)]
        for j, enabled in enumerate(choices):
            pieces.append(Piece(cuts[j], j == 0, cuts[j + 1], True, enabled))
    return ConcreteStrategy(tuple(pieces))


def _interval_values(sigma: ConcreteStrategy, k: int) -> list[frozenset[str]]:
    lo, hi = Fraction(k), Fraction(k + 1)
    vals = [
        p.enabled
        for p in sigma.pieces
        if p.lo < hi and p.hi > lo and not (p.lo == p.hi == lo) and not (p.lo == p.hi == hi)
    ]
    return vals


def _collapse(seq: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    out: list[frozenset[str]] = []
    for s in seq:
        if not out or out[-1] != s:
            out.append(s)
    return out


def satisfies(sigma: ConcreteStrategy, phi: MetaStrategy) -> bool:
    """Point choices must match exactly; inside each unit interval some
    ordered partition must realize the meta-strategy's choice sequence, which
    holds iff the two sequences agree after merging adjacent repeats."""
    horizon = int(sigma.horizon)
    if horizon < 1 or sigma.horizon != horizon:
        raise ValueError("strategy horizon must be a positive integer")
    for k in range(horizon):
        if sigma.at(Fraction(k)) != phi.point(k):
            return False
        got = _collapse(_interval_values(sigma, k))
        if got != _collapse(phi.interval(k)):
            return False
    return True


# --- controlled belief automaton ---------------------------------------------


def controlled_successor(
    space: BeliefSpace, state: tuple[tuple[Label, ...], object], phi: MetaStrategy
) -> tuple[tuple[Label, ...], object]:
    """The unique next state of the belief automaton controlled by ``phi``."""
    v, belief = state
    tick, enabled = next_choice(phi, v)
    return (v + ((tick, enabled),), space.successor(belief, tick, enabled))


# --- run admission and feasibility ---------------------------------------------


def _fract(x: Fraction) -> Fraction:
    return x - int(x)


def run_admits(run: TimedRun, v: Sequence[Label], ta: TimedAutomaton) -> bool:
    """The recursive admission relation between a run of the duplicated
    automaton and a label sequence: zero-delay steps reuse the current label,
    sub-unit delays append a tick-1 label plus a '0+' run shaped by which
    endpoints are integers, and unit delays close onto a fresh tick-1 label.
    """
    z = ta.clock_named("z").index
    unc = ta.uncontrollable
    memo: dict[tuple[int, int], bool] = {}

    def allowed(action, enabled: frozenset[str]) -> bool:
        if action.kind == SILENT_KIND:
            return True
        return action.name in unc or action.name in enabled

    def last_one(m: int, below: int) -> int:
        for p in range(below - 1, -1, -1):
            if v[p][0] == "1":
                return p
        return -1

    def admits(n: int, m: int) -> bool:
        key = (n, m)
        if key in memo:
            return memo[key]
        res = _admits(n, m)
        memo[key] = res
        return res

    def _admits(n: int, m: int) -> bool:
        if n == 0:
            return m == 1 and v[0][0] == "0"
        if m == 0:
            return False
        d, e = run.moves[n - 1]
        tick_m, enabled_m = v[m - 1]
        if not allowed(e.action, enabled_m):
            return False
        if d == 0:
            return admits(n - 1, m)
        if d == 1:
            if tick_m != "1":
                return False
            p = last_one(m, m - 1)
            if p < 0 or any(v[q][0] != "0+" for q in range(p + 1, m - 1)):
                return False
            return admits(n - 1, p)
        if d > 1:
            return False
        fz_before = _fract(run.states[n - 1][1][z])
        fz_after = _fract(run.states[n][1][z])
        if fz_before != 0 and fz_after != 0:
            if tick_m != "0+":
                return False
            p = last_one(m, m - 1)
            if p < 0 or any(v[q][0] != "0+" for q in range(p + 1, m - 1)):
                return False
            return any(admits(n - 1, q) for q in range(p + 1, m + 1))
        if fz_before == 0:
            if tick_m == "1":
                p = m - 1
            else:
                p = last_one(m, m - 1)
                if p < 0 or any(v[q][0] != "0+" for q in range(p + 1, m)):
                    return False
            return v[p][0] == "1" and admits(n - 1, p)
        # landing on an integer: the segment ends with its own tick-1 label
        if tick_m != "1":
            return False
        p = last_one(m, m - 1)
        if p < 0 or any(v[q][0] != "0+" for q in range(p + 1, m - 1)):
            return False
        return any(admits(n - 1, q) for q in range(p + 1, m))

    if not v:
        return False
    return admits(len(run.moves), len(v))


def is_feasible(
    run: TimedRun, phi: MetaStrategy, space: BeliefSpace, ta: TimedAutomaton
) -> bool:
    """Feasible: some admitted prefix of the choice schedule reaches a belief
    containing the run's final region."""
    last_region = space.ctx.id_of(*run.last)
    state: tuple[tuple[Label, ...], object] = ((), BOTTOM)
    for _ in range(labels_for_units(phi, int(run.duration) + 2)):
        state = controlled_successor(space, state, phi)
        v, belief = state
        if last_region in belief and run_admits(run, v, ta):
            return True
    return False
