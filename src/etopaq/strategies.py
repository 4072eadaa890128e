"""Strategies and meta-strategies.

A concrete strategy is a piecewise-constant map from time to enabled
controllable actions.  A meta-strategy fixes the choice at every integer
instant and the *order* of finitely many choices inside each open unit
interval, without fixing when the switches happen; it is eventually periodic
(stem + loop) by construction.  The choice schedule of a meta-strategy is the
label sequence its controlled belief automaton follows; `next_choice` yields
it one label at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .beliefs import BOTTOM, Belief, BeliefSpace
from .ta import SILENT_KIND, UNCONTROLLABLE, TimedAutomaton, TimedRun

Label = tuple[str, frozenset[str]]  # (tick, enabled)


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


# --- meta-strategies ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UnitPlan:
    """Choices for one time unit: one set at the integer point, a nonempty
    ordered list of sets across the following open interval."""

    at_point: frozenset[str]
    in_interval: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if not self.in_interval:
            raise ValueError("interval choice list must be nonempty")


@dataclass(frozen=True, slots=True)
class MetaStrategy:
    stem: tuple[UnitPlan, ...]
    loop: tuple[UnitPlan, ...]

    def __post_init__(self) -> None:
        if not self.loop:
            raise ValueError("loop must be nonempty")

    def lasso_pos(self, k: int) -> int:
        if k < len(self.stem):
            return k
        return len(self.stem) + (k - len(self.stem)) % len(self.loop)

    def plan(self, k: int) -> UnitPlan:
        if k < len(self.stem):
            return self.stem[k]
        return self.loop[(k - len(self.stem)) % len(self.loop)]

    def point(self, k: int) -> frozenset[str]:
        return self.plan(k).at_point

    def interval(self, k: int) -> tuple[frozenset[str], ...]:
        return self.plan(k).in_interval


def all_enabled(ta: TimedAutomaton) -> MetaStrategy:
    full = frozenset(ta.controllable)
    return MetaStrategy(stem=(), loop=(UnitPlan(full, (full,)),))


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


def meta_of(sigma: ConcreteStrategy) -> MetaStrategy:
    """The unique meta-strategy the piecewise strategy satisfies, folded into
    the shortest lasso visible within the horizon."""
    horizon = int(sigma.horizon)
    if horizon < 1 or sigma.horizon != horizon:
        raise ValueError("strategy horizon must be a positive integer")
    units = [
        UnitPlan(sigma.at(Fraction(k)), tuple(_interval_values(sigma, k)))
        for k in range(horizon)
    ]
    candidates = []
    for period in range(1, horizon + 1):
        for start in range(0, horizon - period + 1):
            tail = units[start:]
            if all(tail[i] == tail[i % period] for i in range(len(tail))):
                candidates.append((start + period, period, start))
    total, period, start = min(candidates)
    return MetaStrategy(tuple(units[:start]), tuple(units[start : start + period]))


# --- controlled belief automaton ---------------------------------------------


def controlled_successor(
    space: BeliefSpace, state: tuple[tuple[Label, ...], object], phi: MetaStrategy
) -> tuple[tuple[Label, ...], object]:
    """The unique next state of the belief automaton controlled by ``phi``."""
    v, belief = state
    tick, enabled = next_choice(phi, v)
    return (v + ((tick, enabled),), space.successor(belief, tick, enabled))


@dataclass(frozen=True, slots=True)
class Bucket:
    """A point [k,k] or the open interval (k,k+1)."""

    kind: str  # 'point' | 'interval'
    k: int

    def __str__(self) -> str:
        if self.kind == "point":
            return f"[{self.k},{self.k}]"
        return f"({self.k},{self.k + 1})"


@dataclass(frozen=True)
class BucketedBeliefs:
    """The sets of a controlled walk per bucket, in time order."""

    buckets: tuple[tuple[Bucket, Belief], ...]
    cycle_start: int  # unit index where the periodic tail begins
    cycle_period: int


def walk_buckets(
    phi: MetaStrategy,
    start: frozenset,
    step: Callable[[frozenset, str, frozenset[str]], frozenset],
    extra_units: int = 1,
) -> BucketedBeliefs:
    """The controlled walk under ``phi`` over sets of region ids, from
    ``start``, the set at point 0.  Each unit k steps by ``step(set, tick,
    enabled)`` through its choices: '1' into the interval, '0+' per further
    interval choice, '1' onto point k+1.  An interval's bucket gets the union
    of the sets inside it.  The walk stops once the (lasso position, point
    set) pair repeats; the buckets then cover at least one full period plus
    ``extra_units`` units past it for neighbour lookups."""
    buckets = [(Bucket("point", 0), start)]

    def unit(k: int, cur: frozenset) -> frozenset:
        choices = phi.interval(k)
        cur = union = step(cur, "1", choices[0])
        for enabled in choices[1:]:
            cur = step(cur, "0+", enabled)
            union = union | cur
        cur = step(cur, "1", phi.point(k + 1))
        buckets.extend(((Bucket("interval", k), union), (Bucket("point", k + 1), cur)))
        return cur

    seen: dict[tuple[int, frozenset], int] = {}
    cur, k = start, 0
    while (key := (phi.lasso_pos(k), cur)) not in seen:
        seen[key] = k
        cur = unit(k, cur)
        k += 1
    cycle_start = seen[key]
    for j in range(k, k + extra_units):
        cur = unit(j, cur)
    return BucketedBeliefs(tuple(buckets), cycle_start, k - cycle_start)


def encountered_beliefs(
    space: BeliefSpace, phi: MetaStrategy, extra_units: int = 1
) -> BucketedBeliefs:
    """Beliefs per time bucket under ``phi``: the belief at each integer
    point, and the union of beliefs across each open interval, walked by
    `walk_buckets` with the belief successor."""
    return walk_buckets(phi, space.initial(phi.point(0)), space.successor, extra_units)


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
    last_region = space.ctx.region_of(run.last[0], run.last[1])
    state: tuple[tuple[Label, ...], object] = ((), BOTTOM)
    for _ in range(labels_for_units(phi, int(run.duration) + 2)):
        state = controlled_successor(space, state, phi)
        v, belief = state
        if last_region in space.regions_of(belief) and run_admits(run, v, ta):
            return True
    return False
