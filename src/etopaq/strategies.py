"""Meta-strategies and the controlled walk over their time buckets.

A meta-strategy fixes the choice at every integer instant and the *order* of
finitely many choices inside each open unit interval, without fixing when
the switches happen; it is eventually periodic (stem + loop) by
construction.  `walk_buckets` follows its choices over sets of region ids
and folds the sets into point and interval buckets; `encountered_beliefs`
runs that walk with the belief successor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .beliefs import Belief, BeliefSpace
from .ta import TimedAutomaton

Label = tuple[str, frozenset[str]]  # (tick, enabled)


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


# --- the controlled walk -------------------------------------------------------


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

    buckets: tuple[tuple[Bucket, Belief | frozenset[int]], ...]  # the oracle's: frozensets
    cycle_start: int  # unit index where the periodic tail begins
    cycle_period: int


def walk_buckets(
    phi: MetaStrategy,
    start: Belief | frozenset[int],
    step: Callable[[Belief | frozenset[int], str, frozenset[str]], Belief | frozenset[int]],
) -> BucketedBeliefs:
    """The controlled walk under ``phi`` over sets of region ids, from
    ``start``, the set at point 0.  Each unit k steps by ``step(set, tick,
    enabled)`` through its choices: '1' into the interval, '0+' per further
    interval choice, '1' onto point k+1.  An interval's bucket gets the union
    of the sets inside it.  Once the (lasso position, point set) pair
    repeats, the walk lists one unit more and stops: the buckets cover a
    full period and both neighbour intervals of each of its points.  That
    unit is the period's first again (same plan, same set, and a
    deterministic ``step``), so its buckets are copied, not stepped."""
    buckets = [(Bucket("point", 0), start)]
    seen: dict[tuple[int, Belief | frozenset[int]], int] = {}
    cur, k = start, 0
    while (key := (phi.lasso_pos(k), cur)) not in seen:
        seen[key] = k
        choices = phi.interval(k)
        cur = union = step(cur, "1", choices[0])
        for enabled in choices[1:]:
            cur = step(cur, "0+", enabled)
            union = union | cur
        cur = step(cur, "1", phi.point(k + 1))
        buckets += ((Bucket("interval", k), union), (Bucket("point", k + 1), cur))
        k += 1
    cycle_start = seen[key]
    (_, union), (_, cur) = buckets[2 * cycle_start + 1 : 2 * cycle_start + 3]
    buckets += ((Bucket("interval", k), union), (Bucket("point", k + 1), cur))
    return BucketedBeliefs(tuple(buckets), cycle_start, k - cycle_start)


def encountered_beliefs(space: BeliefSpace, phi: MetaStrategy) -> BucketedBeliefs:
    """Beliefs per time bucket under ``phi``: the belief at each integer
    point, and the union of beliefs across each open interval, walked by
    `walk_buckets` with the belief successor."""
    return walk_buckets(phi, space.initial(phi.point(0)), space.successor)
