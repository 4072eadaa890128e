"""Belief-free cross-check: region-level reachability per time bucket.

Drives the region graph directly along a meta-strategy's choice schedule,
never building powerset successors: a frontier of region ids is pushed
through each choice segment, recording per bucket whether a private-final or
a public-final region is ever reached.  The belief layer must agree with
these flags bucket for bucket.  Exactly three things are shared with the
belief side: the region steps (`RegionContext`, in ids), the schedule walk
with its cycle rule (`strategies.walk_buckets`, which calls this module's
step), and the verdict over the flags (`modes.bucket_verdict`).  The rest is
built here: a closure of its own, its own delay image, its own reading of
silent, uncontrollable and enabled actions, and flags from the frontier's
locations against final-location sets taken from the automaton, never from
the belief tables or the context's final-id sets.
"""
from __future__ import annotations

from dataclasses import dataclass

from .modes import Mode, bucket_verdict
from .regions import RegionContext
from .strategies import Bucket, MetaStrategy, walk_buckets
from .ta import SILENT_KIND, is_primed


@dataclass(frozen=True, slots=True)
class BucketFlags:
    bucket: Bucket
    has_private_final: bool
    has_public_final: bool


@dataclass(frozen=True)
class OracleTable:
    rows: tuple[BucketFlags, ...]
    cycle_start: int
    cycle_period: int

    def report(self) -> str:
        lines = []
        for r in self.rows:
            name = str(r.bucket.k) if r.bucket.kind == "point" else str(r.bucket)
            lines.append(
                f"{name} | priv={'true' if r.has_private_final else 'false'}"
                f" pub={'true' if r.has_public_final else 'false'}"
            )
        lines.append(
            f"# periodic from unit {self.cycle_start} with period {self.cycle_period}"
        )
        return "\n".join(lines)


def _closure(
    ctx: RegionContext, seed: set[int], enabled: frozenset[str], unc: frozenset[str]
) -> frozenset[int]:
    """``seed`` closed under silent, uncontrollable and enabled steps and
    '0+' delays.  At the initial instant the tick clock sits on 0, where no
    region has a '0+' delay, so the one closure serves there too."""
    seen = set(seed)
    todo = list(seed)
    while todo:
        i = todo.pop()
        for action, j in ctx.discrete_steps(i):
            ok = action.kind == SILENT_KIND or action.name in unc or action.name in enabled
            if ok and j not in seen:
                seen.add(j)
                todo.append(j)
        for tag, j in ctx.delay_steps(i):
            if tag == "0+" and j not in seen:
                seen.add(j)
                todo.append(j)
    return frozenset(seen)


def _delay_image(ctx: RegionContext, frontier: frozenset[int], tag: str) -> set[int]:
    return {j for i in frontier for t, j in ctx.delay_steps(i) if t == tag}


def oracle_buckets(ctx: RegionContext, phi: MetaStrategy) -> OracleTable:
    """Per-bucket final-reachability flags under ``phi``, its frontiers
    walked by `walk_buckets` with this module's closure and delay image."""
    ta = ctx.ta
    unc = ta.uncontrollable
    private = {loc for loc in ta.finals if is_primed(loc)}
    public = ta.finals - private
    locations = ctx.locations

    def step(frontier: frozenset[int], tick: str, enabled: frozenset[str]) -> frozenset[int]:
        return _closure(ctx, _delay_image(ctx, frontier, tick), enabled, unc)

    def flags(bucket: Bucket, ids: frozenset[int]) -> BucketFlags:
        """From the ids' locations as the kernel keeps them: no `Region` is built."""
        reached = {locations[i] for i in ids}
        return BucketFlags(
            bucket, not private.isdisjoint(reached), not public.isdisjoint(reached)
        )

    start = _closure(ctx, {ctx.initial_id()}, phi.point(0), unc)
    walk = walk_buckets(phi, start, step)
    return OracleTable(
        tuple(flags(b, ids) for b, ids in walk.buckets), walk.cycle_start, walk.cycle_period
    )


def oracle_verdict(table: OracleTable, mode: Mode) -> tuple[bool, Bucket | None]:
    """Mode verdict straight from the bucket flags; for meta-strategies the
    duration sets are unions of bucket pieces, so interior and closure reduce
    to bucket logic, the same schedule the belief side applies."""
    return bucket_verdict(
        mode, ((r.bucket, r.has_private_final, r.has_public_final) for r in table.rows)
    )
