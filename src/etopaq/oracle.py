"""Belief-free cross-check: region-level reachability per time bucket.

Drives the region graph directly along a meta-strategy's choice schedule,
never building powerset successors: a frontier of regions is pushed through
each choice segment, recording per bucket whether a private-final or a
public-final region is ever reached.  The belief layer must agree with these
flags bucket for bucket.  Only the verdict over the flags is shared with
the belief side (`modes.bucket_verdict`); the sets behind them are built
here, by a closure of its own.
"""
from __future__ import annotations

from dataclasses import dataclass

from .modes import Mode, bucket_verdict
from .regions import Region, RegionContext
from .strategies import Bucket, MetaStrategy
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
    ctx: RegionContext,
    seed: set[Region],
    enabled: frozenset[str],
    unc: frozenset[str],
    allow_delay: bool,
) -> frozenset[Region]:
    seen = set(seed)
    todo = list(seed)
    while todo:
        r = todo.pop()
        for action, r2 in ctx.discrete_steps(r):
            ok = action.kind == SILENT_KIND or action.name in unc or action.name in enabled
            if ok and r2 not in seen:
                seen.add(r2)
                todo.append(r2)
        if allow_delay:
            for tag, r2 in ctx.delay_steps(r):
                if tag == "0+" and r2 not in seen:
                    seen.add(r2)
                    todo.append(r2)
    return frozenset(seen)


def _delay_image(ctx: RegionContext, frontier: frozenset[Region], tag: str) -> set[Region]:
    return {r2 for r in frontier for t, r2 in ctx.delay_steps(r) if t == tag}


def oracle_buckets(
    ctx: RegionContext, phi: MetaStrategy, extra_units: int = 1
) -> OracleTable:
    """Per-bucket final-reachability flags under ``phi``, enumerated until
    the (lasso position, frontier) pair repeats."""
    ta = ctx.ta
    unc = ta.uncontrollable
    private = {loc for loc in ta.finals if is_primed(loc) or loc == ta.private}
    public = ta.finals - private

    def flags(bucket: Bucket, regions: frozenset[Region]) -> BucketFlags:
        locations = {r.location for r in regions}
        return BucketFlags(
            bucket, not private.isdisjoint(locations), not public.isdisjoint(locations)
        )

    rows: list[BucketFlags] = []
    frontier = _closure(
        ctx, {ctx.initial_region()}, phi.point(0), unc, allow_delay=False
    )
    rows.append(flags(Bucket("point", 0), frontier))
    seen: dict[tuple[int, frozenset[Region]], int] = {(phi.lasso_pos(0), frontier): 0}
    cycle_start = cycle_period = None
    pending = None
    k = 0
    while True:
        seen_in_interval: set[Region] = set()
        choices = phi.interval(k)
        frontier = frozenset(
            _closure(ctx, _delay_image(ctx, frontier, "1"), choices[0], unc, True)
        )
        seen_in_interval |= frontier
        for enabled in choices[1:]:
            frontier = frozenset(
                _closure(ctx, _delay_image(ctx, frontier, "0+"), enabled, unc, True)
            )
            seen_in_interval |= frontier
        rows.append(flags(Bucket("interval", k), frozenset(seen_in_interval)))
        frontier = frozenset(
            _closure(ctx, _delay_image(ctx, frontier, "1"), phi.point(k + 1), unc, True)
        )
        rows.append(flags(Bucket("point", k + 1), frontier))
        k += 1
        key = (phi.lasso_pos(k), frontier)
        if cycle_start is None and key in seen:
            cycle_start = seen[key]
            cycle_period = k - seen[key]
            pending = extra_units
        elif cycle_start is None:
            seen[key] = k
        if pending is not None:
            if pending == 0:
                break
            pending -= 1
    return OracleTable(tuple(rows), cycle_start, cycle_period)


def oracle_verdict(table: OracleTable, mode: Mode) -> tuple[bool, Bucket | None]:
    """Mode verdict straight from the bucket flags; for meta-strategies the
    duration sets are unions of bucket pieces, so interior and closure reduce
    to bucket logic, the same schedule the belief side applies."""
    return bucket_verdict(
        mode, ((r.bucket, r.has_private_final, r.has_public_final) for r in table.rows)
    )
