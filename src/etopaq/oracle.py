"""Belief-free cross-check: region-level reachability per time bucket.

Drives the region graph directly along a meta-strategy's choice schedule,
never building powerset successors: a frontier of regions is pushed through
each choice segment, recording per bucket whether a private-final or a
public-final region is ever reached.  The belief layer must agree with these
flags bucket for bucket.
"""
from __future__ import annotations

from dataclasses import dataclass

from .regions import Region, RegionContext
from .strategies import Bucket, MetaStrategy
from .ta import SILENT_KIND


@dataclass(frozen=True, slots=True)
class BucketFlags:
    bucket: Bucket
    has_private_final: bool
    has_public_final: bool

    @property
    def any_final(self) -> bool:
        return self.has_private_final or self.has_public_final


@dataclass(frozen=True)
class OracleTable:
    rows: tuple[BucketFlags, ...]
    cycle_start: int
    cycle_period: int

    def row(self, bucket: Bucket) -> BucketFlags:
        for r in self.rows:
            if r.bucket == bucket:
                return r
        raise KeyError(str(bucket))

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
    unc = ctx.ta.uncontrollable

    def flags(bucket: Bucket, regions: frozenset[Region]) -> BucketFlags:
        priv = any(ctx.is_final(r) and ctx.is_secret(r) for r in regions)
        pub = any(ctx.is_final(r) and ctx.is_public(r) for r in regions)
        return BucketFlags(bucket, priv, pub)

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


def oracle_verdict(table: OracleTable, mode) -> tuple[bool, Bucket | None]:
    """Mode verdict straight from the bucket flags; for meta-strategies the
    duration sets are unions of bucket pieces, so interior and closure reduce
    to bucket logic."""
    from .game import Mode

    rows = list(table.rows)
    intervals = {r.bucket.k: r for r in rows if r.bucket.kind == "interval"}
    max_point = max(r.bucket.k for r in rows if r.bucket.kind == "point")
    for r in rows:
        leak_full = r.has_private_final != r.has_public_final
        leak_weak = r.has_private_final and not r.has_public_final
        if r.bucket.kind == "interval":
            if mode is Mode.WEAK:
                if leak_weak:
                    return False, r.bucket
            elif leak_full:
                return False, r.bucket
            continue
        if mode is Mode.ALMOST_FULL:
            continue
        if mode is Mode.WEAK:
            if leak_weak:
                return False, r.bucket
            continue
        if not leak_full:
            continue
        if mode is Mode.FULL:
            return False, r.bucket
        # closed: a punctual leak needs a neighbouring interval with finals
        k = r.bucket.k
        if k == max_point:
            continue  # periodic twin already decided this residue
        prev_ok = k - 1 in intervals and intervals[k - 1].any_final
        next_ok = k in intervals and intervals[k].any_final
        if not (prev_ok or next_ok):
            return False, r.bucket
    return True, None
