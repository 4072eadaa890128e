"""The tests' own view of a region, read from `RegionContext.key`.

The package knows a region only as an id of its context.  The tests' reference
kernels compute on these records, apart from the context's clock-part tables,
walk the context by id, and compare record for record.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from etopaq.ta import is_primed

ABOVE = None  # integer part of a clock past its max constant


class Region(NamedTuple):
    location: str
    ints: tuple[int | None, ...]  # per clock, ABOVE past its max constant
    zero: tuple[int, ...]  # the clocks on an integer, ABOVE ones excepted
    pos: tuple[tuple[int, ...], ...]  # the others, grouped by increasing fraction

    def fraction_is_zero(self, clock: int) -> bool:
        return clock in self.zero


def region(ctx, rid: int) -> Region:
    location, ints, zero, pos = ctx.key(rid)
    return Region(location, tuple(ABOVE if n == -1 else n for n in ints), zero, pos)


def regions(ctx, belief) -> frozenset[Region]:
    """A belief's regions as records, to compare beliefs across contexts."""
    return frozenset(region(ctx, i) for i in belief)


def member(r: Region, cmax) -> tuple[Fraction, ...]:
    """A clock valuation inside ``r``: group k of n sits at fraction (k+1)/(n+1)."""
    frac = {i: Fraction(k + 1, len(r.pos) + 1) for k, grp in enumerate(r.pos) for i in grp}
    return tuple(
        Fraction(cmax[i] + 1) if n is ABOVE else n + frac.get(i, Fraction(0))
        for i, n in enumerate(r.ints)
    )


def is_final(ctx, rid: int) -> bool:
    return ctx.locations[rid] in ctx.ta.finals


def is_secret(ctx, rid: int) -> bool:
    """In the private copy of the duplicated automaton, or its private location."""
    location = ctx.locations[rid]
    return is_primed(location) or location == ctx.ta.private
