"""Clock-equivalence regions and the labelled region graph.

A region fixes, per clock, either a capped integer part or "above the largest
compared constant", plus which clocks sit exactly on an integer and the order
of the fractional parts of the rest.  Successor computation is lazy and
memoized; transitions carry a tick tag telling how the fractional part of the
tick clock moved: '0' (discrete step), '0+' (delay staying off integers),
'1' (delay entering or leaving an integer instant).

A `RegionContext` interns the regions it hands out: each gets one canonical
object and a dense int id, in order of first sight, and the final regions
are sorted into private and public sets as they are interned.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .ta import (
    TICK_CLOCK,
    Action,
    Atom,
    Edge,
    TimedAutomaton,
    is_primed,
)

ABOVE = None  # integer-part marker for values past the clock's max constant


@dataclass(frozen=True, slots=True)
class Region:
    location: str
    ints: tuple[int | None, ...]
    zero: tuple[int, ...]
    pos: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # regions are hashed on every set and cache probe; hash the fields once
        object.__setattr__(self, "_hash", hash((self.location, self.ints, self.zero, self.pos)))

    def __hash__(self) -> int:
        return self._hash

    def is_capped(self, clock: int) -> bool:
        return self.ints[clock] is not ABOVE

    def fraction_is_zero(self, clock: int) -> bool:
        return clock in self.zero


def region_of(
    location: str, vals: Sequence[Fraction], cmax: Sequence[int]
) -> Region:
    ints: list[int | None] = []
    zero: list[int] = []
    by_fraction: dict[Fraction, list[int]] = {}
    for i, v in enumerate(vals):
        if v > cmax[i]:
            ints.append(ABOVE)
            continue
        whole = int(v)
        frac = v - whole
        ints.append(whole)
        if frac == 0:
            zero.append(i)
        else:
            by_fraction.setdefault(frac, []).append(i)
    pos = tuple(
        tuple(sorted(by_fraction[f])) for f in sorted(by_fraction)
    )
    return Region(location, tuple(ints), tuple(zero), pos)


def atom_holds_in(region: Region, atom: Atom) -> bool:
    """Guard/invariant atoms never compare beyond the clock's max constant,
    so satisfaction is uniform across the region."""
    n = region.ints[atom.clock]
    if n is ABOVE:
        return atom.rel in (">", ">=")
    on_integer = region.fraction_is_zero(atom.clock)
    d = atom.bound
    if atom.rel == "<":
        return n < d
    if atom.rel == "<=":
        return n < d or (n == d and on_integer)
    if atom.rel == "=":
        return n == d and on_integer
    if atom.rel == ">=":
        return n >= d
    return n > d or (n == d and not on_integer)


def valuations_equivalent(
    a: Sequence[Fraction], b: Sequence[Fraction], cmax: Sequence[int]
) -> bool:
    """Direct three-condition check, kept independent of the encoding so it
    can arbitrate `region_of`."""
    n = len(a)
    for i in range(n):
        above_a, above_b = a[i] > cmax[i], b[i] > cmax[i]
        if above_a != above_b:
            return False
        if not above_a and int(a[i]) != int(b[i]):
            return False
    for i in range(n):
        if a[i] > cmax[i]:
            continue
        fa_i = a[i] - int(a[i])
        fb_i = b[i] - int(b[i])
        if (fa_i == 0) != (fb_i == 0):
            return False
        for j in range(n):
            if a[j] > cmax[j]:
                continue
            fa_j = a[j] - int(a[j])
            fb_j = b[j] - int(b[j])
            if (fa_i <= fa_j) != (fb_i <= fb_j):
                return False
    return True


class RegionContext:
    """Successor queries over the regions of a duplicated, tick-augmented
    automaton, memoized per region.

    The initial region and every successor returned are interned:
    ``regions[intern(r)]`` is the one canonical object equal to ``r``.
    ``private_finals`` and ``public_finals`` hold the interned final regions
    by side of the duplication.
    """

    def __init__(self, ta: TimedAutomaton):
        if not (ta.is_duplicated and ta.has_tick_clock):
            raise ValueError("region analysis expects a prepared automaton")
        self.ta = ta
        self.tick = ta.clock_named(TICK_CLOCK).index
        self.cmax = self._max_constants()
        self._edges_from: dict[str, tuple[Edge, ...]] = {
            loc: tuple(e for e in ta.edges if e.source == loc)
            for loc in ta.locations
        }
        self._delay: dict[Region, tuple[tuple[str, Region], ...]] = {}
        self._discrete: dict[Region, tuple[tuple[Action, Region], ...]] = {}
        self.regions: list[Region] = []  # id -> interned region
        self.ids: dict[Region, int] = {}  # interned region -> id; read-only outside `intern`
        self._intern_lock = threading.Lock()
        self.private_finals: set[Region] = set()
        self.public_finals: set[Region] = set()

    def _max_constants(self) -> tuple[int, ...]:
        cmax = [0] * len(self.ta.clocks)
        atoms: list[Atom] = []
        for e in self.ta.edges:
            atoms.extend(e.guard)
        for inv in self.ta.invariants.values():
            atoms.extend(inv)
        for atom in atoms:
            cmax[atom.clock] = max(cmax[atom.clock], atom.bound)
        return tuple(cmax)

    # -- construction -------------------------------------------------------

    def intern(self, region: Region) -> int:
        """The region's id, assigned on first sight.  Safe across threads:
        the region is stored and classified before its id is published."""
        rid = self.ids.get(region)
        if rid is None:
            with self._intern_lock:
                rid = self.ids.get(region)
                if rid is None:
                    rid = len(self.regions)
                    self.regions.append(region)
                    if self.is_final(region):
                        side = self.private_finals if self.is_secret(region) else self.public_finals
                        side.add(region)
                    self.ids[region] = rid
        return rid

    def canonical(self, region: Region) -> Region:
        return self.regions[self.intern(region)]

    def initial_region(self) -> Region:
        return self.canonical(self.region_of(self.ta.init, self.ta.zero_valuation()))

    def region_of(self, location: str, vals: Sequence[Fraction]) -> Region:
        return region_of(location, vals, self.cmax)

    def invariant_ok(self, region: Region) -> bool:
        return all(
            atom_holds_in(region, atom)
            for atom in self.ta.invariant(region.location)
        )

    # -- delay steps ---------------------------------------------------------

    def can_idle(self, region: Region) -> bool:
        """A positive delay stays inside the region iff no capped clock sits
        exactly on an integer."""
        return not region.zero

    def time_successor(self, region: Region) -> tuple[str, Region] | None:
        """The unique next region under delay, or None when the location
        invariant blocks it.  Tagged '1' exactly when the tick clock's
        fractional part starts or stops being zero."""
        succ, moved = self._raw_time_successor(region)
        if succ is None:
            return None
        if not self.invariant_ok(succ):
            return None
        tag = "1" if self.tick in moved else "0+"
        return tag, succ

    def _raw_time_successor(
        self, region: Region
    ) -> tuple[Region | None, tuple[int, ...]]:
        ints = list(region.ints)
        if region.zero:
            # clocks on an integer slip into the next open interval
            survivors = []
            for i in region.zero:
                if ints[i] == self.cmax[i]:
                    ints[i] = ABOVE
                else:
                    survivors.append(i)
            pos = ((tuple(survivors),) if survivors else ()) + region.pos
            return Region(region.location, tuple(ints), (), pos), region.zero
        if not region.pos:
            return None, ()
        # the group with the largest fraction reaches the next integer
        wrapped = region.pos[-1]
        zero = []
        for i in wrapped:
            ints[i] += 1
            if ints[i] > self.cmax[i]:
                ints[i] = ABOVE
            else:
                zero.append(i)
        return (
            Region(region.location, tuple(ints), tuple(zero), region.pos[:-1]),
            wrapped,
        )

    def delay_steps(self, region: Region) -> tuple[tuple[str, Region], ...]:
        """All one-step delay transitions from the region, the stay-in-place
        '0+' step included."""
        cached = self._delay.get(region)
        if cached is not None:
            return cached
        steps: list[tuple[str, Region]] = []
        if self.can_idle(region):
            steps.append(("0+", self.canonical(region)))
        nxt = self.time_successor(region)
        if nxt is not None:
            steps.append((nxt[0], self.canonical(nxt[1])))
        result = tuple(sorted(steps, key=lambda s: (s[0], encode(s[1]))))
        self._delay[region] = result
        return result

    # -- discrete steps --------------------------------------------------------

    def discrete_steps(self, region: Region) -> tuple[tuple[Action, Region], ...]:
        cached = self._discrete.get(region)
        if cached is not None:
            return cached
        steps: list[tuple[Action, Region]] = []
        for e in self._edges_from.get(region.location, ()):
            if not all(atom_holds_in(region, atom) for atom in e.guard):
                continue
            image = self.reset_image(region, e.resets, e.target)
            if self.invariant_ok(image):
                steps.append((e.action, self.canonical(image)))
        result = tuple(
            sorted(steps, key=lambda s: (s[0].name, encode(s[1])))
        )
        self._discrete[region] = result
        return result

    def reset_image(
        self, region: Region, resets: frozenset[int], target: str
    ) -> Region:
        ints = list(region.ints)
        for i in resets:
            ints[i] = 0
        zero = sorted(set(region.zero) | resets)
        pos = tuple(
            g for g in (tuple(i for i in grp if i not in resets) for grp in region.pos) if g
        )
        return Region(target, tuple(ints), tuple(zero), pos)

    # -- predicates over the duplicated automaton ---------------------------

    def is_final(self, region: Region) -> bool:
        return region.location in self.ta.finals

    def is_secret(self, region: Region) -> bool:
        return is_primed(region.location) or region.location == self.ta.private

    def is_public(self, region: Region) -> bool:
        return not self.is_secret(region)

    # -- rendering -----------------------------------------------------------

    def format_region(self, region: Region) -> str:
        parts = []
        for c in self.ta.clocks:
            n = region.ints[c.index]
            if n is ABOVE:
                parts.append(f"{c.name}>{self.cmax[c.index]}")
            elif region.fraction_is_zero(c.index):
                parts.append(f"{c.name}={n}")
            else:
                parts.append(f"{n}<{c.name}<{n + 1}")
        label = f"{region.location} | " + " ".join(parts)
        if len(region.pos) > 1:
            names = [
                "{" + ",".join(self.ta.clocks[i].name for i in g) + "}"
                for g in region.pos
            ]
            label += " | fr " + "<".join(names)
        return label


def encode(region: Region) -> tuple:
    """Canonical, orderable encoding; equality of encodings is region
    equality."""
    return (
        region.location,
        tuple(-1 if n is ABOVE else n for n in region.ints),
        region.zero,
        region.pos,
    )
