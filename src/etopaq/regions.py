"""Clock-equivalence regions and the labelled region graph.

A region fixes, per clock, either a capped integer part or "above the largest
compared constant", plus which clocks sit exactly on an integer and the order
of the fractional parts of the rest.  Transitions carry a tick tag telling
how the fractional part of the tick clock moved: '0' (discrete step), '0+'
(delay staying off integers), '1' (delay entering or leaving an integer
instant).

A region is an id of a `RegionContext`, which interns the regions it meets
as (location, clock part) pairs, each with a dense int id in order of first
sight and no object; final ids set their bits in private and public masks
by location side.  A clock part is (codes, pos): per clock a half-unit code,
2n on the integer n, 2n+1 inside (n, n+1) and 2·cmax+1 above the clock's max
constant, so the clocks on an integer are the even codes; and the groups of
the clocks inside an interval by increasing fractional part.  Its steps speak
ids: `delay_steps(i)` and `discrete_steps(i)` take a region id and return
(tag, id) and (action, id) pairs.  Ids come in through `initial_id()`, where
every walk starts, and `id_of(location, valuation)`, the region of a concrete
clock valuation; `locations[i]` is a region's location, `key(i)` its
orderable encoding and `format_region(i)` its label.  A location's guards
and invariants compile, on the first region expanded there, into (clock, lo,
hi) range tests over the codes, each distinct conjunction of atoms once per
context; an edge's test also covers the target invariant, decided outright
on the clocks the edge resets.  The time successor of a clock part is
computed once whatever the location, and each region is expanded once into
both its delay and its discrete steps, in no particular order, kept in a
list indexed by id.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

from .ta import Action, Atom, TimedAutomaton, is_primed

Ranges = tuple[tuple[int, int, int], ...]  # (clock, lo, hi) over half-unit codes


def _compile_atoms(atoms: Sequence[Atom], cmax: Sequence[int]) -> Ranges | None:
    """The conjunction of ``atoms`` as one code range per constrained clock,
    or None when it is unsatisfiable.  Atoms never compare beyond their
    clock's max constant, so each holds on a whole code range."""
    box: dict[int, tuple[int, int]] = {}
    for a in atoms:
        d, top, rel = 2 * a.bound, 2 * cmax[a.clock] + 1, a.rel
        lo = d + 1 if rel == ">" else d if rel == ">=" or rel == "=" else 0
        hi = d - 1 if rel == "<" else d if rel == "<=" or rel == "=" else top
        was_lo, was_hi = box.get(a.clock, (0, top))
        box[a.clock] = (max(lo, was_lo), min(hi, was_hi))
    if any(lo > hi for lo, hi in box.values()):
        return None
    return tuple((c, lo, hi) for c, (lo, hi) in sorted(box.items()))


class RegionContext:
    """Successor queries over the regions of an automaton `ta.prepare` made,
    computed once per region.

    Steps are answered in region ids; ``locations[i]`` is id i's location;
    ``private_mask`` and ``public_mask`` have bit i set for the final ids by
    side of the duplication, growing as regions are interned.  Clock parts
    are interned as (half-unit codes, fractional order) and stepped as such.
    """

    def __init__(self, ta: TimedAutomaton):
        if not ta.prepared:
            raise ValueError("region analysis expects a prepared automaton")
        self.ta = ta
        self.tick = len(ta.clocks) - 1  # `prepare` adds the tick clock last
        self.cmax = self._max_constants()
        self._top = tuple(2 * c + 1 for c in self.cmax)  # the code of "above"
        # location -> (invariant tests or None, ((action, tests, resets, target), ...))
        self._compiled: dict[str, tuple] = {}
        self._conjunctions: dict[tuple, Ranges | None] = {}  # atoms -> `_compile_atoms` of them
        self._edges_from: dict[str, list] = {}  # source -> edges, from the first compile on
        self._part_ids: dict[tuple, int] = {}  # (codes, pos) -> part id
        self._parts: list[tuple] = []  # part id -> (codes, pos)
        self._later: dict[int, tuple] = {}  # part id -> (stay, (tag, part id) or None)
        self._reset: dict[tuple[int, frozenset[int]], int] = {}
        self._region_ids: dict[tuple[str, int], int] = {}  # (location, part id) -> id
        self.locations: list[str] = []  # id -> location
        self._part_of: list[int] = []  # id -> part id
        self._steps: list[tuple | None] = []  # id -> (delay steps, discrete steps) once expanded
        self.private_mask = self.public_mask = 0
        self._private_side = {f: is_primed(f) for f in ta.finals}

    def _max_constants(self) -> tuple[int, ...]:
        cmax = [0] * len(self.ta.clocks)
        for atoms in chain((e.guard for e in self.ta.edges), self.ta.invariants.values()):
            for a in atoms:
                if a.bound > cmax[a.clock]:
                    cmax[a.clock] = a.bound
        return tuple(cmax)

    # -- interning ------------------------------------------------------------

    def _part(self, codes: tuple, pos: tuple) -> int:
        key = (codes, pos)
        pid = self._part_ids.get(key)
        if pid is None:
            pid = self._part_ids[key] = len(self._parts)
            self._parts.append(key)
        return pid

    def _region(self, location: str, pid: int) -> int:
        """The id of region (location, clock part ``pid``), assigned on first sight."""
        key = (location, pid)
        rid = self._region_ids.get(key)
        if rid is None:
            rid = self._region_ids[key] = len(self.locations)
            self.locations.append(location)
            self._part_of.append(pid)
            self._steps.append(None)
            private = self._private_side.get(location)
            if private:
                self.private_mask |= 1 << rid
            elif private is not None:
                self.public_mask |= 1 << rid
        return rid

    def id_of(self, location: str, valuation: Sequence[Fraction]) -> int:
        """The id of the region holding ``valuation`` (one value per clock)
        at ``location``, assigned on first sight."""
        codes: list[int] = []
        by_fraction: dict[Fraction, list[int]] = {}
        for i, (v, top) in enumerate(zip(valuation, self.cmax, strict=True)):
            whole = int(v)
            codes.append(2 * top + 1 if v > top else 2 * whole + (v != whole))
            if whole < v <= top:
                by_fraction.setdefault(v - whole, []).append(i)
        pos = tuple(tuple(by_fraction[f]) for f in sorted(by_fraction))
        return self._region(location, self._part(tuple(codes), pos))

    def initial_id(self) -> int:
        """The initial region's id: the initial location, every clock on 0."""
        return self.id_of(self.ta.init, (0,) * len(self.cmax))

    # -- the kernel ------------------------------------------------------------

    def _compile(self, location: str) -> tuple:
        """The location's invariant tests (None if unsatisfiable) and its
        edges as (action, tests, resets, target): the guard and the part of
        the target invariant on kept clocks, both read before the step.
        Edges whose test can never pass are dropped."""
        if not self._compiled:  # the first compile indexes the edges by source
            for e in self.ta.edges:
                self._edges_from.setdefault(e.source, []).append(e)
        edges = []
        for e in self._edges_from.get(location, ()):
            target_inv = self.ta.invariant(e.target)
            # reset clocks land on 0, so their target-invariant atoms are decided here
            if not all(a.holds(0) for a in target_inv if a.clock in e.resets):
                continue
            kept = tuple(a for a in target_inv if a.clock not in e.resets)
            tests = self._conjunction(e.guard + kept)
            if tests is not None:
                edges.append((e.action, tests, e.resets, e.target))
        compiled = (self._conjunction(self.ta.invariant(location)), tuple(edges))
        self._compiled[location] = compiled
        return compiled

    def _conjunction(self, atoms: tuple[Atom, ...]) -> Ranges | None:
        """`_compile_atoms` of ``atoms``, computed once per context: the
        prepared automaton repeats guards and invariants across locations."""
        try:
            return self._conjunctions[atoms]
        except KeyError:
            tests = self._conjunctions[atoms] = _compile_atoms(atoms, self.cmax)
            return tests

    def _time_successor(self, pid: int) -> tuple:
        """(stay, later) for clock part ``pid``, kept in ``_later`` whatever
        the location: ``stay`` when no clock is on an integer, so a positive
        delay can stay inside; ``later`` the clock part reached by the least
        delay that leaves it, tagged '1' exactly when the tick clock's
        fractional part starts or stops being zero, or None when every clock
        is above its max constant."""
        codes, pos = self._parts[pid]
        # clocks on an integer step into the next open interval, from 2·cmax onto
        # the "above" code; else the largest-fraction group reaches an integer
        on_integer = [i for i, c in enumerate(codes) if not c & 1]
        moved = on_integer or (pos[-1] if pos else ())
        later = None
        if moved:
            nxt = list(codes)
            for i in moved:
                nxt[i] += 1
            if on_integer:
                inside = tuple(i for i in moved if nxt[i] != self._top[i])
                pos = ((inside,) if inside else ()) + pos
            else:
                pos = pos[:-1]
            later = ("1" if self.tick in moved else "0+", self._part(tuple(nxt), pos))
        out = self._later[pid] = (not on_integer, later)
        return out

    def _reset_part(self, pid: int, resets: frozenset[int]) -> int:
        """Clock part ``pid`` with ``resets`` at 0; `_expand` reads it back from ``_reset``."""
        codes, pos = self._parts[pid]
        nxt = list(codes)
        for i in resets:
            nxt[i] = 0
        kept = [tuple([i for i in grp if i not in resets]) for grp in pos]
        out = self._reset[pid, resets] = self._part(tuple(nxt), tuple([g for g in kept if g]))
        return out

    def _expand(self, rid: int) -> tuple:
        """Both step tuples of region ``rid``, computed together and kept."""
        loc, pid = self.locations[rid], self._part_of[rid]
        invariant, edges = self._compiled.get(loc) or self._compile(loc)
        parts, region_ids, reset = self._parts, self._region_ids, self._reset
        stay, later = self._later.get(pid) or self._time_successor(pid)
        delay: list[tuple[str, int]] = [("0+", rid)] if stay else []
        if later is not None and invariant is not None:
            tag, nxt = later
            codes = parts[nxt][0]
            for c, lo, hi in invariant:
                if not lo <= codes[c] <= hi:
                    break
            else:
                j = region_ids.get((loc, nxt))
                delay.append((tag, self._region(loc, nxt) if j is None else j))
        discrete: list[tuple[Action, int]] = []
        own = parts[pid][0]
        for action, tests, resets, target in edges:
            for c, lo, hi in tests:  # a loop, not all(): this is the hot test
                if not lo <= own[c] <= hi:
                    break
            else:
                image = reset.get((pid, resets)) if resets else pid
                if image is None:
                    image = self._reset_part(pid, resets)
                j = region_ids.get((target, image))
                discrete.append((action, self._region(target, image) if j is None else j))
        steps = self._steps[rid] = (tuple(delay), tuple(discrete))
        return steps

    def delay_steps(self, rid: int) -> tuple[tuple[str, int], ...]:
        """All one-step delay transitions from region ``rid`` as (tag,
        target id), the stay-in-place '0+' step included."""
        return (self._steps[rid] or self._expand(rid))[0]

    def discrete_steps(self, rid: int) -> tuple[tuple[Action, int], ...]:
        """All discrete transitions from region ``rid`` as (action, target
        id)."""
        return (self._steps[rid] or self._expand(rid))[1]

    def expanded(self) -> int:
        """How many regions have had their steps computed."""
        return len(self._steps) - self._steps.count(None)

    # -- rendering -----------------------------------------------------------

    def key(self, rid: int) -> tuple:
        """Region ``rid`` as (location, integer parts with -1 for above, clocks
        on an integer, fractional order): orderable, and two ids share a key
        only if they are the same id."""
        codes, pos = self._parts[self._part_of[rid]]
        ints = tuple(-1 if c == top else c >> 1 for c, top in zip(codes, self._top))
        zero = tuple(i for i, c in enumerate(codes) if not c & 1)
        return (self.locations[rid], ints, zero, pos)

    def format_region(self, rid: int) -> str:
        codes, pos = self._parts[self._part_of[rid]]
        parts = []
        for c in self.ta.clocks:
            code, n = codes[c.index], codes[c.index] >> 1
            if code == self._top[c.index]:
                parts.append(f"{c.name}>{n}")
            elif not code & 1:
                parts.append(f"{c.name}={n}")
            else:
                parts.append(f"{n}<{c.name}<{n + 1}")
        label = f"{self.locations[rid]} | " + " ".join(parts)
        if len(pos) > 1:
            names = ["{" + ",".join(self.ta.clocks[i].name for i in g) + "}" for g in pos]
            label += " | fr " + "<".join(names)
        return label
