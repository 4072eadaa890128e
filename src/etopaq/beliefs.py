"""Beliefs: the sets of regions an execution-time observer considers
possible, and their successor relation.

A belief transition bundles one delay step per member region (tagged '0+' or
'1' by how the tick clock's fractional part moved) with a closure under
zero-time actions and further off-integer delays.  The pre-initial state is a
dedicated bottom marker left by tick '0' alone: `successor(BOTTOM, '0', e)`
is the zero-time closure of the initial region, so every walk steps out of
it as out of any belief (`ticks_from` names the ticks).  The empty belief is
kept as an absorbing dead state so time can still be counted through
intervals where no run survives.

A belief is a frozenset of the dense region ids of the space's
`RegionContext`, which alone knows what each id stands for.  The context
answers each region's steps in ids; they are read once per region and
kept as id tuples, split into free steps, controllable steps by name bit,
and the '0+'/'1' delay targets.
The one closure routine and the delay images run over these tables alone,
and the leak predicates test a belief against the context's private- and
public-final id sets.  `BeliefSpace.successors`, the game's step, gives
each distinct successor of a belief once, with one closure per class of
enabled sets that agree on the controllable names able to fire, and keeps
the list per (belief, tick): the space's one belief cache.  The classes form
a lattice: each class grows from the class one name smaller, seeded with
that name's steps out of it, which an index of the closure under every name
holds, and walks only the regions they add.  `BeliefSpace.successor`, the
step under one enabled set that the strategy walks take, closes once per
call and keeps nothing.  `BeliefSpace.explore` walks the reachable
belief graph with `graphs.bfs` through `successors`, as the game does; the
dead belief needs no case of its own there, since every successor of it is
itself.
"""
from __future__ import annotations

from .graphs import bfs
from .regions import RegionContext
from .ta import SILENT

Belief = frozenset  # frozenset[int]: region ids of the space's context

BOTTOM = "__bottom__"
DEAD: Belief = frozenset()

TICKS = ("0+", "1")


def ticks_from(belief: object) -> tuple[str, ...]:
    """The ticks `BeliefSpace.successor` takes out of ``belief``."""
    return ("0",) if belief is BOTTOM else TICKS


class BeliefSpace:
    """Belief construction and predicates for one prepared automaton."""

    def __init__(self, ctx: RegionContext):
        self.ctx = ctx
        self.controllable = tuple(sorted(ctx.ta.controllable))
        self.uncontrollable = ctx.ta.uncontrollable
        self._bit = {name: 1 << i for i, name in enumerate(self.controllable)}
        self._bit.update(dict.fromkeys((SILENT.name, *self.uncontrollable), 0))  # free names
        self._succs: dict[tuple[object, str], list[tuple[frozenset[str], Belief]]] = {}
        self._computed = 0  # class closures, see `successors_computed`
        self._classes: dict[int, dict[int, frozenset[str]]] = {}  # T -> its classes
        self._moves: dict[int, tuple] = {}

    # -- label helpers -------------------------------------------------------

    def _classes_below(self, names: int) -> dict[int, frozenset[str]]:
        """Every submask of the name mask ``names`` with its enabled set, in
        label order (fewest names first, then by sorted names); built once
        per mask."""
        classes = self._classes.get(names)
        if classes is None:
            subs = [(0, frozenset())]
            for i, name in enumerate(self.controllable):
                if names >> i & 1:
                    subs += [(m | 1 << i, e | {name}) for m, e in subs]
            subs.sort(key=lambda c: (len(c[1]), sorted(c[1])))
            classes = self._classes[names] = dict(subs)
        return classes

    # -- construction --------------------------------------------------------

    def _moves_of(self, rid: int) -> tuple:
        """Region ``rid``'s one-step moves as ids, built once: (free steps,
        ((controllable name bit, steps), ...), '0+' delay targets, '1' delay
        targets, bit mask of those controllable names).  ``_bit`` sorts the
        steps by action name; silent and uncontrollable steps are free, and
        so are off-integer delays, even at the initial instant: there the
        tick clock sits on 0, and no region with it on an integer has one."""
        moves = self._moves.get(rid)
        if moves is not None:
            return moves
        ctx, bit_of = self.ctx, self._bit
        by_bit: dict[int, list[int]] = {}  # name bit -> targets, 0 for the free steps
        for action, j in ctx.discrete_steps(rid):
            by_bit.setdefault(bit_of[action.name], []).append(j)
        free = by_bit.pop(0, [])
        delay0p: list[int] = []
        delay1: list[int] = []
        for tag, j in ctx.delay_steps(rid):
            (delay0p if tag == "0+" else delay1).append(j)
        moves = (
            tuple(free + [j for j in delay0p if j != rid]),
            tuple([(bit, tuple(js)) for bit, js in by_bit.items()]),
            tuple(delay0p),
            tuple(delay1),
            sum(by_bit),
        )
        self._moves[rid] = moves
        return moves

    def _closure(self, seen: set[int], enabled: int, todo: list[int] | None = None) -> Belief:
        """Zero-time closure of the region ids in ``seen`` (grown in place):
        free steps, off-integer delays among them, plus the discrete steps
        of the controllable names in the bit mask ``enabled``.  Only the ids
        in ``todo`` (all of ``seen`` by default) and what they reach are
        walked, so ``seen`` may already hold a closure."""
        table = self._moves
        if todo is None:
            todo = list(seen)
        while todo:
            i = todo.pop()
            moves = table.get(i) or self._moves_of(i)
            for j in moves[0]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
            for bit, js in moves[1]:
                if bit & enabled:
                    for j in js:
                        if j not in seen:
                            seen.add(j)
                            todo.append(j)
        return frozenset(seen)

    def _seed(self, belief: object, tick: str) -> set[int]:
        """The region ids that the step out of ``belief`` under ``tick``
        closes over: the initial region out of `BOTTOM`, else the ``tick``
        delay targets of the belief's regions."""
        if belief is BOTTOM:
            if tick != "0":
                raise ValueError("only the initial zero-time choice leaves bottom")
            return {self.ctx.initial_id()}
        if tick not in TICKS:
            raise ValueError(f"bad tick {tick!r}")
        delay = 2 if tick == "0+" else 3
        table, moves_of = self._moves, self._moves_of
        image: set[int] = set()
        for i in belief:
            image.update((table.get(i) or moves_of(i))[delay])
        return image

    def initial(self, enabled: frozenset[str]) -> Belief:
        """Zero-time closure of the initial region under enabled and
        uncontrollable actions: the step out of `BOTTOM`."""
        return self.successor(BOTTOM, "0", enabled)

    def successor(self, belief: object, tick: str, enabled: frozenset[str]) -> Belief:
        """One delay step tagged ``tick`` per member region, then closure;
        out of `BOTTOM` (tick '0' only) the closure of the initial region
        without delays.  The result may be the dead belief; not cached."""
        bit, mask = self._bit, 0
        for name in enabled:
            mask |= bit.get(name, 0)
        b = self._closure(self._seed(belief, tick), mask)
        self._computed += 1
        return b

    def successors(self, belief: object, tick: str) -> list[tuple[frozenset[str], Belief]]:
        """Each distinct successor of ``belief`` under ``tick`` once,
        labelled with the smallest enabled set that yields it, in label
        order: fewest names first, then by sorted names; memoized.

        The closure under every controllable name is computed first.  Only
        the names T with a step from one of its regions can fire under any
        enabled set e (closures grow with e), so the closure under e is the
        closure under e ∩ T: one closure per submask c of T, and c is the
        smallest enabled set of its class.  `_grow_classes` closes them,
        each grown from the class one name smaller."""
        out = self._succs.get((belief, tick))
        if out is not None:
            return out
        seed = self._seed(belief, tick)
        full = self._closure(set(seed), -1)  # -1 has every name bit set
        table, relevant = self._moves, 0
        for i in full:
            relevant |= table[i][4]
        classes = self._classes_below(relevant)
        closed = self._grow_classes(seed, full, relevant) if relevant else {0: full}
        first: dict[Belief, frozenset[str]] = {}  # in label order
        for mask, e in classes.items():
            first.setdefault(closed[mask], e)
        out = self._succs[belief, tick] = [(e, b) for b, e in first.items()]
        self._computed += len(classes)
        return out

    def _grow_classes(self, seed: set[int], full: Belief, relevant: int) -> dict[int, Belief]:
        """The closure under every class of names c ⊆ ``relevant`` (bit
        masks).  The class ∅ is closed from the seed (taken over), the class
        ``relevant`` is ``full``.  Any other c is grown from the closure
        under c′, c without its lowest name n: from the targets of the
        n-steps of c′'s regions, walking only the regions that c′ lacks.
        ``full``, the closure under every name, holds every class's regions,
        so one index of its controllable steps by name bit serves every
        parent.  Classes come in increasing order, so c′ is closed before c.
        Closures are monotone and idempotent, so this is the closure of the
        seed under c."""
        closed = {0: self._closure(seed, 0), relevant: full}
        cls = relevant & -relevant  # the lowest name alone: the class after ∅
        if cls == relevant:  # one name: no class lies between ∅ and it
            return closed
        steps: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for i in full:
            for bit, js in self._moves[i][1]:
                steps.setdefault(bit, []).append((i, js))
        while cls != relevant:
            parent = closed[cls & (cls - 1)]
            n_steps = steps.get(cls & -cls, ())  # n is the lowest name of cls
            todo = [j for i, js in n_steps if i in parent for j in js if j not in parent]
            if todo:
                parent = self._closure({*parent, *todo}, cls, todo)
            closed[cls] = parent
            cls = (cls - relevant) & relevant  # the next submask of ``relevant``
        return closed

    def successors_computed(self) -> int:
        """Class closures computed so far: one per `successor` call
        (`initial` included), one per class of enabled sets on each
        (belief, tick) that `successors` steps from."""
        return self._computed

    # -- leak predicates -----------------------------------------------------

    def has_private_final(self, belief: Belief) -> bool:
        return not self.ctx.private_finals.isdisjoint(belief)

    def has_public_final(self, belief: Belief) -> bool:
        return not self.ctx.public_finals.isdisjoint(belief)

    # -- exploration ----------------------------------------------------------

    def explore(
        self,
        include_dead: bool = False,
        state_cap: int | None = None,
        time_cap: float | None = None,
    ) -> "BeliefGraph":
        """The reachable belief graph, explored by `graphs.bfs` under its
        caps: one edge per distinct successor of a belief under a tick,
        labelled with the smallest enabled set that yields it, as in the
        game.  Without ``include_dead`` moves into the dead belief are left
        out."""

        def moves(b):
            steps = [((t, e), b2) for t in ticks_from(b) for e, b2 in self.successors(b, t)]
            return steps if include_dead else [s for s in steps if s[1] != DEAD]

        adj, order, parent, stopped = bfs(BOTTOM, moves, state_cap, time_cap)
        transitions = {
            (b, tick, e): b2
            for b, steps in adj.items()
            for (tick, e), b2 in steps
            if b2 in parent  # a capped walk leaves its last targets out
        }
        return BeliefGraph(self, tuple(order), transitions, stopped)


class BeliefGraph:
    def __init__(self, space: BeliefSpace, states, transitions, stopped: str = ""):
        self.space = space
        self.states = states
        self.transitions = transitions
        self.stopped = stopped  # why a capped walk stopped short, else ""

