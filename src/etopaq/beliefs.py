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

A belief is an int bit mask over the dense region ids of the space's
`RegionContext`, which alone knows what each id stands for: bit i is set
when region i is possible, and the dead belief is 0.  Each region's steps
are read once and kept as one-step target masks: free steps (silent and
uncontrollable actions, off-integer delays to other regions), one mask per
controllable name bit, and the '0+'/'1' delay images.  The one closure ORs
the masks of a frontier's regions and goes on from the bits that are new;
the leak predicates AND a belief with the context's final masks, read live
since both grow as regions are interned.  `BeliefSpace.successors`, the
game's step, gives each distinct successor of a belief once, from the
closure under each class of enabled sets that agree on the controllable
names T able to fire.  Only ∅, T and the one-name classes take a closure
walk, and only ∅'s starts from the delay image: each one-name class grows
from ∅, and T from the union of the one-name classes, by the named steps
the earlier walks collected, so no walk re-reads the regions of the class
it grows from, and T is read off the walks.  A class of two names or more
is the union of two smaller classes' closures, closed further only from the
steps that escape their names' own closures, and on the Minsky gadgets none
do.  The game keeps beliefs as plain ints; `BeliefSpace.successor`, the
strategy walks' step under one enabled set, hands out a `Belief`, the set
view that the other readers use too.  Neither step keeps what it returns.
`BeliefSpace.explore` walks the belief graph into a `graphs.Explored` store,
as the game is walked, with `Belief` nodes and the game's int labels: the
smallest enabled set's mask over `controllable` << 2 | tick code, which
`BeliefSpace.label` decodes.
"""
from __future__ import annotations

from itertools import combinations

from .graphs import Explored, bfs
from .regions import RegionContext
from .ta import SILENT


class Belief(int):
    """A belief mask read as a set of region ids: ``len`` counts them, iteration
    gives them in increasing order, ``in`` tests one, and ``|`` is the union."""

    __slots__ = ()

    def __len__(self) -> int:
        return self.bit_count()

    def __iter__(self):
        mask, out = self, []
        while mask:
            out.append(mask.bit_length() - 1)
            mask ^= 1 << out[-1]
        return reversed(out)

    def __contains__(self, rid: int) -> bool:
        return self >> rid & 1 == 1

    def __or__(self, other: int) -> Belief:
        return Belief(int(self) | other)


BOTTOM = "__bottom__"
DEAD = 0

TICKS = ("0+", "1")
TICK_NAMES = ("0", "0+", "1")  # by tick code, the low two bits of an edge label


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
        self._computed = 0  # class closures, see `successors_computed`
        self._classes: dict[int, tuple[int, ...]] = {}  # T -> its classes
        self._moves: dict[int, tuple] = {}

    # -- label helpers -------------------------------------------------------

    def _classes_below(self, names: int) -> tuple[int, ...]:
        """Every submask of the name mask ``names`` in label order (fewest
        names first, then by sorted names, which is by bit index since the
        names are sorted, as `combinations` gives them); built once per mask."""
        classes = self._classes.get(names)
        if classes is None:
            bits = [1 << i for i in range(names.bit_length()) if names >> i & 1]
            classes = self._classes[names] = tuple(
                sum(c) for k in range(len(bits) + 1) for c in combinations(bits, k)
            )
        return classes

    def label(self, code: int) -> tuple[str, frozenset[str]]:
        """The (tick, enabled) that the edge label ``code`` stands for: its
        low two bits are the tick (0 for '0', 1 for '0+', 2 for '1'), the
        rest the enabled set as a mask over `controllable`."""
        mask = code >> 2
        return TICK_NAMES[code & 3], frozenset(
            n for i, n in enumerate(self.controllable) if mask >> i & 1
        )

    # -- construction --------------------------------------------------------

    def _moves_of(self, rid: int) -> tuple:
        """Region ``rid``'s one-step target masks, built once in one pass
        over its steps: (free steps, ((controllable name bit, targets),
        ...) with each name once, '0+' delay targets, '1' delay targets,
        bit mask of those controllable names).  Silent and uncontrollable
        steps are free, and so are off-integer delays to other regions,
        even at the initial instant: there the tick clock sits on 0, and no
        region with it on an integer has one."""
        bit_of = self._bit
        free = names = zero = one = 0
        named: list[tuple[int, int]] = []
        for action, j in self.ctx.discrete_steps(rid):
            b = bit_of[action.name]
            if not b:
                free |= 1 << j
            elif names & b:  # a second step of a name already met
                named = [(c, js | 1 << j if c == b else js) for c, js in named]
            else:
                names |= b
                named.append((b, 1 << j))
        for tag, j in self.ctx.delay_steps(rid):
            if tag == "1":
                one |= 1 << j
            else:
                zero |= 1 << j
                if j != rid:
                    free |= 1 << j
        moves = self._moves[rid] = (free, tuple(named), zero, one, names)
        return moves

    def _closure(
        self, todo: int, enabled: int, closed: int = 0, steps: dict[int, int] | None = None
    ) -> int:
        """Zero-time closure of the mask ``todo`` added to ``closed``, a mask
        already closed: free steps, off-integer delays among them, plus the
        discrete steps of the controllable names in the bit mask ``enabled``.
        Only the regions of ``todo`` and those it reaches are walked.  Given
        a dict ``steps``, the walk also ORs into it, per name bit, the
        targets of every controllable step out of the regions it walks,
        followed or not; its keys are the names able to fire there."""
        table = self._moves
        closed |= todo
        while todo:
            nxt = 0
            while todo:
                i = todo.bit_length() - 1
                todo ^= 1 << i
                moves = table.get(i) or self._moves_of(i)
                nxt |= moves[0]
                if steps is not None and moves[4]:
                    for bit, js in moves[1]:
                        steps[bit] = steps.get(bit, 0) | js
                        if bit & enabled:
                            nxt |= js
                elif moves[4] & enabled:
                    for bit, js in moves[1]:
                        if bit & enabled:
                            nxt |= js
            todo = nxt & ~closed
            closed |= todo
        return closed

    def _seed(self, belief: object, tick: str) -> int:
        """The mask that the step out of ``belief`` under ``tick`` closes
        over: the initial region out of `BOTTOM`, else the ``tick`` delay
        targets of the belief's regions."""
        if belief is BOTTOM:
            if tick != "0":
                raise ValueError("only the initial zero-time choice leaves bottom")
            return 1 << self.ctx.initial_id()
        if tick not in TICKS:
            raise ValueError(f"bad tick {tick!r}")
        delay = 2 if tick == "0+" else 3
        table, moves_of, image = self._moves, self._moves_of, 0
        while belief:
            i = belief.bit_length() - 1
            belief ^= 1 << i
            image |= (table.get(i) or moves_of(i))[delay]
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
        seed = self._seed(belief, tick)
        self._computed += 1
        return Belief(self._closure(seed, mask))

    def successors(self, belief: object, tick: str) -> list[tuple[int, int]]:
        """Each distinct successor of ``belief`` under ``tick`` once, as a
        plain int, with the smallest enabled set that yields it as a mask
        over `controllable`, in label order: fewest names first, then by
        sorted names; not cached.

        Only the names T with a step from a region of the closure under
        every name can fire under any enabled set e (closures grow with e),
        so the closure under e is the closure under e ∩ T: one closure per
        submask c of T, and c is the smallest enabled set of its class.  ∅
        is the one class walked from the seed, and its walk collects, per
        name bit, the targets of the named steps out of its regions.  Each
        name n among them grows the one-name class {n} from ∅ by n's
        targets, collecting in turn; a name of T with no step out of ∅'s
        regions has ∅ as its one-name class.  The full class T grows from
        the union U of the one-name classes by the collected targets
        outside U, under every name, and collects too.  Every region of
        the full class is walked by one of these walks, so the names
        collected are T exactly.  `_grow_classes` closes the classes of two
        names or more below T."""
        seed = self._seed(belief, tick)
        steps: dict[int, int] = {}  # name bit -> targets out of the regions walked
        none = self._closure(seed, 0, 0, steps)
        closed, union = {0: none}, none
        for bit, js in list(steps.items()):  # ∅'s steps only: the walks below add more
            js &= ~none
            if js:
                closed[bit] = self._closure(js, bit, none, steps)
                union |= closed[bit]
        reached = 0
        for js in steps.values():
            reached |= js
        reached &= ~union
        full = self._closure(reached, -1, union, steps) if reached else union  # -1: every name
        names = 0
        for bit in steps:  # the names of T
            names |= bit
            closed.setdefault(bit, none)  # no step out of ∅'s regions: {bit} adds nothing
        closed[names] = full
        self._grow_classes(closed, names)
        first: dict[int, int] = {}  # successor -> its smallest class, in label order
        classes = self._classes_below(names)
        for mask in classes:
            first.setdefault(closed[mask], mask)
        self._computed += len(classes)
        return [(c, b) for b, c in first.items()]

    def _grow_classes(self, closed: dict[int, int], names: int) -> None:
        """Adds to ``closed``, which holds the closures under ∅, each
        one-name class and the full class ``names`` (bit masks), the
        closure under every class of two names or more below ``names``;
        with two names or fewer there is none.  Such a class c, with lowest
        name n, starts from the union
        U = closed[c − n] | closed[{n}].  Both parts lie below c and are
        closed under free steps, so U is too, and a step of m ∈ c that
        lands in closed[{m}] stays in U.  So U needs closing only from the
        escaping steps: the steps of each name m that land outside
        closed[{m}], indexed once from the full class's regions.  Those of
        the names of c out of U's regions are read, and what they reach
        outside U is closed; a step of a part's own names out of that
        part's regions lands inside it, so it adds nothing.  Classes come
        in increasing order, so both parts are closed before c.  On the
        gadgets no step escapes, and every class of two names or more is a
        plain union."""
        if names.bit_count() < 3:
            return
        table = self._moves
        escapes = []  # (name bit, source bit, targets outside the name's closure)
        for i in Belief(closed[names]):
            for bit, js in table[i][1]:
                js &= ~closed[bit]
                if js:
                    escapes.append((bit, 1 << i, js))
        cls = names & -names
        while cls != names:
            n = cls & -cls
            if n != cls:  # two names or more
                union, todo = closed[cls ^ n] | closed[n], 0
                for bit, src, js in escapes:
                    if bit & cls and src & union:
                        todo |= js
                todo &= ~union
                closed[cls] = self._closure(todo, cls, union) if todo else union
            cls = (cls - names) & names  # the next submask of ``names``

    def successors_computed(self) -> int:
        """Class closures computed so far: one per `successor` call
        (`initial` included), one per class of enabled sets on each
        `successors` call, however it came by it (a walk, or a union of two
        smaller classes)."""
        return self._computed

    # -- leak predicates -----------------------------------------------------

    def has_private_final(self, belief: int) -> bool:
        return belief & self.ctx.private_mask != 0

    def has_public_final(self, belief: int) -> bool:
        return belief & self.ctx.public_mask != 0

    # -- exploration ----------------------------------------------------------

    def explore(self, state_cap: int | None = None, time_cap: float | None = None) -> Explored:
        """The reachable belief graph as `graphs.bfs` stores it under its
        caps, node 0 `BOTTOM` and the others `Belief`s: one edge per distinct
        successor of a belief under a tick other than the dead belief,
        labelled as in the game with the smallest enabled set that yields
        it, an int that `label` decodes."""

        def moves(b):
            return [
                (c << 2 | TICK_NAMES.index(t), b2)
                for t in ticks_from(b)
                for c, b2 in self.successors(b, t)
                if b2 != DEAD
            ]

        g = bfs(BOTTOM, moves, state_cap, time_cap)
        g.nodes[1:] = map(Belief, g.nodes[1:])
        return g
