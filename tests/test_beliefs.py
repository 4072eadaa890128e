from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest

from conftest import belief_edges, every_enabled_set, leaking_full, load_space, load_ta
from etopaq import prepare
from etopaq.beliefs import BOTTOM, DEAD, Belief, BeliefSpace, ticks_from
from etopaq.modes import Mode
from etopaq.regions import RegionContext
from etopaq.ta import SILENT_KIND
from regionref import is_final, is_secret, regions

A = frozenset({"a"})
NONE = frozenset()


def xproj(space, belief):
    return sorted({(r.location, r.ints[0]) for r in regions(space.ctx, belief)})


def test_initial_belief_with_a(opaque_space):
    b0 = opaque_space.initial(A)
    assert xproj(opaque_space, b0) == [
        ("l0", 0),
        ("lf", 0),
        ("lf^p", 0),
        ("lpriv", 0),
    ]


def test_initial_belief_without_a(opaque_space):
    b0p = opaque_space.initial(NONE)
    assert xproj(opaque_space, b0p) == [("l0", 0), ("lf^p", 0), ("lpriv", 0)]


def test_initial_belief_singleton_when_no_zero_edges():
    space = load_space("ta_counterex")
    b = space.initial(frozenset({"a", "b"}))
    # only the uncontrollable jump to the private location fires at time 0
    assert sorted({space.ctx.locations[i] for i in b}) == ["l0", "lpriv"]


def test_successor_interval_beliefs(opaque_space):
    b0 = opaque_space.initial(A)
    d = opaque_space.successor(b0, "1", NONE)
    assert xproj(opaque_space, d) == [("l0", 0), ("lpriv", 0)]
    c = opaque_space.successor(d, "0+", A)
    assert xproj(opaque_space, c) == [("l0", 0), ("lf", 0), ("lpriv", 0)]


def test_successor_dead_interval():
    from conftest import mortal_ta

    space = BeliefSpace(RegionContext(prepare(mortal_ta())))
    b0 = space.initial(NONE)
    mid = space.successor(b0, "1", NONE)
    point1 = space.successor(mid, "1", NONE)
    dead = space.successor(point1, "1", NONE)
    assert dead == DEAD
    assert space.successor(dead, "1", NONE) == DEAD
    assert space.successor(dead, "0+", frozenset({"a"})) == DEAD


def test_leaking_full_examples(opaque_space):
    b0 = opaque_space.initial(A)
    b0p = opaque_space.initial(NONE)
    assert not leaking_full(opaque_space, b0)
    assert leaking_full(opaque_space, b0p)
    no_finals = opaque_space.successor(b0, "1", NONE)
    assert not leaking_full(opaque_space, no_finals)


def _leaks_weak(space, belief):
    return Mode.WEAK.leaks(space.has_private_final(belief), space.has_public_final(belief))


def _finals_present(space, belief):
    return space.has_private_final(belief) or space.has_public_final(belief)


def test_leaking_weak_examples(opaque_space):
    b0 = opaque_space.initial(A)
    b0p = opaque_space.initial(NONE)
    assert _leaks_weak(opaque_space, b0p)
    assert not _leaks_weak(opaque_space, b0)
    assert not _leaks_weak(opaque_space, DEAD)


def test_finals_present_examples(opaque_space):
    b0 = opaque_space.initial(A)
    interval = opaque_space.successor(b0, "1", NONE)
    assert _finals_present(opaque_space, b0)
    assert not _finals_present(opaque_space, interval)
    assert not _finals_present(opaque_space, DEAD)


def test_successor_monotone_in_enabled():
    for name in ("ta_opaque", "ta1", "ta_counterex"):
        space = load_space(name)
        subsets = every_enabled_set(space)
        graph = space.explore()
        beliefs = [b for b in graph.nodes if b is not BOTTOM]
        for small, big in combinations(subsets, 2):
            if not small <= big:
                continue
            assert space.initial(small) <= space.initial(big)
            for b in beliefs:
                for tick in ("0+", "1"):
                    assert space.successor(b, tick, small) <= space.successor(
                        b, tick, big
                    )


def test_largest_set_property_random_paths(opaque_space):
    """Any region reachable by a first delay step tagged like the transition
    plus allowed zero-time/off-integer steps stays inside the computed
    successor."""
    rng = random.Random(5)
    space = opaque_space
    ctx = space.ctx
    b0 = space.initial(A)
    for tick in ("1",):
        for enabled in (A, NONE):
            target = space.successor(b0, tick, enabled)
            for _ in range(200):
                r = rng.choice(sorted(b0, key=ctx.format_region))
                hops = [j for tag, j in ctx.delay_steps(r) if tag == tick]
                if not hops:
                    continue
                cur = rng.choice(hops)
                assert cur in target
                for _ in range(rng.randint(0, 4)):
                    moves = [
                        j
                        for a, j in ctx.discrete_steps(cur)
                        if a.kind == SILENT_KIND
                        or a.name in space.uncontrollable
                        or a.name in enabled
                    ]
                    moves += [j for tag, j in ctx.delay_steps(cur) if tag == "0+"]
                    if not moves:
                        break
                    cur = rng.choice(moves)
                    assert cur in target


def test_successor_deterministic(opaque_space):
    fresh = BeliefSpace(RegionContext(prepare(load_ta("ta_opaque"))))
    b1 = opaque_space.initial(A)
    b2 = fresh.initial(A)
    # beliefs of different spaces compare by their regions, not their ids
    mine, theirs = opaque_space.ctx, fresh.ctx
    assert regions(mine, b1) == regions(theirs, b2)
    assert regions(mine, opaque_space.successor(b1, "1", NONE)) == regions(
        theirs, fresh.successor(b2, "1", NONE)
    )


def test_only_tick_zero_leaves_bottom_and_only_delays_leave_a_belief():
    space = BeliefSpace(RegionContext(prepare(load_ta("ta_opaque"))))
    b0 = space.initial(A)
    bottom = "only the initial zero-time choice leaves bottom"
    for belief, tick, message in ((BOTTOM, "1", bottom), (BOTTOM, "0+", bottom),
                                  (b0, "0", "bad tick '0'")):
        with pytest.raises(ValueError, match=message):
            space.successor(belief, tick, A)
        with pytest.raises(ValueError, match=message):
            space.successors(belief, tick)
    assert space.successors_computed() == 1


def test_initial_is_the_step_out_of_bottom_counted_once():
    """`successor` keeps no cache: each call, `initial` included, is one
    closure, counted once."""
    space = BeliefSpace(RegionContext(prepare(load_ta("ta_opaque"))))
    assert space.successors_computed() == 0
    b0 = space.initial(A)
    assert space.successors_computed() == 1
    assert b0 == space.successor(BOTTOM, "0", A)
    assert space.initial({"a"}) == b0
    assert space.successors_computed() == 3
    assert space.initial(NONE) != b0
    assert space.successor(b0, "1", NONE) == space.successor(b0, "1", NONE)
    assert space.successors_computed() == 6


def _closures_counted(monkeypatch) -> list:
    """Patches `BeliefSpace._closure` and `_seed` to log each call by name."""
    calls = []
    for name in ("_closure", "_seed"):
        real = getattr(BeliefSpace, name)

        def logged(self, *args, _real=real, _name=name):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(BeliefSpace, name, logged)
    return calls


def test_a_second_successors_call_computes_its_classes_again(monkeypatch):
    """`successors` keeps no list: a second call on the same (belief, tick)
    returns an equal list, a new one, seeded by one more `_seed` call and
    counted as one more closure per class, on every belief the walk
    reaches."""
    calls = _closures_counted(monkeypatch)
    for name in PAPER_FIXTURES + ("minsky_halt",):
        space = BeliefSpace(RegionContext(prepare(load_ta(name))))
        for b in space.explore(state_cap=200).nodes:
            for tick in ticks_from(b):
                before = space.successors_computed()
                first = space.successors(b, tick)
                classes = space.successors_computed() - before
                calls.clear()
                again = space.successors(b, tick)
                assert again == first and again is not first, name
                assert calls.count("_seed") == 1, (name, tick)
                assert space.successors_computed() == before + 2 * classes, (name, tick)


def test_a_successors_call_computes_the_delay_image_once(monkeypatch):
    """Each `successors` call seeds every class closure from one delay
    image: one `_seed` call, and one closure per class at most, on beliefs
    whose steps need two classes or more."""
    calls = _closures_counted(monkeypatch)
    lattices = 0
    for name in PAPER_FIXTURES + ("minsky_halt",):
        space = BeliefSpace(RegionContext(prepare(load_ta(name))))
        for b in space.explore(state_cap=200).nodes:
            for tick in ticks_from(b):
                calls.clear()
                before = space.successors_computed()
                space.successors(b, tick)
                classes = space.successors_computed() - before
                assert calls.count("_seed") == 1, (name, tick)
                assert 1 <= calls.count("_closure") <= classes, (name, tick)
                lattices += classes > 1
    assert lattices > 100


def test_no_offinteger_moves_from_point_beliefs(opaque_space):
    b0 = opaque_space.initial(A)
    assert opaque_space.successor(b0, "0+", A) == DEAD


def _paper_edges_ta_opaque():
    return {
        ("bot", "0", "", "b0'"),
        ("bot", "0", "a", "b0"),
        ("b0", "1", "a", "b01"),
        ("b0", "1", "", "b01'"),
        ("b0'", "1", "a", "b01"),
        ("b0'", "1", "", "b01'"),
        ("b01", "1", "a", "b1"),
        ("b01", "1", "", "b1'"),
        ("b01", "0+", "", "b01'"),
        ("b01", "0+", "a", "b01"),
        ("b01'", "1", "a", "b1"),
        ("b01'", "1", "", "b1'"),
        ("b01'", "0+", "a", "b01"),
        ("b01'", "0+", "", "b01'"),
        ("b1", "1", "a", "b01"),
        ("b1", "1", "", "b01'"),
        ("b1'", "1", "a", "b01"),
        ("b1'", "1", "", "b01'"),
    }


def test_reconstruct_belief_automaton_ta_opaque(opaque_space):
    """The explored graph must match the published seven-state automaton
    exactly: states anchored by successor chains, edges compared as a set."""
    space = opaque_space
    b0 = space.initial(A)
    b0p = space.initial(NONE)
    b01 = space.successor(b0, "1", A)
    b01p = space.successor(b0, "1", NONE)
    b1 = space.successor(b01, "1", A)
    b1p = space.successor(b01, "1", NONE)
    anchors = [b0, b0p, b01, b01p, b1, b1p]
    assert len(set(anchors)) == 6
    names = {
        BOTTOM: "bot",
        b0: "b0",
        b0p: "b0'",
        b01: "b01",
        b01p: "b01'",
        b1: "b1",
        b1p: "b1'",
    }
    graph = space.explore()
    assert len(graph.nodes) == 7
    got = {
        (names[s], tick, "".join(sorted(e)), names[t])
        for s, tick, e, t in belief_edges(space, graph)
    }
    assert got == _paper_edges_ta_opaque()


def test_reconstruct_belief_automaton_two_clock_variant():
    """The two-clock published figure: 15 states (bottom included) and the
    full edge set; the lasso returns to the (2,3) interval beliefs."""
    space = load_space("ta_opaque2")
    seq = {}
    seq["b0"], seq["b0'"] = space.initial(A), space.initial(NONE)
    chain = [
        ("b(0,1)", "b(0,1)'", "b0"),
        ("b1", "b1'", "b(0,1)"),
        ("b(1,2)", "b(1,2)'", "b1"),
        ("b2", "b2'", "b(1,2)"),
        ("b(2,3)", "b(2,3)'", "b2"),
        ("b3", "b3'", "b(2,3)"),
    ]
    for with_a, without, src in chain:
        seq[with_a] = space.successor(seq[src], "1", A)
        seq[without] = space.successor(seq[src], "1", NONE)
    assert len(set(seq.values())) == 14
    names = {belief: name for name, belief in seq.items()}
    names[BOTTOM] = "bot"
    graph = space.explore()
    assert len(graph.nodes) == 15
    got = {
        (names[s], tick, "".join(sorted(e)), names[t])
        for s, tick, e, t in belief_edges(space, graph)
    }
    expected = {("bot", "0", "a", "b0"), ("bot", "0", "", "b0'")}
    ladder = ["b0", "b(0,1)", "b1", "b(1,2)", "b2", "b(2,3)", "b3"]
    for i, rung in enumerate(ladder):
        nxt = ladder[i + 1] if i + 1 < len(ladder) else "b(2,3)"
        for src in (rung, rung + "'"):
            expected.add((src, "1", "a", nxt))
            expected.add((src, "1", "", nxt + "'"))
    for rung in ("b(0,1)", "b(1,2)", "b(2,3)"):
        expected.add((rung, "0+", "a", rung))
        expected.add((rung, "0+", "", rung + "'"))
        expected.add((rung + "'", "0+", "a", rung))
        expected.add((rung + "'", "0+", "", rung + "'"))
    assert got == expected


def test_two_clock_belief_contents_match_published_lists():
    space = load_space("ta_opaque2")

    def proj(b):
        return sorted(
            {
                (
                    r.location,
                    -1 if r.ints[0] is None else r.ints[0],
                    -1 if r.ints[1] is None else r.ints[1],
                )
                for r in regions(space.ctx, b)
            }
        )

    b0 = space.initial(A)
    b01 = space.successor(b0, "1", A)
    b1 = space.successor(b01, "1", A)
    b1p = space.successor(b01, "1", NONE)
    b12 = space.successor(b1, "1", A)
    b2 = space.successor(b12, "1", A)
    b2p = space.successor(b12, "1", NONE)
    b23p = space.successor(b2, "1", NONE)
    b3p = space.successor(b23p, "1", NONE)
    assert proj(b0) == [("l0", 0, 0), ("lf", 0, 0), ("lpriv", 0, 0)]
    assert proj(b1p) == [("l0", 0, 1), ("l0", 1, 1), ("lpriv", 0, 1), ("lpriv", 1, 1)]
    assert proj(b12) == [("l0", 0, 1), ("lf", 0, 1), ("lpriv", -1, 1), ("lpriv", 0, 1)]
    assert proj(b2p) == [
        ("l0", 0, 2),
        ("l0", 1, 2),
        ("lf^p", 0, 2),
        ("lpriv", -1, 2),
        ("lpriv", 0, 2),
        ("lpriv", 1, 2),
    ]
    assert proj(b23p) == [("l0", 0, -1)]
    assert proj(b3p) == [("l0", 0, -1), ("l0", 1, -1)]


def test_initial_belief_singleton_without_zero_time_moves():
    from conftest import mortal_ta

    space = BeliefSpace(RegionContext(prepare(mortal_ta())))
    assert frozenset(space.initial(NONE)) == {space.ctx.initial_id()}


def test_initial_closure_keeps_silent_zero_edges():
    from etopaq.ta import (
        Action,
        Atom,
        Clock,
        Edge,
        SILENT,
        TimedAutomaton,
        make_finals_urgent,
    )

    u = Action("u", "uncontrollable")
    a = Action("a", "controllable")
    ta = make_finals_urgent(
        TimedAutomaton(
            name="eps0",
            actions=(a, u),
            locations=("l0", "lp", "lmid", "lf"),
            invariants={},
            init="l0",
            private="lp",
            finals=frozenset({"lf"}),
            clocks=(Clock(0, "x"),),
            edges=(
                Edge("l0", (Atom(0, "=", 0),), SILENT, frozenset(), "lmid"),
                Edge("lmid", (Atom(0, "=", 0),), u, frozenset(), "lf"),
            ),
        )
    )
    space = BeliefSpace(RegionContext(prepare(ta)))
    locations = space.ctx.locations
    assert {locations[i] for i in space.initial(NONE)} == {"l0", "lmid", "lf"}
    b = space.initial(NONE)
    assert {locations[i] for i in space.successor(b, "1", NONE)} >= {"lmid"}


# --- the belief closure against a reference closure over the region steps ------

PAPER_FIXTURES = ("ta_opaque", "ta1", "ta_opaque2", "ta_counterex", "ta_nfv", "t2_like", "t3_like")
GADGETS = ("minsky_halt", "minsky_inc_halt", "minsky_ifz_loop")


def _reference_closure(ctx, seed, enabled, allow_delay):
    """Zero-time closure straight over `discrete_steps`/`delay_steps`."""
    unc = ctx.ta.uncontrollable
    seen = set(seed)
    todo = list(seen)
    while todo:
        i = todo.pop()
        for action, j in ctx.discrete_steps(i):
            ok = action.kind == SILENT_KIND or action.name in unc or action.name in enabled
            if ok and j not in seen:
                seen.add(j)
                todo.append(j)
        if allow_delay:
            for tag, j in ctx.delay_steps(i):
                if tag == "0+" and j not in seen:
                    seen.add(j)
                    todo.append(j)
    return frozenset(seen)


def _reference_successor(ctx, belief, tick, enabled):
    seed = {j for i in belief for tag, j in ctx.delay_steps(i) if tag == tick}
    return _reference_closure(ctx, seed, enabled, allow_delay=True)


def _reference_initial(ctx, enabled):
    return _reference_closure(ctx, {ctx.initial_id()}, enabled, allow_delay=False)


def _assert_matches_reference(ta) -> int:
    """Every initial belief, and every successor of every reachable belief
    under every tick and every enabled set, the explored edges among them;
    returns the number of successors compared."""
    space = BeliefSpace(RegionContext(prepare(ta)))
    subsets = every_enabled_set(space)
    for enabled in subsets:
        got = space.initial(enabled)
        assert frozenset(got) == _reference_initial(space.ctx, enabled)
        assert sys.getsizeof(got) <= sys.getsizeof(frozenset(set(got)))
    ctx = space.ctx
    graph = space.explore()
    moves = {(s, tick, e): t for s, tick, e, t in belief_edges(space, graph)}
    compared = 0
    for b in graph.nodes:
        if b is BOTTOM:
            continue
        for tick in ("0+", "1"):
            for enabled in subsets:
                b2 = space.successor(b, tick, enabled)
                expected = _reference_successor(ctx, b, tick, enabled)
                assert frozenset(b2) == expected, (ta.name, tick, sorted(enabled))
                assert frozenset(moves.get((b, tick, enabled), b2)) == expected
                assert sys.getsizeof(b2) <= sys.getsizeof(frozenset(set(b2)))
                for belief in (b2, b | b2):
                    priv = any(is_final(ctx, i) and is_secret(ctx, i) for i in belief)
                    pub = any(is_final(ctx, i) and not is_secret(ctx, i) for i in belief)
                    assert space.has_private_final(belief) == priv
                    assert space.has_public_final(belief) == pub
                    assert _finals_present(space, belief) == (priv or pub)
                compared += 1
    return compared


def test_closure_matches_reference_on_paper_fixtures():
    for name in PAPER_FIXTURES:
        assert _assert_matches_reference(load_ta(name)) > 0, name


def test_closure_matches_reference_on_random_automata():
    from conftest import random_ta

    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    for i in range(50):
        assert _assert_matches_reference(random_ta(rng, name=f"ref{i}")) > 0


def _assert_no_stay_delay_on_tick_integers(ta) -> int:
    """The closure has one table of free steps, off-integer delays among
    them, also at the initial instant.  That rests on two facts checked
    here: discrete steps alone keep the tick clock on an integer from the
    initial region, and no region reachable under all steps with the tick
    clock on an integer has a '0+' delay step.  Returns how many such
    regions were seen."""
    ctx = RegionContext(prepare(ta))

    def on_integer(i):
        return ctx.tick in ctx.key(i)[2]

    initial = _reference_closure(ctx, {ctx.initial_id()}, ctx.ta.controllable, False)
    assert all(map(on_integer, initial))
    seen = {ctx.initial_id()}
    todo = list(seen)
    while todo:
        i = todo.pop()
        steps = ctx.delay_steps(i) + ctx.discrete_steps(i)
        for j in (j for _, j in steps if j not in seen):
            seen.add(j)
            todo.append(j)
    ticking = [i for i in seen if on_integer(i)]
    for i in ticking:
        assert all(tag != "0+" for tag, _ in ctx.delay_steps(i)), ctx.format_region(i)
    return len(ticking)


def test_no_stay_delay_with_the_tick_clock_on_an_integer():
    from conftest import random_ta

    names = PAPER_FIXTURES + GADGETS
    for name in names:
        assert _assert_no_stay_delay_on_tick_integers(load_ta(name)) > 0, name
    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    for i in range(60):
        assert _assert_no_stay_delay_on_tick_integers(random_ta(rng, name=f"tick{i}")) > 0



def _reference_moves(space, rid) -> tuple:
    """Region ``rid``'s move record built straight from `discrete_steps` and
    `delay_steps`, its controllable steps as a name bit -> targets dict."""
    ctx = space.ctx
    free, named = 0, {}
    for action, j in ctx.discrete_steps(rid):
        if action.kind == SILENT_KIND or action.name in space.uncontrollable:
            free |= 1 << j
        else:
            bit = 1 << space.controllable.index(action.name)
            named[bit] = named.get(bit, 0) | 1 << j
    delays = {"0+": 0, "1": 0}
    for tag, j in ctx.delay_steps(rid):
        delays[tag] |= 1 << j
    free |= delays["0+"] & ~(1 << rid)
    return free, named, delays["0+"], delays["1"], sum(named)


def test_move_records_match_the_region_steps():
    """Every region's `_moves_of` record against `_reference_moves`: the
    free mask holds silent and uncontrollable targets, self-loops included,
    and the '0+' delays to other regions, never the stay in place; each
    controllable name comes once, with all its targets and none of them
    free.  Counts the cases that tell these apart."""
    from conftest import random_ta

    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    automata = [load_ta(name) for name in PAPER_FIXTURES + GADGETS]
    automata += [random_ta(rng, name=f"moves{i}") for i in range(30)]
    seen = {"stays": 0, "free_loops": 0, "named": 0}
    for ta in automata:
        space = BeliefSpace(RegionContext(prepare(ta)))
        space.explore(state_cap=300)
        for rid in range(len(space.ctx.locations)):
            free, named, *rest = space._moves_of(rid)
            ref_free, ref_named, *ref_rest = _reference_moves(space, rid)
            assert len(dict(named)) == len(named), (ta.name, rid)  # each name once
            assert (free, dict(named), rest) == (ref_free, ref_named, ref_rest), (ta.name, rid)
            seen["stays"] += ("0+", rid) in space.ctx.delay_steps(rid)
            seen["free_loops"] += any(
                j == rid and a.name not in space.controllable for a, j in space.ctx.discrete_steps(rid)
            )
            seen["named"] += len(named)
    assert all(n > 20 for n in seen.values()), seen


# --- one successor per distinct belief against every enabled set --------------


def _assert_successors_dedup(space, state_cap=None) -> tuple[int, int]:
    """On every belief reachable within ``state_cap``, `successors` equals
    the first-seen dedup of `successor` (or `initial`) over every enabled
    set, as computed by a second space over the same regions that only
    closes; returns the number of beliefs checked and the most distinct
    successors of one belief under one tick.  ``space`` explores: a lost
    successor of an explored belief fails the comparison there."""
    beliefs = space.explore(state_cap=state_cap).nodes
    ref = BeliefSpace(space.ctx)
    widest = 0
    for b in beliefs:
        for tick in ("0",) if b is BOTTOM else ("0+", "1"):
            expected: dict = {}
            for e in every_enabled_set(ref):
                b2 = ref.initial(e) if b is BOTTOM else ref.successor(b, tick, e)
                expected.setdefault(b2, e)
            got = space.successors(b, tick)
            assert len({b2 for _, b2 in got}) == len(got), "duplicate belief"
            assert [(space.label(c << 2)[1], b2) for c, b2 in got] == [
                (e, b2) for b2, e in expected.items()
            ], tick
            widest = max(widest, len(got))
    return len(beliefs), widest


def test_successors_match_every_enabled_set_on_paper_fixtures():
    for name in PAPER_FIXTURES:
        space = BeliefSpace(RegionContext(prepare(load_ta(name))))
        assert _assert_successors_dedup(space)[0] > 1, name


def test_successors_match_every_enabled_set_on_random_automata():
    from conftest import random_ta

    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    for i in range(50):
        space = BeliefSpace(RegionContext(prepare(random_ta(rng, name=f"succ{i}"))))
        assert _assert_successors_dedup(space)[0] > 1


def test_successors_match_every_enabled_set_on_chained_names():
    """Three or four controllable names whose steps chain, so that classes
    of two names or more are grown from smaller ones, some through regions
    that only a smaller class reaches."""
    from conftest import chained_ta

    rng = random.Random(20261018)
    wide = 0
    for i in range(40):
        space = BeliefSpace(RegionContext(prepare(chained_ta(rng, name=f"chain{i}"))))
        checked, widest = _assert_successors_dedup(space, state_cap=60)
        assert checked > 1
        wide += widest > 4  # more distinct successors than two names can make
    assert wide >= 30


def test_successors_match_every_enabled_set_on_minsky_gadgets():
    for name in GADGETS:
        space = BeliefSpace(RegionContext(prepare(load_ta(name))))
        assert _assert_successors_dedup(space, state_cap=300)[0] > 300, name


# --- each class of names against its closure from scratch ---------------------


def _classes_checked(monkeypatch) -> dict:
    """Patches `BeliefSpace._grow_classes` so that on every `successors` call
    each class of the dict it completes, ∅, the one-name classes and the
    full class that `successors` hands it included, must equal `_closure(seed, c)` computed
    from the seed alone; `_seed` is patched to remember that seed.  Counts
    the classes of two names or more below the full class, and those among
    them that are not the union of their two parents' closures: c without
    its lowest name, and that name alone."""
    seen = {"multi": 0, "not_union": 0}
    seed = [0]
    real_seed, real_grow = BeliefSpace._seed, BeliefSpace._grow_classes

    def seeded(self, *args):
        seed[0] = real_seed(self, *args)
        return seed[0]

    def checked(self, closed, names):
        real_grow(self, closed, names)
        assert closed.keys() == set(self._classes_below(names))
        for c, mask in closed.items():
            assert mask == self._closure(seed[0], c), (self.ctx.ta.name, bin(c))
            n = c & -c
            if c not in (n, names):
                seen["multi"] += 1
                seen["not_union"] += mask != closed[c ^ n] | closed[n]

    monkeypatch.setattr(BeliefSpace, "_seed", seeded)
    monkeypatch.setattr(BeliefSpace, "_grow_classes", checked)
    return seen


def test_every_class_is_its_closure_from_scratch_on_chained_names(monkeypatch):
    """Where steps of one name lead to where another fires, a class of two
    names or more is often more than the union of its parents' closures."""
    from conftest import chained_ta

    seen = _classes_checked(monkeypatch)
    rng = random.Random(20261018)
    for i in range(40):
        space = BeliefSpace(RegionContext(prepare(chained_ta(rng, name=f"chain{i}"))))
        space.explore(state_cap=60)
    assert seen["multi"] > 5000 and seen["not_union"] > 1500, seen


def test_every_class_is_its_closure_from_scratch_on_random_automata(monkeypatch):
    from conftest import random_ta

    seen = _classes_checked(monkeypatch)
    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    for i in range(50):
        BeliefSpace(RegionContext(prepare(random_ta(rng, name=f"cls{i}")))).explore()
    assert seen["multi"] == 0, seen  # two controllable names at most: no class is a union


def test_every_class_is_its_closure_from_scratch_on_fixtures_and_gadgets(monkeypatch):
    seen = _classes_checked(monkeypatch)
    for name in PAPER_FIXTURES:
        BeliefSpace(RegionContext(prepare(load_ta(name)))).explore()
    assert seen["multi"] == 0, seen  # two controllable names at most
    for name in GADGETS:
        BeliefSpace(RegionContext(prepare(load_ta(name)))).explore(state_cap=2000)
    assert seen["multi"] > 5000 and seen["not_union"] == 0, seen


def test_a_gadget_step_closes_only_the_empty_full_and_one_name_classes(monkeypatch):
    """On the gadgets no step escapes its name's own closure, so a
    `successors` call over the 2^|T| classes of T runs at most |T| + 2
    closure walks: the full class, ∅, and one per name."""
    calls = _closures_counted(monkeypatch)
    widest = 0
    for name in GADGETS:
        space = BeliefSpace(RegionContext(prepare(load_ta(name))))
        for b in space.explore(state_cap=200).nodes:
            for tick in ticks_from(b):
                calls.clear()
                before = space.successors_computed()
                space.successors(b, tick)
                classes = space.successors_computed() - before
                names = classes.bit_length() - 1  # classes == 2 ** |T|
                assert calls.count("_closure") <= names + 2, (name, classes)
                widest = max(widest, classes)
    assert widest == 256


def test_a_successors_call_walks_from_nothing_once(monkeypatch):
    """∅ is the one class closed from the seed: the one-name classes grow
    from ∅ and the full class from their union, so each `successors` call
    makes exactly one `_closure` call with nothing closed yet, also where
    names can fire and there are classes to grow."""
    from conftest import chained_ta

    fresh = []
    real = BeliefSpace._closure

    def logged(self, *args):
        fresh.append(len(args) < 3 or args[2] == 0)
        return real(self, *args)

    monkeypatch.setattr(BeliefSpace, "_closure", logged)
    rng = random.Random(20261018)
    automata = [load_ta(name) for name in PAPER_FIXTURES + GADGETS]
    automata += [chained_ta(rng, name=f"chain{i}") for i in range(10)]
    firing = 0
    for ta in automata:
        space = BeliefSpace(RegionContext(prepare(ta)))
        for b in space.explore(state_cap=200).nodes:
            for tick in ticks_from(b):
                fresh.clear()
                before = space.successors_computed()
                space.successors(b, tick)
                assert fresh.count(True) == 1, (ta.name, tick)
                firing += space.successors_computed() - before > 1
    assert firing > 1000


# --- beliefs as bit masks -----------------------------------------------------


def test_leak_predicates_see_finals_interned_after_an_answer():
    """The final masks grow as regions are interned and the predicates read
    them live: a final region first met after the space has answered a leak
    test still counts.  Masks built once, at construction, lose them."""
    space = BeliefSpace(RegionContext(prepare(load_ta("ta_counterex"))))
    ctx = space.ctx
    b0 = space.initial(NONE)
    assert not space.has_private_final(b0) and not space.has_public_final(b0)
    assert ctx.private_mask == ctx.public_mask == 0  # no final region interned yet
    graph = space.explore()
    seen = {"private": 0, "public": 0}
    for b in graph.nodes:
        if b is BOTTOM:
            continue
        priv = any(is_final(ctx, i) and is_secret(ctx, i) for i in b)
        pub = any(is_final(ctx, i) and not is_secret(ctx, i) for i in b)
        assert space.has_private_final(b) == priv and space.has_public_final(b) == pub
        seen["private"] += priv
        seen["public"] += pub
    assert seen["private"] and seen["public"], seen


def test_belief_view_iterates_ids_in_order_and_agrees_with_in_and_len():
    """A `Belief` reads its mask as a set: iteration gives the ids of the set
    bits in increasing order, once each, `in` and `len` agree with it, and
    `|` is the union, itself a `Belief`."""
    from conftest import random_ta

    rng = random.Random(20240917)
    checked = 0
    for i in range(20):
        space = BeliefSpace(RegionContext(prepare(random_ta(rng, name=f"view{i}"))))
        for b in space.explore().nodes:
            if b is BOTTOM:
                continue
            members = list(b)
            assert members == sorted(set(members))
            assert sum(1 << j for j in members) == b
            assert len(b) == len(members)
            assert all(j in b for j in members)
            assert not any(j in b for j in range(len(space.ctx.locations)) if j not in members)
            other = space.initial(frozenset())
            assert type(b | other) is Belief and set(b | other) == set(b) | set(other)
            checked += 1
    assert checked > 20
