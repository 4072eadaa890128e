from __future__ import annotations

import copy
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from concrete import (
    ConcreteStrategy,
    Piece,
    StepError,
    build_run,
    classify_run,
    initial_state,
    sigma_compatible,
    step_delay,
    step_discrete,
    validate_run,
)
from conftest import FIXTURES, edges_by_key, load_ta
from etopaq import (
    add_tick_clock,
    duplicate,
    make_finals_urgent,
    prepare,
    taformat,
    validate,
)
from etopaq.ta import (
    CONTROLLABLE,
    SILENT,
    TICK_CLOCK,
    UNCONTROLLABLE,
    Action,
    Atom,
    Edge,
    Violation,
    is_primed,
    prime,
)


def test_validate_ta1_clean():
    assert validate(load_ta("ta1")) == []


def test_validate_rejects_edge_out_of_final():
    ta = load_ta("ta1")
    extra = Edge("lf", (), ta.actions[-1], frozenset(), "l0")
    bad = replace(ta, edges=ta.edges + (extra,))
    rules = {v.rule for v in validate(bad)}
    assert "final-has-outgoing" in rules


def test_validate_rejects_private_final():
    ta = load_ta("ta1")
    bad = replace(ta, finals=frozenset({ta.private}))
    rules = {v.rule for v in validate(bad)}
    assert "private-is-final" in rules


def test_validate_rejects_non_urgent_finals():
    ta = load_ta("ta1")
    # strip the urgency clock's invariant pin
    inv = {loc: () for loc in ta.finals}
    bad = replace(ta, invariants={**dict(ta.invariants), **inv})
    rules = {v.rule for v in validate(bad)}
    assert "final-not-urgent" in rules


def test_validate_rejects_an_action_name_declared_twice():
    """`a` declared uncontrollable too would make the belief side treat it as
    free, and `ta_opaque` full would read UNSAT; `~` is the silent action's."""
    ta = load_ta("ta_opaque")
    for name in ("a", "~"):
        bad = replace(ta, actions=ta.actions + (Action(name, UNCONTROLLABLE),))
        assert [v for v in validate(bad) if v.rule == "duplicate-action-name"] == [
            Violation("duplicate-action-name", ta.name)
        ]
        with pytest.raises(ValueError, match="duplicate-action-name"):
            prepare(bad)


def test_validate_rejects_an_edge_with_an_undeclared_action():
    """An edge's action must be declared, with its kind, or be the silent
    one, which the tick self-loops and the random automata carry."""
    ta = load_ta("ta_opaque")
    for action in (Action("b", CONTROLLABLE), Action("a", UNCONTROLLABLE)):
        edges = tuple(replace(e, action=action) if e.action.name == "a" else e for e in ta.edges)
        rules = [v.rule for v in validate(replace(ta, edges=edges))]
        assert rules == ["edge-unknown-action"], action
    silent = tuple(replace(e, action=SILENT) if e.action.name == "a" else e for e in ta.edges)
    assert validate(replace(ta, edges=silent)) == []


def test_make_finals_urgent_restores_validity():
    ta = load_ta("ta1")
    inv = {loc: () for loc in ta.finals}
    broken = replace(ta, invariants={**dict(ta.invariants), **inv})
    urgent = make_finals_urgent(broken)
    assert validate(urgent) == []
    assert urgent.clocks[-1].name == "w1"  # ta1 declares w


def test_validate_returns_a_fresh_list_each_call():
    """The violations are found once per automaton value; each call still
    hands out a list of its own."""
    ta = load_ta("ta1")
    bad = replace(ta, finals=frozenset({ta.private}))
    first, second = validate(bad), validate(bad)
    assert first == second != [] and first is not second
    first.clear()
    assert validate(bad) == second
    clean = validate(ta)
    clean.append(second[0])
    assert validate(ta) == []


def test_replace_is_validated_afresh():
    ta = load_ta("ta1")
    assert validate(ta) == []
    bad = replace(ta, finals=frozenset({ta.private}))
    assert "private-is-final" in {v.rule for v in validate(bad)}
    assert validate(replace(bad, finals=ta.finals)) == []
    assert validate(ta) == []
    assert ta.controllable is ta.controllable == {"a", "b"}


def test_prepare_of_an_invalid_automaton_raises():
    bad = replace(load_ta("ta1"), finals=frozenset({"l0", "lf"}))
    with pytest.raises(ValueError, match="final-has-outgoing"):
        prepare(bad)
    assert validate(bad)  # now its violations are kept on the value
    with pytest.raises(ValueError, match="final-has-outgoing"):
        prepare(bad)


def test_final_urgency_matches_its_definition_on_random_automata():
    """Some clock is pinned to 0 in every final and reset on every edge into
    one: checked against that sentence, on draws with pins and resets dropped."""
    from conftest import random_ta

    rng = random.Random(16)
    seen = set()
    for i in range(200):
        ta = random_ta(rng, name=f"urg{i}")
        if rng.random() < 0.5:  # drop the pin of one clock, or every pin
            keep = rng.choice([None, *range(len(ta.clocks))])
            inv = {f: tuple(a for a in ta.invariant(f) if a.clock == keep) for f in ta.finals}
            ta = replace(ta, invariants={**dict(ta.invariants), **inv})
        edges = tuple(
            replace(e, resets=frozenset(r for r in e.resets if rng.random() < 0.7))
            for e in ta.edges
        )
        ta = replace(ta, edges=edges)
        incoming = [e for e in ta.edges if e.target in ta.finals]
        urgent = any(
            all(Atom(c.index, "=", 0) in ta.invariant(f) for f in ta.finals)
            and all(c.index in e.resets for e in incoming)
            for c in ta.clocks
        )
        rules = {v.rule for v in validate(ta)}
        assert ("final-not-urgent" not in rules) == urgent, i
        seen.add(urgent)
    assert seen == {True, False}


def test_add_tick_clock_shape():
    ta = load_ta("ta_opaque")
    ticked = add_tick_clock(ta)
    z = ticked.clock_named(TICK_CLOCK).index
    loops = [
        e
        for e in ticked.edges
        if e.source == e.target and e.resets == frozenset({z})
    ]
    assert len(loops) == len(ta.locations) == 3
    for loc in ticked.locations:
        assert Atom(z, "<=", 1) in ticked.invariant(loc)
    with pytest.raises(ValueError):
        add_tick_clock(ticked)


def test_add_tick_clock_single_location():
    ta = load_ta("ta_opaque")
    solo = replace(
        ta,
        locations=("l0",),
        invariants={"l0": ()},
        edges=(),
        finals=frozenset(),
        private="l0",
    )
    ticked = add_tick_clock(solo)
    assert sum(1 for e in ticked.edges if e.source == e.target) == 1


def test_duplicate_counts_ta1():
    dup = duplicate(load_ta("ta1"))
    assert len(dup.locations) == 12
    assert dup.finals == frozenset({"lf", prime("lf")})


def test_duplicate_counts_ta_opaque():
    dup = duplicate(load_ta("ta_opaque"))
    assert len(dup.locations) == 6
    # edges out of the private location land in the primed copy
    assert all(
        is_primed(e.target) for e in dup.edges if e.source == dup.private
    )


def test_duplicate_unreachable_private_is_still_syntactic():
    ta = load_ta("ta_opaque")
    pruned = replace(
        ta, edges=tuple(e for e in ta.edges if e.target != ta.private)
    )
    dup = duplicate(pruned)
    assert len(dup.locations) == 2 * len(ta.locations)


def test_step_discrete_paper_run_step():
    ta = prepare(load_ta("ta1"))
    e3 = edges_by_key(ta)["l0>l0/u"]
    state = step_delay(ta, initial_state(ta), Fraction(1))
    after = step_discrete(ta, state, e3)
    assert after[0] == "l0"
    assert after[1][0] == 0  # x reset


def test_step_delay_zero_is_identity():
    ta = prepare(load_ta("ta1"))
    s = initial_state(ta)
    assert step_delay(ta, s, Fraction(0)) == s


def test_step_delay_invariant_breach():
    ta = prepare(load_ta("ta_opaque"))
    s = step_delay(ta, initial_state(ta), Fraction(1, 2))
    with pytest.raises(StepError):
        step_delay(ta, s, Fraction(3, 5))


def test_classify_private_and_public_runs():
    dup = prepare(load_ta("ta1"))
    E = edges_by_key(dup)
    rho1 = build_run(
        dup, [(1, E["l0>l0/u"]), (0, E["l0>lpriv/u"]), (0, E["lpriv>lf^p/u"])]
    )
    kind, duration = classify_run(dup, rho1)
    assert (kind, duration) == ("private", Fraction(1))
    rho2 = build_run(
        dup,
        [
            (Fraction(1, 10), E["l0>l2/b"]),
            (0, E["l2>l3/a"]),
            (Fraction(4, 5), E["l3>lf/u"]),
        ],
    )
    kind, duration = classify_run(dup, rho2)
    assert (kind, duration) == ("public", Fraction(9, 10))
    mid = build_run(dup, [(0, E["l0>l1/a"])])
    assert classify_run(dup, mid)[0] == "neither"


def test_classify_rejects_illegal_run():
    dup = prepare(load_ta("ta1"))
    E = edges_by_key(dup)
    run = build_run(dup, [(1, E["l0>l0/u"])])
    broken = replace(run, moves=((Fraction(1, 2), E["l0>l0/u"]),))
    with pytest.raises(ValueError):
        classify_run(dup, broken)


def test_duration_is_exact_sum():
    dup = prepare(load_ta("ta1"))
    E = edges_by_key(dup)
    run = build_run(
        dup,
        [
            (Fraction(1, 3), E["l0>l2/b"]),
            (0, E["l2>l3/a"]),
            (Fraction(1, 6), E["l3>lf/u"]),
        ],
    )
    assert run.duration == Fraction(1, 2)


def _translate_to_dup(ta, dup, run):
    """Location projection: replay the raw run inside the duplicated TA."""
    visited = False
    moves = []
    dup_edges = {
        (e.source, e.target, e.action.name, e.guard, e.resets): e
        for e in dup.edges
    }
    for d, e in run.moves:
        src = prime(e.source) if visited and e.source != ta.private else e.source
        if e.source == ta.private or visited:
            tgt = prime(e.target)
        else:
            tgt = e.target
        moves.append((d, dup_edges[(src, tgt, e.action.name, e.guard, e.resets)]))
        if e.target == ta.private:
            visited = True
    return build_run(dup, moves)


def test_duplication_preserves_durations():
    ta = load_ta("ta1")
    dup = duplicate(ta)
    E = edges_by_key(ta)
    raw_runs = [
        build_run(ta, [(1, E["l0>l0/u"]), (0, E["l0>lpriv/u"]), (0, E["lpriv>lf/u"])]),
        build_run(ta, [(Fraction(1, 2), E["l0>l1/a"]), (Fraction(1, 4), E["l1>lf/b"])]),
    ]
    for run in raw_runs:
        twin = _translate_to_dup(ta, dup, run)
        assert twin.duration == run.duration
        assert [m[0] for m in twin.moves] == [m[0] for m in run.moves]
        # and back: dropping primes recovers the original locations
        back = [loc.removesuffix("^p") for loc, _ in twin.states]
        assert back == [loc for loc, _ in run.states]


def _random_run(ta, rng, steps=12):
    state = initial_state(ta)
    moves = []
    elapsed = Fraction(0)
    for _ in range(steps):
        candidates = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        rng.shuffle(candidates)
        fired = False
        for d in candidates:
            try:
                mid = step_delay(ta, state, d)
            except StepError:
                continue
            edges = [e for e in ta.edges if e.source == state[0]]
            rng.shuffle(edges)
            for e in edges:
                try:
                    nxt = step_discrete(ta, mid, e)
                except StepError:
                    continue
                moves.append((d, e))
                state = nxt
                elapsed += d
                fired = True
                break
            if fired:
                break
        if not fired:
            break
    return build_run(ta, moves)


def test_tick_clock_tracks_fractional_time():
    rng = random.Random(7)
    for name in ("ta1", "ta_opaque", "ta_counterex"):
        ta = prepare(load_ta(name))
        z = ta.clock_named(TICK_CLOCK).index
        for _ in range(25):
            run = _random_run(ta, rng)
            elapsed = Fraction(0)
            for (d, _), state in zip(run.moves, run.states[1:]):
                elapsed += d
                fract = elapsed - int(elapsed)
                zval = state[1][z]
                if fract != 0:
                    assert zval == fract
                else:
                    assert zval in (0, 1)


def test_sigma_compatible_examples(opaque_space):
    dup = opaque_space.ctx.ta
    E = edges_by_key(dup)
    run = build_run(dup, [(0, E["l0>lf/a"])])
    integers_only = ConcreteStrategy(
        (
            Piece(Fraction(0), False, Fraction(0), False, frozenset({"a"})),
            Piece(Fraction(0), True, Fraction(1), True, frozenset()),
        )
    )
    assert sigma_compatible(run, integers_only)
    never = ConcreteStrategy(
        (Piece(Fraction(0), False, Fraction(1), True, frozenset()),)
    )
    assert not sigma_compatible(run, never)
    u_only = build_run(dup, [(0, E["l0>lpriv/u"]), (0, E["lpriv>lf^p/u"])])
    assert sigma_compatible(u_only, never)


def test_sigma_compatible_monotone_in_enabled():
    dup = prepare(load_ta("ta1"))
    E = edges_by_key(dup)
    run = build_run(
        dup, [(Fraction(1, 2), E["l0>l1/a"]), (Fraction(1, 4), E["l1>lf/b"])]
    )
    cut = Fraction(3, 5)
    split = ConcreteStrategy(
        (
            Piece(Fraction(0), False, cut, True, frozenset({"a"})),
            Piece(cut, False, Fraction(1), True, frozenset({"b"})),
        )
    )
    widened = ConcreteStrategy(
        (
            Piece(Fraction(0), False, cut, True, frozenset({"a", "b"})),
            Piece(cut, False, Fraction(1), True, frozenset({"a", "b"})),
        )
    )
    assert sigma_compatible(run, split)
    assert sigma_compatible(run, widened)
    swapped = ConcreteStrategy(
        (
            Piece(Fraction(0), False, cut, True, frozenset({"b"})),
            Piece(cut, False, Fraction(1), True, frozenset({"a"})),
        )
    )
    assert not sigma_compatible(run, swapped)


def test_validate_run_rejects_wrong_start():
    dup = prepare(load_ta("ta1"))
    E = edges_by_key(dup)
    run = build_run(dup, [(1, E["l0>l0/u"])])
    shifted = replace(run, states=(("l1", run.states[0][1]),) + run.states[1:])
    assert not validate_run(dup, shifted)


def test_prepared_automaton_has_the_tick_shape_and_is_not_prepared_again():
    """Every location of a prepared fixture carries ``z <= 1`` and one
    silent self-loop at ``z = 1`` that resets z, and a final location's only
    outgoing edge is that loop.  `validate` answers whether `prepare` takes
    an automaton, so on a prepared one it names the tick clock and the
    primed copy, and `prepare` refuses it."""
    for path in sorted(FIXTURES.glob("*.ta")):
        prepared = prepare(taformat.load(str(path)))
        z = prepared.clock_named(TICK_CLOCK).index
        for loc in prepared.locations:
            assert Atom(z, "<=", 1) in prepared.invariant(loc), (path.name, loc)
            loop = Edge(loc, (Atom(z, "=", 1),), SILENT, frozenset({z}), loc)
            out = [e for e in prepared.edges if e.source == loc]
            loops = [e for e in out if e == loop]
            assert len(loops) == 1, (path.name, loc)
            if loc in prepared.finals:
                assert out == loops, (path.name, loc)
        rules = {v.rule for v in validate(prepared)}
        assert {"reserved-clock-name", "reserved-location-suffix"} <= rules, path.name
        with pytest.raises(ValueError):
            prepare(prepared)


def test_init_may_coincide_with_private():
    # every completed run is then private; the duplicated automaton starts
    # in the remembered-visit half
    from etopaq.ta import (
        Atom,
        Clock,
        Edge,
        TimedAutomaton,
        Action,
        make_finals_urgent,
    )
    from etopaq.beliefs import BeliefSpace
    from etopaq.regions import RegionContext
    from etopaq.game import Mode, check_exists, check_metastrategy
    from etopaq.strategies import all_enabled

    u = Action("u", "uncontrollable")
    a = Action("a", "controllable")
    ta = make_finals_urgent(
        TimedAutomaton(
            name="init_private",
            actions=(a, u),
            locations=("l0", "lf"),
            invariants={},
            init="l0",
            private="l0",
            finals=frozenset({"lf"}),
            clocks=(Clock(0, "x"),),
            edges=(Edge("l0", (), u, frozenset(), "lf"),),
        )
    )
    assert validate(ta) == []
    space = BeliefSpace(RegionContext(prepare(ta)))
    assert not check_exists(space).holds  # no public run can ever exist
    assert not check_metastrategy(space, all_enabled(ta), Mode.WEAK).ok


def test_automata_are_hashable_picklable_values():
    """An automaton is an immutable value: its hash agrees with ``==``, also
    across a dump/parse round trip, and pickling or deep-copying it, prepared
    or not, gives an equal value whose invariants are still read-only."""
    for name in ("ta1", "ta_opaque", "ta_counterex", "minsky_halt"):
        ta = load_ta(name)
        again = taformat.parse(taformat.dump(ta))
        assert again == ta and hash(again) == hash(ta), name
        prepared = prepare(ta)
        assert {ta: 0, again: 1, prepared: 2} == {ta: 1, prepared: 2}, name
        for value in (ta, prepared):
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert twin == value and hash(twin) == hash(value), name
                with pytest.raises(TypeError):
                    twin.invariants[value.init] = ()
