from __future__ import annotations

import gc
import random
import weakref

import pytest

from conftest import (
    SOLVE_FIXTURES,
    every_enabled_set,
    fixture_path,
    leaking_full,
    load_space,
    load_ta,
)
from etopaq import msformat, prepare
from etopaq.beliefs import BOTTOM, DEAD, Belief, BeliefSpace
from etopaq.game import (
    DEFAULT_STATE_CAP,
    INITIAL,
    Mode,
    WinningWitness,
    check_exists,
    check_metastrategy,
    explore,
    game_successors,
    point_loop,
    solve,
    witness_to_metastrategy,
)
from etopaq.graphs import bfs
from etopaq.oracle import oracle_buckets, oracle_verdict
from etopaq.regions import RegionContext
from etopaq.strategies import Bucket, MetaStrategy, UnitPlan, all_enabled
from etopaq.ta import is_primed

PAPER_FIXTURES = ("ta_opaque", "ta1", "ta_opaque2", "ta_counterex", "ta_nfv", "t2_like", "t3_like")
A = frozenset({"a"})
AB = frozenset({"a", "b"})
NONE = frozenset()


def _moves(space, st, mode):
    """`game_successors` with each int label decoded to (tick, enabled)."""
    return [(space.label(code), nxt) for code, nxt in game_successors(space, st, mode)]


def test_game_labels_are_class_mask_and_tick_code(opaque_space):
    """A label is the enabled set's mask over the sorted controllable
    names, shifted past two bits of tick code: 0 '0', 1 '0+', 2 '1'."""
    assert opaque_space.controllable == ("a",)
    assert [opaque_space.label(code) for code in (0, 1, 2, 4, 5, 6)] == [
        ("0", NONE), ("0+", NONE), ("1", NONE), ("0", A), ("0+", A), ("1", A)
    ]
    assert [code for code, _ in game_successors(opaque_space, INITIAL, Mode.FULL)] == [0, 4]


def test_game_initial_moves(opaque_space):
    moves = _moves(opaque_space, INITIAL, Mode.FULL)
    assert [lbl for lbl, _ in moves] == [("0", NONE), ("0", A)]
    for (_, enabled), (current, accumulated, at_integer, memo) in moves:
        assert current == accumulated == opaque_space.initial(enabled)
        assert at_integer and not memo


def test_game_prunes_leaking_point(opaque_space):
    # the choice (0, {}) leads to a leaking time-0 bucket: no way out
    (_, bad), (_, good) = game_successors(opaque_space, INITIAL, Mode.FULL)
    assert game_successors(opaque_space, bad, Mode.FULL) == []
    follow = _moves(opaque_space, good, Mode.FULL)
    assert follow and all(lbl[0] == "1" for lbl, _ in follow)


def test_game_point_states_offer_only_tick1(opaque_space):
    _, good = game_successors(opaque_space, INITIAL, Mode.FULL)[1]
    for lbl, (current, accumulated, at_integer, _) in _moves(opaque_space, good, Mode.FULL):
        assert lbl[0] == "1"
        assert not at_integer
        assert accumulated == current


def test_game_interval_accumulates(opaque_space):
    _, good = game_successors(opaque_space, INITIAL, Mode.FULL)[1]
    _, mid = game_successors(opaque_space, good, Mode.FULL)[0]
    for lbl, (current, accumulated, _, _) in _moves(opaque_space, mid, Mode.FULL):
        if lbl[0] == "0+":
            assert accumulated == mid[1] | current  # mid's accumulated belief and the step's
        else:
            assert accumulated == current


def test_almost_mode_ignores_leaking_points(opaque_space):
    (_, bad), _ = game_successors(opaque_space, INITIAL, Mode.ALMOST_FULL)
    _, accumulated, _, _ = bad
    assert leaking_full(opaque_space, accumulated)
    assert game_successors(opaque_space, bad, Mode.ALMOST_FULL)


def test_ta1_full_prunes_everything_after_ab():
    space = load_space("ta1")
    starts = dict((enabled, st) for (tick, enabled), st in _moves(space, INITIAL, Mode.FULL))
    st = starts[AB]
    # time 0 is balanced, but every open interval then has public finals only
    for lbl, nxt in game_successors(space, st, Mode.FULL):
        closes = [l for l, _ in _moves(space, nxt, Mode.FULL) if l[0] == "1"]
        assert closes == []


def _assert_labels_mean_their_moves(space, mode, state_cap) -> int:
    """On every state the game expands: the decoded labels come in label
    order (tick, then fewest names, then sorted names), no two edges share
    a target, and each target's current belief is the belief step under
    its label.  Returns the edges checked."""
    g = explore(space, mode, state_cap, None)
    checked = 0
    for i in range(len(g.ends)):
        current = g.nodes[i][0]
        steps = [(space.label(g.labels[lid]), j) for lid, j in g.steps(i)]
        keys = [(t, len(e), sorted(e)) for (t, e), _ in steps]
        assert keys == sorted(keys) and len(set(map(repr, keys))) == len(keys), keys
        assert len({j for _, j in steps}) == len(steps)
        for (tick, enabled), j in steps:
            assert space.successor(current, tick, enabled) == g.nodes[j][0], (tick, enabled)
        checked += len(steps)
    return checked


def test_game_labels_decode_to_the_moves_they_label():
    from conftest import random_ta

    checked = sum(
        _assert_labels_mean_their_moves(load_space(name), mode, None)
        for name in PAPER_FIXTURES
        for mode in Mode
    )
    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    for i in range(20):
        ta = random_ta(rng, name=f"labels{i}")
        for mode in Mode:
            space = BeliefSpace(RegionContext(prepare(ta)))
            checked += _assert_labels_mean_their_moves(space, mode, 2000)
    # the gadgets have eight names: label order and the order of mask values differ
    # only from four names on, and the other automata here have two at most
    for name in GADGETS:
        checked += _assert_labels_mean_their_moves(_fresh_space(name), Mode.WEAK, 20)
    assert checked > 1000


# --- solving the paper examples ------------------------------------------------


def test_solve_ta_opaque_full_sat(opaque_space):
    res = solve(opaque_space, Mode.FULL)
    assert res.status == "SAT"
    phi = witness_to_metastrategy(res.witness)
    assert check_metastrategy(opaque_space, phi, Mode.FULL).ok
    star = MetaStrategy((), (UnitPlan(A, (NONE,)),))
    assert check_metastrategy(opaque_space, star, Mode.FULL).ok


def test_solve_ta1_full_unsat():
    space = load_space("ta1")
    res = solve(space, Mode.FULL)
    assert res.status == "UNSAT"
    assert res.stats.states > 0


def test_solve_ta1_weak_sat():
    space = load_space("ta1")
    res = solve(space, Mode.WEAK)
    assert res.status == "SAT"
    phi = witness_to_metastrategy(res.witness)
    assert check_metastrategy(space, phi, Mode.WEAK).ok
    # the all-enabled meta-strategy also works: private durations stay inside
    assert check_metastrategy(space, all_enabled(load_ta("ta1")), Mode.WEAK).ok


def test_solve_counterexample_regression():
    """The paper only shows one meta-strategy failing on this automaton; the
    solver's verdicts are pinned here after oracle cross-checks."""
    space = load_space("ta_counterex")
    expected = {
        Mode.FULL: "UNSAT",
        Mode.WEAK: "UNSAT",
        Mode.ALMOST_FULL: "SAT",
        Mode.CLOSED_FULL: "UNSAT",
    }
    for mode, status in expected.items():
        assert solve(space, mode).status == status


def test_solve_closed_loop_all_fixtures_and_modes():
    """Every SAT witness must pass both the belief-side check and the
    oracle-side verdict in its own mode."""
    for name in SOLVE_FIXTURES:
        space = load_space(name)
        for mode in Mode:
            res = solve(space, mode)
            assert res.status in ("SAT", "UNSAT")
            if res.status == "SAT":
                phi = witness_to_metastrategy(res.witness)
                assert check_metastrategy(space, phi, mode).ok, (name, mode)
                table = oracle_buckets(space.ctx, phi)
                ok, offending = oracle_verdict(table, mode)
                assert ok, (name, mode, offending)


def test_solve_state_cap_yields_indeterminate(opaque_space):
    res = solve(opaque_space, Mode.FULL, state_cap=2)
    assert res.status == "INDETERMINATE"
    assert "cap" in res.detail
    # the partial counts survive the cap
    assert res.stats.states > 2
    assert res.stats.edges > 0


def test_a_walk_out_of_memory_keeps_its_store_consistent(monkeypatch):
    """Whichever append of `graphs.bfs` runs out of memory, the store it
    returns has one parent and one parent-edge label per node, each parent
    found before its child, and no edge row for a node it does not hold."""
    import etopaq.graphs as graphs

    class Exhausting(graphs.array):
        left = 0  # appends before memory runs out, over every array of the walk

        def append(self, x):
            Exhausting.left -= 1
            if Exhausting.left < 0:
                raise MemoryError
            super().append(x)

    def steps(n):  # an infinite binary tree, with an edge back up from each node
        return [("l", 2 * n + 1), ("r", 2 * n + 2), ("up", n // 2)]

    monkeypatch.setattr(graphs, "array", Exhausting)
    for k in range(80):
        Exhausting.left = k
        g = graphs.bfs(0, steps)
        assert g.stopped == "out of memory", k
        assert len(g.parent) == len(g.via) == len(g.nodes) >= len(g.ends), k
        for i in range(1, len(g.nodes)):
            assert g.parent[i] < i and 0 <= g.via[i] < len(g.labels), (k, i)


# --- the search for a point state on a cycle ---------------------------------------


def _reached(g, i) -> set[int]:
    """The ids node ``i`` of the store ``g`` reaches by zero edges or more."""
    seen, todo = {i}, [i]
    while todo:
        for _, j in g.steps(todo.pop()):
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return seen


def test_point_loop_finds_a_point_on_a_cycle_in_random_stores():
    """On 2,000 seeded stores of 1 to 12 nodes, index 2 of a node marking a
    point: `point_loop` returns a point iff some point other than node 0
    reaches itself, and its label ids spell a walk from that point back to
    it.  Each edge has a label of its own, so a label id names one edge."""
    rng = random.Random(20240917)
    cyclic = 0
    for draw in range(2000):
        n = rng.randint(1, 12)
        nodes = [(k, draw, rng.random() < 0.5) for k in range(n)]
        graph = {
            v: [(f"{v[0]}>{w[0]}", w) for w in rng.sample(nodes, rng.randint(0, min(n, 2)))]
            for v in nodes
        }
        g = bfs(nodes[0], graph.__getitem__)
        points = {
            i
            for i in range(1, len(g.nodes))
            if g.nodes[i][2] and any(i in _reached(g, j) for _, j in g.steps(i))
        }
        found = point_loop(g)
        assert (found is not None) == bool(points), draw
        if found:
            point, loop = found
            assert point in points and loop, draw
            at = point
            for lid in loop:
                (at,) = [j for l, j in g.steps(at) if l == lid]
            assert at == point, draw
            cyclic += 1
    assert 300 < cyclic < 1000


def _walk(space, g, at: int, labels) -> int:
    """The id the decoded ``labels`` lead to from id ``at`` of the game store
    ``g``: a state has one edge per label."""
    for label in labels:
        (at,) = [j for lid, j in g.steps(at) if space.label(g.labels[lid]) == label]
    return at


def test_solve_is_sat_iff_a_tick1_edge_lies_on_a_cycle():
    """On the paper fixtures and 40 seeded draws, each in every mode: SAT
    iff the target of some tick-1 edge of the explored game reaches its
    source; a SAT stem leads to a point state, and its loop leaves that
    state by a tick-1 and comes back onto it by a tick-1."""
    from conftest import random_ta

    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    automata = [load_ta(name) for name in PAPER_FIXTURES]
    automata += [random_ta(rng, name=f"cycle{i}") for i in range(40)]
    sat = unsat = 0
    for ta in automata:
        for mode in Mode:
            space = BeliefSpace(RegionContext(prepare(ta)))
            res = solve(space, mode)
            g = explore(space, mode, None, None)
            reach: dict[int, set[int]] = {}  # tick-1 target -> what it reaches
            on_cycle = False
            for u in range(len(g.ends)):
                for lid, w in g.steps(u):
                    if space.label(g.labels[lid])[0] == "1":
                        if w not in reach:
                            reach[w] = _reached(g, w)
                        on_cycle = on_cycle or u in reach[w]
            assert res.status == ("SAT" if on_cycle else "UNSAT"), (ta.name, mode)
            if res.status == "UNSAT":
                unsat += 1
                continue
            point = _walk(space, g, 0, res.witness.stem)
            loop = res.witness.loop
            assert g.nodes[point][2] and loop[0][0] == loop[-1][0] == "1", (ta.name, mode)
            assert _walk(space, g, point, loop) == point, (ta.name, mode)
            sat += 1
    assert sat > 20 and unsat > 20


# --- witness extraction --------------------------------------------------------


def test_witness_to_metastrategy_star_shape():
    w = WinningWitness(
        stem=(("0", A), ("1", NONE), ("1", A)),
        loop=(("1", NONE), ("1", A)),
    )
    phi = witness_to_metastrategy(w)
    units = [phi.plan(k) for k in range(4)]
    assert all(u == UnitPlan(A, (NONE,)) for u in units)


def test_witness_to_metastrategy_two_interval_choices():
    w = WinningWitness(
        stem=(("0", A), ("1", frozenset({"e1"})), ("0+", frozenset({"e2"})), ("1", frozenset({"e3"}))),
        loop=(("1", NONE), ("1", frozenset({"e3"}))),
    )
    phi = witness_to_metastrategy(w)
    assert phi.plan(0) == UnitPlan(A, (frozenset({"e1"}), frozenset({"e2"})))
    assert phi.plan(0).at_point == A
    assert phi.plan(1).at_point == frozenset({"e3"})


def test_witness_without_tick1_loop_rejected():
    w = WinningWitness(stem=(("0", A),), loop=(("0+", NONE),))
    with pytest.raises(ValueError):
        witness_to_metastrategy(w)


def test_witness_straddling_loop_start_unrolls():
    # loop closing with a different point choice than the stem's entry
    w = WinningWitness(
        stem=(("0", A), ("1", NONE), ("1", A)),
        loop=(("1", NONE), ("1", NONE)),
    )
    phi = witness_to_metastrategy(w)
    assert phi.plan(0) == UnitPlan(A, (NONE,))
    assert phi.plan(1) == UnitPlan(A, (NONE,))  # first pass keeps the stem point
    assert phi.plan(2) == UnitPlan(NONE, (NONE,))
    assert phi.plan(50) == UnitPlan(NONE, (NONE,))


# --- direct checks ---------------------------------------------------------------


def test_check_counterexample_strategy():
    ta = load_ta("ta_counterex")
    space = load_space("ta_counterex")
    phi = msformat.load(
        str(fixture_path("counterex_phi.msf")), frozenset(ta.controllable)
    )
    res = check_metastrategy(space, phi, Mode.FULL)
    assert not res.ok
    assert res.offending == Bucket("interval", 2)


def test_check_ta1_all_enabled_full_vs_weak():
    space = load_space("ta1")
    phi = all_enabled(load_ta("ta1"))
    assert check_metastrategy(space, phi, Mode.WEAK).ok
    full = check_metastrategy(space, phi, Mode.FULL)
    assert not full.ok and full.offending == Bucket("interval", 0)


def test_check_exists_ta1():
    space = load_space("ta1")
    res = check_exists(space)
    assert res.holds
    assert Bucket("point", 1) in res.witnesses
    assert res.witness == Bucket("point", 0)


def test_check_exists_opaque(opaque_space):
    res = check_exists(opaque_space)
    assert res.holds
    assert all(b.kind == "point" for b in res.witnesses)


def test_check_exists_unreachable_private():
    from conftest import mortal_ta
    from etopaq import prepare
    from etopaq.beliefs import BeliefSpace
    from etopaq.regions import RegionContext

    space = BeliefSpace(RegionContext(prepare(mortal_ta())))
    assert not check_exists(space).holds


# --- predicate-level mode ordering ------------------------------------------------


def test_leaking_weak_implies_leaking_full_everywhere():
    for name in SOLVE_FIXTURES:
        space = load_space(name)
        graph = space.explore()
        for b in graph.nodes:
            if b is BOTTOM:
                continue
            if Mode.WEAK.leaks(space.has_private_final(b), space.has_public_final(b)):
                assert leaking_full(space, b)


def test_full_witness_passes_weak_and_almost():
    for name in SOLVE_FIXTURES:
        space = load_space(name)
        res = solve(space, Mode.FULL)
        if res.status != "SAT":
            continue
        phi = witness_to_metastrategy(res.witness)
        assert check_metastrategy(space, phi, Mode.WEAK).ok
        assert check_metastrategy(space, phi, Mode.ALMOST_FULL).ok


def test_vacuous_opacity_through_dead_intervals():
    """When the controller can silence every run, all buckets go dead and
    the full verdict is vacuously SAT: time must keep counting through
    dead intervals."""
    from concrete import nothing_enabled
    from conftest import mortal_ta
    from etopaq import prepare
    from etopaq.beliefs import BeliefSpace
    from etopaq.regions import RegionContext

    space = BeliefSpace(RegionContext(prepare(mortal_ta())))
    res = solve(space, Mode.FULL)
    assert res.status == "SAT"
    phi = witness_to_metastrategy(res.witness)
    assert check_metastrategy(space, phi, Mode.FULL).ok
    assert check_metastrategy(space, nothing_enabled(), Mode.FULL).ok
    # enabling the one-shot action instead leaks a public-only interval
    assert not check_metastrategy(
        space, MetaStrategy((), (UnitPlan(A, (A,)),)), Mode.FULL
    ).ok


def test_solver_deterministic_across_fresh_spaces():
    from etopaq import prepare
    from etopaq.beliefs import BeliefSpace
    from etopaq.regions import RegionContext
    from conftest import load_ta

    results = []
    for _ in range(2):
        space = BeliefSpace(RegionContext(prepare(load_ta("ta_opaque"))))
        res = solve(space, Mode.FULL)
        results.append((res.status, res.witness.stem, res.witness.loop))
    assert results[0] == results[1]


# --- one edge per distinct successor against one edge per enabled set -------------


def _code(space, tick, enabled) -> int:
    """The game label of (tick, enabled), encoded apart from `game_successors`:
    the enabled set's mask over the sorted controllable names, shifted past
    two bits of tick code."""
    mask = sum(1 << space.controllable.index(name) for name in enabled)
    return mask << 2 | ("0", "0+", "1").index(tick)


def _all_subsets_successors(space, st, mode):
    """The game's moves with one edge per enabled set, duplicates kept: the
    relation `game_successors` emits one edge per distinct target of.  The
    leak schedule is written out here apart from `Mode.rule`."""
    subsets = every_enabled_set(space)
    current, acc, at_integer, memo = st
    if current is BOTTOM:
        return [
            (_code(space, "0", e), (space.initial(e), space.initial(e), True, False))
            for e in subsets
        ]
    priv, pub = space.has_private_final(acc), space.has_public_final(acc)
    leak = mode.leaks(priv, pub)
    closed = mode is Mode.CLOSED_FULL
    if at_integer:
        # closed mode excuses a point leak by a final in the interval before
        # (the memo) or else obliges the next interval to reach one
        obligation = False
        if closed:
            obligation = leak and not memo
        elif leak and mode is not Mode.ALMOST_FULL:
            return []
        moves = []
        for e in subsets:
            b = space.successor(current, "1", e)
            moves.append((_code(space, "1", e), (b, b, False, obligation)))
        return moves
    moves = []
    for e in subsets:
        b = space.successor(current, "0+", e)
        moves.append((_code(space, "0+", e), (b, acc | b, False, memo)))
    if not leak and not (closed and memo and not (priv or pub)):
        for e in subsets:
            b = space.successor(current, "1", e)
            moves.append((_code(space, "1", e), (b, b, True, closed and (priv or pub))))
    return moves


def test_distinct_successor_edges_keep_every_verdict(monkeypatch):
    """Status, witness and states explored are those of the game with one
    edge per enabled set, on every paper fixture in every mode; only the
    edge count may fall."""
    import etopaq.game as game_mod

    saved = 0
    for name in PAPER_FIXTURES:
        for mode in Mode:
            got = solve(load_space(name), mode)
            with monkeypatch.context() as m:
                m.setattr(game_mod, "game_successors", _all_subsets_successors)
                want = solve(BeliefSpace(RegionContext(prepare(load_ta(name)))), mode)
            assert (got.status, got.witness) == (want.status, want.witness), (name, mode)
            assert got.stats.states == want.stats.states, (name, mode)
            assert got.stats.edges <= want.stats.edges, (name, mode)
            saved += want.stats.edges - got.stats.edges
    assert saved > 0


# --- the one-memo game against a game with two memo bits ---------------------------


def _two_bit_successors(space, st, mode):
    """The game step with two memo bits, on states (current, accumulated,
    at_integer, prev_interval_finals, obligation): whether the last closed
    interval reached a final, read at a point, and the obligation a point
    hands to the interval after it.  Neither bit is read in the states that
    carry the other, so the one-memo game is a quotient of this one."""
    current, acc, at_integer, prev, obligation = st
    if current is BOTTOM:
        return [(c << 2, (b, b, True, False, False)) for c, b in space.successors(BOTTOM, "0")]
    priv, pub = space.has_private_final(acc), space.has_public_final(acc)
    if at_integer:
        obligation = mode.rule(True, priv, pub, prev)
        if obligation is None:
            return []
        return [
            (c << 2 | 2, (b, b, False, prev, obligation))
            for c, b in space.successors(current, "1")
        ]
    out = [
        (c << 2 | 1, (b, acc | b, False, prev, obligation))
        for c, b in space.successors(current, "0+")
    ]
    finals = mode.rule(False, priv, pub, obligation)
    if finals is not None:
        out += [
            (c << 2 | 2, (b, b, True, finals, False))
            for c, b in space.successors(current, "1")
        ]
    return out


def _assert_quotient_of_two_bit_game(ta, monkeypatch, state_cap) -> int:
    """Same status in every mode; the same game and witness in full, weak
    and almost mode, where neither bit is ever set; in closed mode no more
    states or edges when both games are complete.  Returns the closed-mode
    states saved."""
    import etopaq.game as game_mod

    saved = 0
    for mode in Mode:
        space = BeliefSpace(RegionContext(prepare(ta)))
        got = solve(space, mode, state_cap)
        with monkeypatch.context() as m:
            m.setattr(game_mod, "game_successors", _two_bit_successors)
            m.setattr(game_mod, "INITIAL", (BOTTOM, DEAD, True, False, False))
            ref_space = BeliefSpace(RegionContext(prepare(ta)))
            want = solve(ref_space, mode, state_cap)
        assert got.status == want.status, (ta.name, mode)
        if mode is not Mode.CLOSED_FULL:
            assert (got.witness, got.detail) == (want.witness, want.detail), (ta.name, mode)
            assert (got.stats.states, got.stats.edges) == (want.stats.states, want.stats.edges)
            assert space.successors_computed() == ref_space.successors_computed()
        elif got.status != "INDETERMINATE":
            assert got.stats.states <= want.stats.states, ta.name
            assert got.stats.edges <= want.stats.edges, ta.name
            saved += want.stats.states - got.stats.states
        if got.status == "SAT":
            assert check_metastrategy(space, witness_to_metastrategy(got.witness), mode).ok
    return saved


def test_one_memo_game_is_a_quotient_of_the_two_bit_game(monkeypatch):
    from conftest import random_ta

    saved = sum(
        _assert_quotient_of_two_bit_game(load_ta(name), monkeypatch, 20_000)
        for name in PAPER_FIXTURES
    )
    assert saved > 0  # ta_nfv and t2_like lose a closed-mode interval state each
    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    for i in range(40):
        _assert_quotient_of_two_bit_game(random_ta(rng, name=f"memo{i}"), monkeypatch, 20_000)


# --- final flags read off locations, as the oracle reads them ----------------------


def _location_flag_successors(space, st, mode):
    """`game_successors` with the accumulated belief's flags read off its
    regions' locations against the automaton's final sets, as the oracle
    reads them, never off the context's final masks, which grow as regions
    are interned."""
    current, acc, point, memo = st
    if current is BOTTOM:
        return [(c << 2, (b, b, True, False)) for c, b in space.successors(BOTTOM, "0")]
    out = [] if point else [
        (c << 2 | 1, (b, acc | b, False, memo)) for c, b in space.successors(current, "0+")
    ]
    ta = space.ctx.ta
    private = {loc for loc in ta.finals if is_primed(loc) or loc == ta.private}
    reached = {space.ctx.locations[i] for i in Belief(acc)}
    handed = mode.rule(
        point, not private.isdisjoint(reached), not (ta.finals - private).isdisjoint(reached), memo
    )
    if handed is not None:
        out += [
            (c << 2 | 2, (b, b, not point, handed)) for c, b in space.successors(current, "1")
        ]
    return out


def test_the_game_reads_final_flags_as_the_oracle_does(monkeypatch):
    """The real game and one whose flags come from locations give the same
    status, witness, states and edges: on the paper fixtures in every mode,
    and on the gadgets in weak and full mode under a state cap of 2,000,
    where the game step interns regions, and with them finals, as it goes."""
    import etopaq.game as game_mod

    cases = [(load_ta(name), mode, DEFAULT_STATE_CAP) for name in PAPER_FIXTURES for mode in Mode]
    cases += [(load_ta(name), mode, 2000) for name in GADGETS for mode in (Mode.WEAK, Mode.FULL)]
    for ta, mode, cap in cases:
        got = solve(BeliefSpace(RegionContext(prepare(ta))), mode, cap)
        with monkeypatch.context() as m:
            m.setattr(game_mod, "game_successors", _location_flag_successors)
            want = solve(BeliefSpace(RegionContext(prepare(ta))), mode, cap)
        assert (got.status, got.witness, got.detail) == (want.status, want.witness, want.detail)
        assert (got.stats.states, got.stats.edges) == (want.stats.states, want.stats.edges)


# --- what a query leaves behind ------------------------------------------------------

GADGETS = ("minsky_halt", "minsky_inc_halt", "minsky_ifz_loop")


def _fresh_space(name: str) -> BeliefSpace:
    return BeliefSpace(RegionContext(prepare(load_ta(name))))


def test_a_finished_query_is_freed_by_reference_counting():
    """No reference cycle holds a query's tables: with the cyclic collector
    off, the belief space and the region context die with the last
    reference to the space, after a solve in every mode, an existential
    check, a meta-strategy check and an oracle table."""
    counterex_phi = msformat.load(
        str(fixture_path("counterex_phi.msf")), frozenset(load_ta("ta_counterex").controllable)
    )
    queries = [(name, lambda s, m=mode: solve(s, m)) for name in PAPER_FIXTURES for mode in Mode]
    queries += [(name, check_exists) for name in PAPER_FIXTURES]
    queries += [
        ("ta_counterex", lambda s: check_metastrategy(s, counterex_phi, Mode.FULL)),
        ("ta_counterex", lambda s: oracle_buckets(s.ctx, counterex_phi)),
    ]
    gc.collect()
    gc.disable()
    try:
        for name, query in queries:
            space = _fresh_space(name)
            refs = (weakref.ref(space), weakref.ref(space.ctx))
            query(space)
            del space
            assert [ref() for ref in refs] == [None, None], name
    finally:
        gc.enable()
