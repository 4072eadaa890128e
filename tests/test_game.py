from __future__ import annotations

import pytest

from conftest import SOLVE_FIXTURES, fixture_path, load_space, load_ta
from etopaq import msformat
from etopaq.beliefs import BOTTOM
from etopaq.game import (
    INITIAL,
    Mode,
    WinningWitness,
    check_exists,
    check_metastrategy,
    game_successors,
    solve,
    witness_to_metastrategy,
)
from etopaq.oracle import oracle_buckets, oracle_verdict
from etopaq.strategies import Bucket, MetaStrategy, UnitPlan, all_enabled

A = frozenset({"a"})
AB = frozenset({"a", "b"})
NONE = frozenset()


def test_game_initial_moves(opaque_space):
    moves = game_successors(opaque_space, INITIAL, Mode.FULL)
    assert [lbl for lbl, _ in moves] == [("0", NONE), ("0", A)]
    for (_, enabled), st in moves:
        assert st.current == opaque_space.initial(enabled)
        assert st.at_integer


def test_game_prunes_leaking_point(opaque_space):
    # the choice (0, {}) leads to a leaking time-0 bucket: no way out
    (_, bad), (_, good) = game_successors(opaque_space, INITIAL, Mode.FULL)
    assert game_successors(opaque_space, bad, Mode.FULL) == []
    follow = game_successors(opaque_space, good, Mode.FULL)
    assert follow and all(lbl[0] == "1" for lbl, _ in follow)


def test_game_point_states_offer_only_tick1(opaque_space):
    _, good = game_successors(opaque_space, INITIAL, Mode.FULL)[1]
    for lbl, st in game_successors(opaque_space, good, Mode.FULL):
        assert lbl[0] == "1"
        assert not st.at_integer
        assert st.accumulated == st.current


def test_game_interval_accumulates(opaque_space):
    _, good = game_successors(opaque_space, INITIAL, Mode.FULL)[1]
    _, mid = game_successors(opaque_space, good, Mode.FULL)[0]
    for lbl, st in game_successors(opaque_space, mid, Mode.FULL):
        if lbl[0] == "0+":
            assert st.accumulated >= mid.accumulated | st.current
        else:
            assert st.accumulated == st.current


def test_almost_mode_ignores_leaking_points(opaque_space):
    (_, bad), _ = game_successors(opaque_space, INITIAL, Mode.ALMOST_FULL)
    assert opaque_space.leaking_full(bad.accumulated)
    assert game_successors(opaque_space, bad, Mode.ALMOST_FULL)


def test_ta1_full_prunes_everything_after_ab():
    space = load_space("ta1")
    starts = dict(
        (enabled, st)
        for (tick, enabled), st in game_successors(space, INITIAL, Mode.FULL)
    )
    st = starts[AB]
    # time 0 is balanced, but every open interval then has public finals only
    for lbl, nxt in game_successors(space, st, Mode.FULL):
        closes = [
            l for l, _ in game_successors(space, nxt, Mode.FULL) if l[0] == "1"
        ]
        assert closes == []


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
        graph = space.explore(include_dead=True)
        for b in graph.states:
            if b is BOTTOM:
                continue
            if space.leaking_weak(b):
                assert space.leaking_full(b)


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
    from conftest import mortal_ta
    from etopaq import prepare
    from etopaq.beliefs import BeliefSpace
    from etopaq.regions import RegionContext
    from etopaq.strategies import nothing_enabled

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
