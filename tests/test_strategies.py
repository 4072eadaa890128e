from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from concrete import (
    ConcreteStrategy,
    Piece,
    build_run,
    classify_run,
    controlled_successor,
    is_feasible,
    labels_for_units,
    next_choice,
    nothing_enabled,
    run_admits,
    sample_strategy,
    satisfies,
    sigma_compatible,
)
from conftest import (
    edges_by_key,
    fixture_path,
    leaking_full,
    load_space,
    load_ta,
    mortal_ta,
    random_metastrategy,
    random_ta,
)
from etopaq import msformat, prepare
from etopaq.beliefs import BOTTOM, BeliefSpace
from etopaq.regions import RegionContext
from etopaq.strategies import (
    Bucket,
    MetaStrategy,
    UnitPlan,
    all_enabled,
    encountered_beliefs,
)

A = frozenset({"a"})
B = frozenset({"b"})
AB = frozenset({"a", "b"})
NONE = frozenset()

E0, E1, E2, E3 = (frozenset({c}) for c in "wxyz")
FOUR_CHOICE = MetaStrategy(
    stem=(UnitPlan(E0, (E1, E2)),),
    loop=(UnitPlan(E3, (E3,)),),
)


def schedule(phi: MetaStrategy, n: int) -> tuple:
    """First ``n`` labels of the choice schedule, from the empty prefix."""
    v: list = []
    for _ in range(n):
        v.append(next_choice(phi, v))
    return tuple(v)


def test_next_choice_worked_example():
    v = []
    assert next_choice(FOUR_CHOICE, v) == ("0", E0)
    v.append(("0", E0))
    assert next_choice(FOUR_CHOICE, v) == ("1", E1)
    v.append(("1", E1))
    assert next_choice(FOUR_CHOICE, v) == ("0+", E2)
    v.append(("0+", E2))
    assert next_choice(FOUR_CHOICE, v) == ("1", E3)


def test_next_choice_single_interval_choice():
    phi = MetaStrategy((), (UnitPlan(A, (B,)),))
    v = [("0", A), ("1", B)]
    assert next_choice(phi, v) == ("1", A)


def test_next_choice_case_selection_by_parity():
    phi = MetaStrategy((), (UnitPlan(A, (B, NONE)),))
    v = list(schedule(phi, 4))
    assert [t for t, _ in v].count("1") == 2
    assert next_choice(phi, v) == ("1", B)


def test_next_choice_rejects_malformed_prefix():
    with pytest.raises(ValueError):
        next_choice(FOUR_CHOICE, [("1", E0)])
    with pytest.raises(ValueError):
        next_choice(FOUR_CHOICE, [("0", E0), ("0", E0)])


def test_schedule_canonical_shape():
    labels = schedule(FOUR_CHOICE, labels_for_units(FOUR_CHOICE, 3))
    ticks = [t for t, _ in labels]
    assert ticks[0] == "0"
    assert ticks[1:] == ["1", "0+", "1", "1", "1", "1", "1"]
    # every unit contributes exactly two tick-1 labels
    assert ticks.count("1") == 2 * 3


def test_schedule_emits_tick1_infinitely_often():
    for phi in (FOUR_CHOICE, all_enabled(load_ta("ta1"))):
        labels = schedule(phi, 40)
        gaps = 0
        for t, _ in labels:
            if t == "1":
                gaps = 0
            else:
                gaps += 1
                assert gaps <= 3


def test_sample_strategy_matches_integer_rule():
    star = MetaStrategy((), (UnitPlan(A, (NONE,)),))
    sigma = sample_strategy(star, horizon=3)
    for k in range(3):
        assert sigma.at(Fraction(k)) == A
        assert sigma.at(Fraction(k) + Fraction(1, 2)) == NONE


def test_sample_strategy_spreads_interval_pieces():
    phi = MetaStrategy((), (UnitPlan(A, (B, NONE)),))
    sigma = sample_strategy(phi, horizon=1)
    assert sigma.at(Fraction(1, 4)) == B
    assert sigma.at(Fraction(3, 4)) == NONE
    # switch instants belong to the later piece; the pieces partition [0,1)
    assert sigma.at(Fraction(1, 2)) == NONE
    assert sigma.at(Fraction(0)) == A


def test_satisfies_sampled_strategy():
    for phi in (
        MetaStrategy((UnitPlan(NONE, (A, NONE)),), (UnitPlan(B, (B,)),)),
        MetaStrategy((), (UnitPlan(A, (NONE,)),)),
        MetaStrategy((), (UnitPlan(A, (B,)), UnitPlan(NONE, (A, A)))),
        FOUR_CHOICE,
    ):
        assert satisfies(sample_strategy(phi), phi), phi


def test_satisfies_allows_repartition():
    phi = MetaStrategy((), (UnitPlan(A, (B, B)),))
    sigma = ConcreteStrategy(
        (
            Piece(Fraction(0), False, Fraction(0), False, A),
            Piece(Fraction(0), True, Fraction(1), True, B),
        )
    )
    assert satisfies(sigma, phi)


def test_satisfies_rejects_wrong_order():
    phi = MetaStrategy((), (UnitPlan(A, (B, NONE)),))
    sigma = ConcreteStrategy(
        (
            Piece(Fraction(0), False, Fraction(0), False, A),
            Piece(Fraction(0), True, Fraction(1, 2), True, NONE),
            Piece(Fraction(1, 2), False, Fraction(1), True, B),
        )
    )
    assert not satisfies(sigma, phi)


def test_controlled_successor_walks_paper_prefix(opaque_space):
    star = MetaStrategy((), (UnitPlan(A, (NONE,)),))
    state = ((), BOTTOM)
    state = controlled_successor(opaque_space, state, star)
    assert state[0] == (("0", A),)
    assert state[1] == opaque_space.initial(A)
    state = controlled_successor(opaque_space, state, star)
    assert state[0][-1] == ("1", NONE)
    b01p = opaque_space.successor(opaque_space.initial(A), "1", NONE)
    assert state[1] == b01p
    state = controlled_successor(opaque_space, state, star)
    assert state[0][-1] == ("1", A)
    assert state[1] == opaque_space.successor(b01p, "1", A)


def test_controlled_successor_dead_absorbs():
    space = BeliefSpace(RegionContext(prepare(mortal_ta())))
    phi = MetaStrategy((), (UnitPlan(NONE, (NONE,)),))
    state = ((), BOTTOM)
    for _ in range(12):
        state = controlled_successor(space, state, phi)
    assert frozenset(state[1]) == frozenset()


# --- encountered beliefs -------------------------------------------------------


def test_encountered_beliefs_opaque_star(opaque_space):
    star = MetaStrategy((), (UnitPlan(A, (NONE,)),))
    enc = encountered_beliefs(opaque_space, star)
    for bucket, belief in enc.buckets:
        assert not leaking_full(opaque_space, belief), str(bucket)
    assert enc.cycle_period == 1


def test_encountered_beliefs_counterexample_leak():
    ta = load_ta("ta_counterex")
    space = load_space("ta_counterex")
    phi = msformat.load(
        str(fixture_path("counterex_phi.msf")),
        frozenset(ta.controllable),
    )
    enc = encountered_beliefs(space, phi)
    leaks = [
        bucket
        for bucket, belief in enc.buckets
        if leaking_full(space, belief)
    ]
    assert leaks == [Bucket("interval", 2)]


def test_encountered_beliefs_no_finals_never_leak():
    space = load_space("ta_counterex")
    phi = MetaStrategy((), (UnitPlan(NONE, (NONE,)),))
    enc = encountered_beliefs(space, phi)
    interval_buckets = [b for b, bel in enc.buckets if b.kind == "interval"]
    assert interval_buckets
    for bucket, belief in enc.buckets:
        if bucket.kind == "interval":
            assert not (space.has_private_final(belief) or space.has_public_final(belief))
            assert not leaking_full(space, belief)


def _folded_walk(space, phi, units: int):
    """Iterated `controlled_successor` over ``units`` units, folded into
    buckets by tick alone: the '0' label gives point 0, a '1' label opens or
    closes an interval, '0+' labels stay inside it."""
    state = controlled_successor(space, ((), BOTTOM), phi)
    buckets = [(Bucket("point", 0), state[1])]
    acc = None
    for _ in range(labels_for_units(phi, units) - 1):
        state = controlled_successor(space, state, phi)
        tick, belief = state[0][-1][0], state[1]
        if acc is None:
            assert tick == "1"
            acc = belief
        elif tick == "0+":
            acc = acc | belief
        else:
            k = buckets[-1][0].k
            buckets += [(Bucket("interval", k), acc), (Bucket("point", k + 1), belief)]
            acc = None
    assert acc is None
    return buckets


def _assert_walk_matches_controlled_automaton(space, phi) -> None:
    enc = encountered_beliefs(space, phi)
    units = len(enc.buckets) // 2
    assert list(enc.buckets) == _folded_walk(space, phi, units)
    points = [b for bucket, b in enc.buckets if bucket.kind == "point"]
    first: dict = {}
    for k, b in enumerate(points):
        key = (phi.lasso_pos(k), b)
        if key in first:
            break
        first[key] = k
    assert (enc.cycle_start, enc.cycle_period) == (first[key], k - first[key])
    assert units == k + 1  # one unit past the period


def test_encountered_beliefs_fold_the_controlled_automaton():
    for name in ("ta_opaque", "ta1", "ta_opaque2", "ta_counterex", "ta_nfv", "t2_like", "t3_like"):
        ta = load_ta(name)
        for phi in (all_enabled(ta), nothing_enabled()):
            _assert_walk_matches_controlled_automaton(load_space(name), phi)


def test_encountered_beliefs_fold_the_controlled_automaton_randomized():
    rng = random.Random(8080)
    for i in range(50):
        ta = random_ta(rng, name=f"walk{i}")
        space = BeliefSpace(RegionContext(prepare(ta)))
        _assert_walk_matches_controlled_automaton(
            space, random_metastrategy(rng, ta.controllable)
        )


# --- admission -----------------------------------------------------------------


def _rho12(space):
    dup = space.ctx.ta
    E = edges_by_key(dup)
    rho1 = build_run(
        dup, [(1, E["l0>l0/u"]), (0, E["l0>lpriv/u"]), (0, E["lpriv>lf^p/u"])]
    )
    rho2 = build_run(dup, [(1, E["l0>l0/u"]), (0, E["l0>lf/a"])])
    return rho1, rho2


def test_admission_paper_example(opaque_space):
    rho1, rho2 = _rho12(opaque_space)
    v = (("0", A), ("1", NONE), ("1", A))
    dup = opaque_space.ctx.ta
    assert run_admits(rho1, v, dup)
    assert run_admits(rho2, v, dup)


def test_trivial_run_admits_exactly_initial_choice(opaque_space):
    dup = opaque_space.ctx.ta
    trivial = build_run(dup, [])
    assert run_admits(trivial, (("0", A),), dup)
    assert run_admits(trivial, (("0", NONE),), dup)
    assert not run_admits(trivial, (("0", A), ("1", NONE)), dup)
    assert not run_admits(trivial, (("1", A),), dup)


def test_controllable_action_needs_enabling(opaque_space):
    _, rho2 = _rho12(opaque_space)
    dup = opaque_space.ctx.ta
    assert not run_admits(rho2, (("0", NONE), ("1", NONE), ("1", NONE)), dup)


def _all_sequences(controllables, max_len):
    subsets = [frozenset()]
    for i in range(len(controllables)):
        subsets += [s | {controllables[i]} for s in list(subsets)]
    ticks0 = ["0"]
    ticks = ["0+", "1"]
    for n in range(1, max_len + 1):
        for tick_pattern in itertools.product(*([ticks0] + [ticks] * (n - 1))):
            for sets in itertools.product(subsets, repeat=n):
                yield tuple(zip(tick_pattern, sets))


def test_exhaustive_admission_matches_frozen_expectations(opaque_space):
    """Five short runs, all label sequences up to length 4: the admitted
    sets were worked out by hand from the delay/endpoint case analysis and
    frozen here as (tick pattern, minimum enabling) descriptions."""
    dup = opaque_space.ctx.ta
    E = edges_by_key(dup)
    half = Fraction(1, 2)
    runs = {
        "trivial": build_run(dup, []),
        "a_at_0": build_run(dup, [(0, E["l0>lf/a"])]),
        "u_chain_0": build_run(dup, [(0, E["l0>lpriv/u"]), (0, E["lpriv>lf^p/u"])]),
        "a_mid": build_run(dup, [(half, E["l0>lf/a"])]),
        "loop_then_a": build_run(dup, [(1, E["l0>l0/u"]), (0, E["l0>lf/a"])]),
    }
    admitted = {
        name: {
            v
            for v in _all_sequences(("a",), 4)
            if run_admits(run, v, dup)
        }
        for name, run in runs.items()
    }
    # the trivial run admits exactly the two length-1 sequences
    assert admitted["trivial"] == {(("0", NONE),), (("0", A),)}
    # a zero-time controllable step needs 'a' in the current (only) choice
    assert admitted["a_at_0"] == {(("0", A),)}
    # uncontrollable zero-time steps admit both initial choices
    assert admitted["u_chain_0"] == admitted["trivial"]
    # a mid-interval action: one tick-1 into the interval, then any number of
    # '0+' refinements whose last element enables 'a'
    assert admitted["a_mid"] == {
        v
        for v in _all_sequences(("a",), 4)
        if len(v) >= 2
        and v[0][0] == "0"
        and v[1][0] == "1"
        and all(t == "0+" for t, _ in v[2:])
        and v[-1][1] == A
    }
    # a unit delay then a zero-time 'a': exactly two tick-1 labels with
    # optional '0+' strictly between, the last choice enabling 'a'
    assert admitted["loop_then_a"] == {
        v
        for v in _all_sequences(("a",), 4)
        if len(v) >= 3
        and v[0][0] == "0"
        and v[1][0] == "1"
        and v[-1] == ("1", A)
        and all(t == "0+" for t, _ in v[2:-1])
    }


# --- feasibility ------------------------------------------------------------


def _counterex_private_run(space):
    dup = space.ctx.ta
    E = edges_by_key(dup)
    fifth = Fraction(1, 5)
    return build_run(
        dup,
        [
            (fifth, E["l0>l3/a"]),
            (Fraction(4, 5), E["l3>l3/~"]),
            (fifth, E["l3>lpriv/b"]),
            (Fraction(4, 5), E["lpriv>lpriv/~"]),
            (fifth, E["lpriv>lf^p/u3"]),
        ],
    )


def test_feasible_but_not_sigma_compatible():
    ta = load_ta("ta_counterex")
    space = load_space("ta_counterex")
    phi = msformat.load(
        str(fixture_path("counterex_phi.msf")),
        frozenset(ta.controllable),
    )
    run = _counterex_private_run(space)
    assert run.duration == Fraction(11, 5)
    assert classify_run(space.ctx.ta, run) == ("private", Fraction(11, 5))
    assert is_feasible(run, phi, space, space.ctx.ta)
    sigma = sample_strategy(phi, horizon=4)
    assert not sigma_compatible(run, sigma)


def test_feasibility_requires_matching_schedule(opaque_space):
    rho1, _ = _rho12(opaque_space)
    star = MetaStrategy((), (UnitPlan(A, (NONE,)),))
    assert is_feasible(rho1, star, opaque_space, opaque_space.ctx.ta)
    silent = MetaStrategy((), (UnitPlan(NONE, (NONE,)),))
    # the private chain is fully uncontrollable, so it stays feasible
    assert is_feasible(rho1, silent, opaque_space, opaque_space.ctx.ta)
    _, rho2 = _rho12(opaque_space)
    assert not is_feasible(rho2, silent, opaque_space, opaque_space.ctx.ta)


def test_feasibility_equals_sampled_compatibility_at_desk_scale(opaque_space):
    """For each fixture run and meta-strategy: feasibility agrees with the
    existence of a satisfying sampled strategy compatible with the run, the
    sampled side enumerating all interval orderings consistent with the
    run's event times."""
    space = opaque_space
    dup = space.ctx.ta
    rho1, rho2 = _rho12(space)
    phis = [
        MetaStrategy((), (UnitPlan(A, (NONE,)),)),
        MetaStrategy((), (UnitPlan(NONE, (NONE,)),)),
        MetaStrategy((), (UnitPlan(NONE, (A,)),)),
        MetaStrategy((UnitPlan(A, (A, NONE)),), (UnitPlan(NONE, (A,)),)),
    ]

    def sampled_witness_exists(run, phi):
        horizon = int(run.duration) + 2
        # drift the uniform switch points around each run event
        offsets = [Fraction(0), Fraction(1, 7), Fraction(-1, 7)]
        for off in offsets:
            sigma = sample_strategy(phi, horizon)
            pieces = []
            for p in sigma.pieces:
                lo = p.lo + (off if p.lo != int(p.lo) else 0)
                hi = p.hi + (off if p.hi != int(p.hi) else 0)
                pieces.append(Piece(lo, p.lo_open, hi, p.hi_open, p.enabled))
            shifted = ConcreteStrategy(tuple(pieces))
            try:
                ok = satisfies(shifted, phi) and sigma_compatible(run, shifted)
            except ValueError:
                continue
            if ok:
                return True
        return False

    for run in (rho1, rho2):
        for phi in phis:
            assert is_feasible(run, phi, space, dup) == sampled_witness_exists(
                run, phi
            )


# --- the walk steps each unit before the repeat once ----------------------------


def _count_steps(monkeypatch) -> list:
    """Wraps `walk_buckets` in both of its callers' modules: each walk logs
    (steps taken, steps its units before the repeat need)."""
    import etopaq.oracle
    import etopaq.strategies

    real = etopaq.strategies.walk_buckets
    walks = []

    def counted(phi, start, step):
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        walk = real(phi, start, counting)
        units = walk.cycle_start + walk.cycle_period
        walks.append((calls, sum(len(phi.interval(k)) + 1 for k in range(units))))
        return walk

    for module in (etopaq.strategies, etopaq.oracle):
        monkeypatch.setattr(module, "walk_buckets", counted)
    return walks


def test_walk_buckets_steps_no_unit_after_the_repeat(monkeypatch):
    """The unit listed past the repeat is the period's first unit again, so
    neither the belief side nor the oracle steps through it, on the fixture
    strategies and on random draws."""
    from etopaq.oracle import oracle_buckets

    walks = _count_steps(monkeypatch)
    cases = []
    for name, msf in (("ta_counterex", "counterex_phi"), ("ta_opaque", "opaque_star"),
                      ("ta1", "all_enabled_ab")):
        ta = load_ta(name)
        cases.append((ta, msformat.load(str(fixture_path(f"{msf}.msf")), ta.controllable)))
    rng = random.Random(20261019)
    for i in range(40):
        ta = random_ta(rng, name=f"walk{i}")
        cases.append((ta, random_metastrategy(rng, ta.controllable)))
    for ta, phi in cases:
        space = BeliefSpace(RegionContext(prepare(ta)))
        encountered_beliefs(space, phi)
        oracle_buckets(space.ctx, phi)
    assert len(walks) == 2 * len(cases)
    for calls, needed in walks:
        assert calls == needed
