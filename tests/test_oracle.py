from __future__ import annotations

import random

from concrete import nothing_enabled
from conftest import (
    SOLVE_FIXTURES,
    every_enabled_set,
    fixture_path,
    load_space,
    load_ta,
    mortal_ta,
    random_metastrategy,
    random_ta,
)
from etopaq import msformat, prepare, taformat
from etopaq.beliefs import BeliefSpace
from etopaq.game import Mode, check_metastrategy
from etopaq.oracle import BucketFlags, OracleTable, oracle_buckets, oracle_verdict
from etopaq.regions import RegionContext
from etopaq.strategies import (
    Bucket,
    MetaStrategy,
    UnitPlan,
    all_enabled,
    encountered_beliefs,
)
from etopaq.ta import SILENT_KIND, is_primed

A = frozenset({"a"})
NONE = frozenset()
PAPER_FIXTURES = ("ta_opaque", "ta1", "ta_opaque2", "ta_counterex", "ta_nfv", "t2_like", "t3_like")
GADGETS = ("minsky_halt", "minsky_inc_halt", "minsky_ifz_loop")


def test_oracle_buckets_opaque_star(opaque_space):
    star = MetaStrategy((), (UnitPlan(A, (NONE,)),))
    table = oracle_buckets(opaque_space.ctx, star)
    for row in table.rows:
        if row.bucket.kind == "point":
            assert row.has_private_final and row.has_public_final
        else:
            assert not row.has_private_final and not row.has_public_final


def _row(table: OracleTable, bucket: Bucket) -> BucketFlags:
    """The table's row for ``bucket``."""
    return next(r for r in table.rows if r.bucket == bucket)


def test_oracle_buckets_ta1_all_enabled():
    space = load_space("ta1")
    table = oracle_buckets(space.ctx, all_enabled(load_ta("ta1")))
    first_interval = _row(table, Bucket("interval", 0))
    assert first_interval.has_public_final and not first_interval.has_private_final
    for row in table.rows:
        if row.bucket.kind == "point":
            assert row.has_private_final and row.has_public_final


def test_oracle_buckets_unreachable_finals():
    space = BeliefSpace(RegionContext(prepare(mortal_ta())))
    table = oracle_buckets(space.ctx, MetaStrategy((), (UnitPlan(NONE, (NONE,)),)))
    assert all(
        not r.has_private_final and not r.has_public_final for r in table.rows
    )


def test_oracle_report_format(opaque_space):
    star = MetaStrategy((), (UnitPlan(A, (NONE,)),))
    text = oracle_buckets(opaque_space.ctx, star).report()
    assert "0 | priv=true pub=true" in text
    assert "(0,1) | priv=false pub=false" in text


def test_oracle_verdict_t2_t3_tables():
    """The robustness example tables, fed through the verdict logic alone."""

    def row(bucket, priv, pub):
        return BucketFlags(bucket, priv, pub)

    t2 = OracleTable(
        rows=(
            row(Bucket("point", 0), True, False),
            row(Bucket("interval", 0), True, True),
            row(Bucket("point", 1), True, False),
            row(Bucket("interval", 1), True, True),
            row(Bucket("point", 2), True, False),
            row(Bucket("interval", 2), False, False),
            row(Bucket("point", 3), False, False),
        ),
        cycle_start=3,
        cycle_period=1,
    )
    assert oracle_verdict(t2, Mode.FULL)[0] is False
    assert oracle_verdict(t2, Mode.ALMOST_FULL)[0] is True
    assert oracle_verdict(t2, Mode.CLOSED_FULL)[0] is True
    t3 = OracleTable(
        rows=(
            row(Bucket("point", 0), False, False),
            row(Bucket("interval", 0), True, True),
            row(Bucket("point", 1), False, False),
            row(Bucket("interval", 1), False, False),
            row(Bucket("point", 2), True, False),
            row(Bucket("interval", 2), False, False),
            row(Bucket("point", 3), False, False),
        ),
        cycle_start=3,
        cycle_period=1,
    )
    assert oracle_verdict(t3, Mode.ALMOST_FULL)[0] is True
    verdict, offending = oracle_verdict(t3, Mode.CLOSED_FULL)
    assert verdict is False and offending == Bucket("point", 2)


def test_oracle_verdict_vacuous_full():
    empty = OracleTable(
        rows=(
            BucketFlags(Bucket("point", 0), False, False),
            BucketFlags(Bucket("interval", 0), False, False),
            BucketFlags(Bucket("point", 1), False, False),
        ),
        cycle_start=0,
        cycle_period=1,
    )
    assert oracle_verdict(empty, Mode.FULL) == (True, None)


def _agree(space, phi) -> None:
    enc = encountered_beliefs(space, phi)
    table = oracle_buckets(space.ctx, phi)
    assert len(enc.buckets) == len(table.rows)
    assert (enc.cycle_start, enc.cycle_period) == (
        table.cycle_start,
        table.cycle_period,
    )
    for (bucket, belief), row in zip(enc.buckets, table.rows):
        assert bucket == row.bucket
        assert space.has_private_final(belief) == row.has_private_final, str(bucket)
        assert space.has_public_final(belief) == row.has_public_final, str(bucket)
        assert (space.has_private_final(belief) or space.has_public_final(belief)) == (
            row.has_private_final or row.has_public_final
        )


def test_oracle_belief_agreement_on_fixtures():
    for name in SOLVE_FIXTURES:
        ta = load_ta(name)
        space = load_space(name)
        _agree(space, all_enabled(ta))
        _agree(space, MetaStrategy((), (UnitPlan(NONE, (NONE,)),)))


def test_oracle_belief_agreement_randomized():
    """Corollary-level cross-check: bucket flags from the powerset path and
    the region-product path coincide on seeded random automata and
    meta-strategies."""
    rng = random.Random(424242)
    for i in range(100):
        ta = random_ta(rng, name=f"rand{i}")
        space = BeliefSpace(RegionContext(prepare(ta)))
        phi = random_metastrategy(rng, ta.controllable)
        _agree(space, phi)


# Draw 2118 of `random.Random(1)` (`random_ta`, then `random_metastrategy`):
# the one draw in 3,000 where an oracle that closes the frontier itself,
# rather than its '0+' delay image, between the choices of one interval
# differs from the belief side.
DRAW_2118_TA = """\
ta draw2118
clocks: x w
controllable: a b
uncontrollable: u
locations:
  l0 init
  lp private
  lf final invariant: w = 0
  m0
edges:
  l0 -> l0 via b guard: x < 2 reset: x
  l0 -> l0 via a guard: x > 2
  l0 -> lp via a
  l0 -> lf via u reset: w
  l0 -> l0 via a
  lp -> lf via u guard: x <= 0 reset: w
"""
DRAW_2118_MSF = """\
{"stem": [{"point": [], "interval": [["b"], ["a"]]},
          {"point": ["b"], "interval": [["a", "b"]]}],
 "loop": [{"point": ["a", "b"], "interval": [["b"], []]},
          {"point": [], "interval": [["a", "b"], ["b"]]}]}
"""


def test_oracle_belief_agreement_on_interval_choice_draw():
    ta = taformat.parse(DRAW_2118_TA)
    space = BeliefSpace(RegionContext(prepare(ta)))
    phi = msformat.parse(DRAW_2118_MSF, frozenset(ta.controllable))
    assert any(len(phi.interval(k)) > 1 for k in range(4))
    _agree(space, phi)


def test_oracle_full_verdict_matches_belief_check_randomized():
    rng = random.Random(99)
    for i in range(60):
        ta = random_ta(rng, name=f"veri{i}")
        space = BeliefSpace(RegionContext(prepare(ta)))
        phi = random_metastrategy(rng, ta.controllable)
        for mode in Mode:
            belief_side = check_metastrategy(space, phi, mode).ok
            oracle_side = oracle_verdict(oracle_buckets(space.ctx, phi), mode)[0]
            assert belief_side == oracle_side, (i, mode)


def test_offending_buckets_agree_between_paths():
    rng = random.Random(2718)
    from etopaq.game import check_metastrategy

    compared = 0
    for i in range(40):
        ta = random_ta(rng, name=f"off{i}")
        space = BeliefSpace(RegionContext(prepare(ta)))
        phi = random_metastrategy(rng, ta.controllable)
        table = oracle_buckets(space.ctx, phi)
        for mode in Mode:
            belief_side = check_metastrategy(space, phi, mode)
            ok, offending = oracle_verdict(table, mode)
            assert belief_side.ok == ok, (i, mode)
            if not ok:
                compared += 1
                assert belief_side.offending == offending, (i, mode)
    assert compared >= 15


# --- the oracle against a reference walk over the region steps ----------------


def _reference_closure(ctx, seed, enabled, unc, allow_delay):
    seen = set(seed)
    todo = list(seed)
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


def _reference_delay_image(ctx, frontier, tag):
    return {j for i in frontier for t, j in ctx.delay_steps(i) if t == tag}


def _reference_buckets(ctx, phi) -> OracleTable:
    """`oracle_buckets` written out over sets of region ids, with the flags
    read from each region's location, listing one unit past the period."""
    ta = ctx.ta
    unc = ta.uncontrollable
    private = {loc for loc in ta.finals if is_primed(loc) or loc == ta.private}
    public = ta.finals - private

    def flags(bucket, ids):
        locations = {ctx.locations[i] for i in ids}
        return BucketFlags(
            bucket, not private.isdisjoint(locations), not public.isdisjoint(locations)
        )

    def step(frontier, tag, enabled):
        return _reference_closure(
            ctx, _reference_delay_image(ctx, frontier, tag), enabled, unc, True
        )

    frontier = _reference_closure(ctx, {ctx.initial_id()}, phi.point(0), unc, False)
    rows = [flags(Bucket("point", 0), frontier)]
    seen = {(phi.lasso_pos(0), frontier): 0}
    cycle_start = cycle_period = pending = None
    k = 0
    while True:
        choices = phi.interval(k)
        frontier = step(frontier, "1", choices[0])
        seen_in_interval = set(frontier)
        for enabled in choices[1:]:
            frontier = step(frontier, "0+", enabled)
            seen_in_interval |= frontier
        rows.append(flags(Bucket("interval", k), seen_in_interval))
        frontier = step(frontier, "1", phi.point(k + 1))
        rows.append(flags(Bucket("point", k + 1), frontier))
        k += 1
        key = (phi.lasso_pos(k), frontier)
        if cycle_start is None and key in seen:
            cycle_start, cycle_period = seen[key], k - seen[key]
            pending = 1
        elif cycle_start is None:
            seen[key] = k
        if pending is not None:
            if pending == 0:
                break
            pending -= 1
    return OracleTable(tuple(rows), cycle_start, cycle_period)


def _assert_oracle_matches_reference(ta, phi) -> None:
    got = oracle_buckets(RegionContext(prepare(ta)), phi)
    want = _reference_buckets(RegionContext(prepare(ta)), phi)
    assert (got.rows, got.cycle_start, got.cycle_period) == (
        want.rows, want.cycle_start, want.cycle_period
    ), ta.name
    for mode in Mode:
        assert oracle_verdict(got, mode) == oracle_verdict(want, mode), (ta.name, mode)


def test_oracle_matches_region_level_reference_on_fixtures():
    for name, msf in (("ta_counterex", "counterex_phi"), ("ta1", "all_enabled_ab")):
        ta = load_ta(name)
        phi = msformat.load(str(fixture_path(f"{msf}.msf")), frozenset(ta.controllable))
        _assert_oracle_matches_reference(ta, phi)
    for name in PAPER_FIXTURES:
        ta = load_ta(name)
        for phi in (all_enabled(ta), nothing_enabled()):
            _assert_oracle_matches_reference(ta, phi)


def test_oracle_matches_region_level_reference_randomized():
    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    for i in range(50):
        ta = random_ta(rng, name=f"ref{i}")
        _assert_oracle_matches_reference(ta, random_metastrategy(rng, ta.controllable))


def test_the_initial_closure_has_no_off_integer_delay():
    """The oracle closes its start as every later frontier, '0+' delays
    included.  That is the closure at the initial instant because each
    region the initial zero-time closure reaches, under any enabled set,
    has the tick clock on 0 and no '0+' delay step: discrete steps pass no
    time, and a region with the tick clock on an integer cannot stay."""
    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    automata = [load_ta(name) for name in PAPER_FIXTURES + GADGETS]
    automata += [random_ta(rng, name=f"start{i}") for i in range(50)]
    checked = 0
    for ta in automata:
        space = BeliefSpace(RegionContext(prepare(ta)))
        ctx = space.ctx
        for enabled in every_enabled_set(space):
            for rid in space.initial(enabled):
                _, ints, zero, _ = ctx.key(rid)
                assert ints[ctx.tick] == 0 and ctx.tick in zero, (ta.name, ctx.format_region(rid))
                assert all(tag != "0+" for tag, _ in ctx.delay_steps(rid)), (ta.name, rid)
                checked += 1
    assert checked > 1000, checked
