from __future__ import annotations

import random

from conftest import (
    SOLVE_FIXTURES,
    load_space,
    load_ta,
    mortal_ta,
    random_metastrategy,
    random_ta,
)
from etopaq import prepare
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

A = frozenset({"a"})
NONE = frozenset()


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
