"""Differential checks against the concrete semantics.

These tie the abstraction stack (regions, beliefs, oracle buckets,
feasibility) back to actual timed runs: whatever a legal run realizes must
be reflected upstream.
"""
from __future__ import annotations

import random
from fractions import Fraction

from concrete import (
    StepError,
    build_run,
    initial_state,
    is_feasible,
    sample_strategy,
    sigma_compatible,
    step_delay,
    step_discrete,
)
from conftest import load_space, load_ta, random_metastrategy, random_ta, time_successor
from etopaq import prepare
from etopaq.beliefs import BeliefSpace
from etopaq.oracle import oracle_buckets
from etopaq.regions import RegionContext
from etopaq.strategies import Bucket, all_enabled, encountered_beliefs
from etopaq.ta import is_primed


def random_runs(ta, rng, count=30, steps=8):
    """Legal runs sampled by trial: candidate delays keep endpoints on the
    halves/thirds grid so strategy pieces get straddled both ways."""
    delays = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    out = []
    for _ in range(count):
        state = initial_state(ta)
        moves = []
        for _ in range(steps):
            rng.shuffle(delays)
            fired = False
            for d in delays:
                try:
                    mid = step_delay(ta, state, d)
                except StepError:
                    continue
                edges = [e for e in ta.edges if e.source == state[0]]
                rng.shuffle(edges)
                for e in edges:
                    try:
                        state = step_discrete(ta, mid, e)
                    except StepError:
                        continue
                    moves.append((d, e))
                    fired = True
                    break
                if fired:
                    break
            if not fired:
                break
        out.append(build_run(ta, moves))
    return out


def bucket_of(duration: Fraction) -> Bucket:
    k = int(duration)
    if duration == k:
        return Bucket("point", k)
    return Bucket("interval", k)


def _periodic_lookup(rows: dict, cycle_start: int, cycle_period: int):
    """``rows`` (bucket -> value) extended past the listed buckets: from unit
    ``cycle_start`` on the walk repeats every ``cycle_period`` units, so a
    later bucket reads its periodic twin.  The listed buckets of the second
    period are checked against their twins first."""

    def twin(bucket: Bucket) -> Bucket:
        k = bucket.k
        if k >= cycle_start:
            k = cycle_start + (k - cycle_start) % cycle_period
        return Bucket(bucket.kind, k)

    for bucket, value in rows.items():
        assert value == rows[twin(bucket)], bucket
    return lambda bucket: rows[bucket] if bucket in rows else rows[twin(bucket)]


def test_concrete_runs_are_covered_by_bucket_flags():
    """Any legal run compatible with a sampled strategy that ends in a final
    location must show up in the belief and oracle flags of its duration
    bucket."""
    rng = random.Random(1234)
    cases = []
    for name in ("ta_opaque", "ta1", "ta_counterex", "t2_like", "t3_like"):
        cases.append((load_space(name), all_enabled(load_ta(name))))
    for i in range(25):
        ta = random_ta(rng, name=f"cover{i}")
        space = BeliefSpace(RegionContext(prepare(ta)))
        cases.append((space, random_metastrategy(rng, ta.controllable)))
    covered = 0
    for space, phi in cases:
        dup = space.ctx.ta
        sigma = sample_strategy(phi, horizon=6)
        table = oracle_buckets(space.ctx, phi)
        flags = _periodic_lookup(
            {r.bucket: (r.has_private_final, r.has_public_final) for r in table.rows},
            table.cycle_start, table.cycle_period,
        )
        walk = encountered_beliefs(space, phi)
        enc = _periodic_lookup(dict(walk.buckets), walk.cycle_start, walk.cycle_period)
        for run in random_runs(dup, rng):
            loc = run.last[0]
            if loc not in dup.finals or run.duration >= 5:
                continue
            if not sigma_compatible(run, sigma):
                continue
            covered += 1
            bucket = bucket_of(run.duration)
            has_private_final, has_public_final = flags(bucket)
            if is_primed(loc):
                assert has_private_final, (dup.name, bucket)
            else:
                assert has_public_final, (dup.name, bucket)
            assert space.ctx.id_of(loc, run.last[1]) in enc(bucket), (dup.name, bucket)
    assert covered >= 40


def test_sigma_compatibility_implies_feasibility():
    """Lemma direction: a run compatible with some strategy satisfying the
    meta-strategy is feasible in the controlled belief automaton."""
    rng = random.Random(4321)
    checked = 0
    for i in range(15):
        ta = random_ta(rng, name=f"feas{i}")
        space = BeliefSpace(RegionContext(prepare(ta)))
        dup = space.ctx.ta
        phi = random_metastrategy(rng, ta.controllable)
        sigma = sample_strategy(phi, horizon=6)
        for run in random_runs(dup, rng, count=12, steps=6):
            if run.duration >= 5 or not run.moves:
                continue
            if not sigma_compatible(run, sigma):
                continue
            checked += 1
            assert is_feasible(run, phi, space, dup), (i, run.moves)
    assert checked >= 25


def test_time_successor_matches_concrete_delay_oracle():
    """The symbolic immediate successor equals the region reached by an
    actual minimal delay from a sampled member valuation.  'l' is no
    location of the automata, so no invariant stops the delay."""
    rng = random.Random(5150)
    for name in ("ta_opaque2", "ta_counterex"):
        ctx = RegionContext(prepare(load_ta(name)))
        n = len(ctx.ta.clocks)
        for _ in range(400):
            vals = tuple(
                Fraction(rng.randint(0, (ctx.cmax[i] + 1) * 6), 6) for i in range(n)
            )
            region = ctx.id_of("l", vals)
            fracts = sorted(
                {v - int(v) for i, v in enumerate(vals) if v <= ctx.cmax[i]}
            )
            if not fracts:
                # every clock beyond its cap: delay can no longer move regions
                assert time_successor(ctx, region) is None
                continue
            if fracts[0] == 0:
                # leave the integer: stop before any fraction reaches 1
                d = (1 - fracts[-1]) / 2
            else:
                # ride to the next boundary: the largest fraction hits 1
                d = 1 - fracts[-1]
            expected = ctx.id_of("l", tuple(v + d for v in vals))
            _tag, got = time_successor(ctx, region)
            assert got == expected, (vals, d)
