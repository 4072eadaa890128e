"""Differential checks against the concrete semantics.

These tie the abstraction stack (regions, beliefs, oracle buckets,
feasibility) back to actual timed runs: whatever a legal run realizes must
be reflected upstream.
"""
from __future__ import annotations

import random
from fractions import Fraction

from conftest import load_space, load_ta, random_metastrategy, random_ta
from etopaq import build_run, prepare
from etopaq.beliefs import BeliefSpace
from etopaq.oracle import oracle_buckets
from etopaq.regions import RegionContext, region_of
from etopaq.strategies import (
    Bucket,
    all_enabled,
    encountered_beliefs,
    is_feasible,
    sample_strategy,
    sigma_compatible,
)
from etopaq.ta import StepError, initial_state, is_primed, step_delay, step_discrete


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


def _flags_lookup(table):
    return {row.bucket: row for row in table.rows}


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
        table = oracle_buckets(space.ctx, phi, extra_units=2)
        flags = _flags_lookup(table)
        enc = dict(encountered_beliefs(space, phi, extra_units=2).buckets)
        for run in random_runs(dup, rng):
            loc = run.last[0]
            if loc not in dup.finals or run.duration >= 5:
                continue
            if not sigma_compatible(run, sigma):
                continue
            covered += 1
            bucket = bucket_of(run.duration)
            row = flags[bucket]
            if is_primed(loc):
                assert row.has_private_final, (dup.name, bucket)
            else:
                assert row.has_public_final, (dup.name, bucket)
            region = space.ctx.region_of(loc, run.last[1])
            assert region in enc[bucket], (dup.name, bucket)
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
    actual minimal delay from a sampled member valuation."""
    rng = random.Random(5150)
    for name in ("ta_opaque2", "ta_counterex"):
        ctx = load_space(name).ctx
        n = len(ctx.ta.clocks)
        for _ in range(400):
            vals = tuple(
                Fraction(rng.randint(0, (ctx.cmax[i] + 1) * 6), 6) for i in range(n)
            )
            region = region_of("l", vals, ctx.cmax)
            fracts = sorted(
                {v - int(v) for i, v in enumerate(vals) if v <= ctx.cmax[i]}
            )
            if not fracts:
                # every clock beyond its cap: delay can no longer move regions
                assert ctx._raw_time_successor(region)[0] is None
                continue
            if fracts[0] == 0:
                # leave the integer: stop before any fraction reaches 1
                d = (1 - fracts[-1]) / 2
            else:
                # ride to the next boundary: the largest fraction hits 1
                d = 1 - fracts[-1]
            expected = region_of("l", tuple(v + d for v in vals), ctx.cmax)
            got, _moved = ctx._raw_time_successor(region)
            assert got == expected, (vals, d)
