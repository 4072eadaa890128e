from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction

from conftest import load_space, load_ta
from etopaq import prepare
from etopaq.regions import (
    ABOVE,
    Region,
    RegionContext,
    encode,
    region_of,
    valuations_equivalent,
)


def F(num, den=1):
    return Fraction(num, den)


def test_region_of_zero_valuation(opaque_space):
    ctx = opaque_space.ctx
    r = ctx.initial_region()
    assert r.location == "l0"
    assert all(n == 0 for n in r.ints)
    assert r.zero == tuple(range(len(ctx.ta.clocks)))
    assert r.pos == ()


def test_region_of_merges_equal_fractions():
    cmax = (1, 1)
    a = region_of("l", (F(3, 10), F(3, 10)), cmax)
    b = region_of("l", (F(3, 5), F(3, 5)), cmax)
    assert a == b
    assert len(a.pos) == 1 and a.pos[0] == (0, 1)


def test_region_of_above_with_lone_fraction():
    cmax = (2, 1)
    r = region_of("l", (F(5, 2), F(1, 2)), cmax)
    assert r.ints[0] is ABOVE
    assert r.ints[1] == 0
    assert r.pos == ((1,),)


def _random_valuation(rng: random.Random, n: int, cmax) -> tuple[Fraction, ...]:
    vals = []
    for i in range(n):
        den = rng.randint(1, 8)
        num = rng.randint(0, (cmax[i] + 2) * den)
        vals.append(Fraction(num, den))
    return tuple(vals)


def test_region_canonicity_against_pairwise_oracle():
    """region_of equality must coincide with the direct three-condition
    equivalence on random valuation pairs."""
    rng = random.Random(20240)
    for name in ("ta_opaque", "ta1", "ta_opaque2", "ta_counterex"):
        ctx = load_space(name).ctx
        n = len(ctx.ta.clocks)
        disagreements = 0
        for _ in range(10_000):
            a = _random_valuation(rng, n, ctx.cmax)
            if rng.random() < 0.5:
                b = _random_valuation(rng, n, ctx.cmax)
            else:
                # nearby pair: equivalence should often hold
                shift = Fraction(rng.randint(0, 3), rng.randint(4, 9))
                b = tuple(v + shift for v in a)
            same_region = region_of("l", a, ctx.cmax) == region_of("l", b, ctx.cmax)
            equivalent = valuations_equivalent(a, b, ctx.cmax)
            disagreements += same_region != equivalent
        assert disagreements == 0


def test_time_successor_from_origin(opaque_space):
    ctx = opaque_space.ctx
    step = ctx.time_successor(ctx.initial_region())
    assert step is not None
    tag, r = step
    assert tag == "1"
    assert r.zero == ()
    assert len(r.pos) == 1  # every clock shares the fraction


def test_time_successor_reaches_boundary(opaque_space):
    ctx = opaque_space.ctx
    _, mid = ctx.time_successor(ctx.initial_region())
    step = ctx.time_successor(mid)
    assert step is not None
    tag, r = step
    assert tag == "1"
    x = 0
    assert r.ints[x] == 1 and r.fraction_is_zero(x)


def test_time_successor_promotes_maximal_group_only():
    space = load_space("ta_opaque2")
    ctx = space.ctx
    z = ctx.tick
    # all fractions nonzero; the (y, z) group is maximal
    y = 1
    vals = [F(1, 4), F(1, 2), F(1, 4), F(1, 2)]
    r = ctx.region_of("l0", tuple(vals))
    assert len(r.pos) == 2 and z in r.pos[-1]
    step = ctx.time_successor(r)
    assert step is not None
    tag, r2 = step
    assert tag == "1"  # promoted group contains z
    # now a region whose maximal group excludes z
    vals2 = [F(1, 2), F(3, 4), F(1, 2), F(1, 2)]
    r3 = ctx.region_of("l0", tuple(vals2))
    step3 = ctx.time_successor(r3)
    assert step3 is not None
    tag3, r4 = step3
    assert tag3 == "0+"
    assert r4.ints[y] == 1 and r4.fraction_is_zero(y)


def test_delay_steps_tags_match_tick_flip():
    """'1' steps flip the zero-ness of the tick clock's fraction, '0+' steps
    keep it nonzero at both ends."""
    for name in ("ta_opaque", "ta1", "ta_counterex", "ta_opaque2"):
        ctx = load_space(name).ctx
        seen = [ctx.initial_region()]
        frontier = list(seen)
        for _ in range(200):
            if not frontier:
                break
            r = frontier.pop()
            for tag, r2 in ctx.delay_steps(r):
                before = r.fraction_is_zero(ctx.tick)
                after = r2.fraction_is_zero(ctx.tick)
                if tag == "1":
                    assert before != after
                else:
                    assert not before and not after
                if r2 not in seen:
                    seen.append(r2)
                    frontier.append(r2)
            for _, r2 in ctx.discrete_steps(r):
                if r2 not in seen:
                    seen.append(r2)
                    frontier.append(r2)


def test_exactly_one_transition_clause():
    """A generated transition is a discrete step, a '0+' delay, or a '1'
    delay, never two of them at once."""
    ctx = load_space("ta1").ctx
    seen = {ctx.initial_region()}
    frontier = list(seen)
    while frontier:
        r = frontier.pop()
        delays = ctx.delay_steps(r)
        assert len({(tag, encode(t)) for tag, t in delays}) == len(delays)
        by_target = {}
        for tag, t in delays:
            by_target.setdefault(encode(t), set()).add(tag)
        for tags in by_target.values():
            assert len(tags) == 1
        for _, r2 in list(delays) + list(ctx.discrete_steps(r)):
            if r2 not in seen and len(seen) < 400:
                seen.add(r2)
                frontier.append(r2)


def test_time_successor_chain_terminates_in_cycle():
    """Integer parts never decrease along pure-delay-plus-tick-reset chains,
    and the chain loops."""
    ctx = load_space("ta1").ctx
    r = ctx.initial_region()
    trail = [r]
    for _ in range(100):
        step = ctx.time_successor(r)
        if step is None:
            # blocked: the tick reset loop must apply
            nxt = [t for a, t in ctx.discrete_steps(r) if a.kind == "silent"]
            assert nxt, "chain stuck without a tick reset"
            r = nxt[0]
        else:
            _, r2 = step
            for i, n in enumerate(r.ints):
                if n is not ABOVE and r2.ints[i] is not ABOVE and i != ctx.tick:
                    assert r2.ints[i] >= n
            r = r2
        if r in trail:
            return  # cycle found
        trail.append(r)
    raise AssertionError("no cycle within bound")


def test_discrete_successors_fire_on_zero_guard(opaque_space):
    ctx = opaque_space.ctx
    r0 = ctx.initial_region()
    steps = dict(
        ((a.name, t.location), t) for a, t in ctx.discrete_steps(r0)
    )
    assert ("u", "lpriv") in steps
    target = steps[("u", "lpriv")]
    assert target.ints[0] == 0 and target.fraction_is_zero(0)


def test_discrete_successors_respect_unsatisfied_guard():
    ctx = load_space("ta1").ctx
    _, mid = ctx.time_successor(ctx.initial_region())
    # guard x = 1 cannot fire from 0 < x < 1
    assert all(
        t.location != "l0" or a.kind == "silent"
        for a, t in ctx.discrete_steps(mid)
        if a.name == "u"
    )
    assert not any(t.location == "lpriv" for _, t in ctx.discrete_steps(mid))


def test_reset_moves_clock_to_zero_group():
    ctx = load_space("ta1").ctx
    _, mid = ctx.time_successor(ctx.initial_region())
    steps = [(a, t) for a, t in ctx.discrete_steps(mid) if a.name == "b"]
    assert steps
    _, t = steps[0]
    assert t.location == "l2"
    x = 0
    assert t.fraction_is_zero(x) and t.ints[x] == 0
    assert all(x not in g for g in t.pos)


def test_final_secret_public_predicates(opaque_space):
    ctx = opaque_space.ctx
    zeros = ctx.ta.zero_valuation()
    fin_priv = ctx.region_of("lf^p", zeros)
    fin_pub = ctx.region_of("lf", zeros)
    priv = ctx.region_of("lpriv", zeros)
    assert ctx.is_final(fin_priv) and ctx.is_secret(fin_priv)
    assert ctx.is_final(fin_pub) and ctx.is_public(fin_pub)
    assert ctx.is_secret(priv) and not ctx.is_final(priv)


def test_tick_clock_never_escapes_its_cap(opaque_space):
    ctx = opaque_space.ctx
    assert ctx.cmax[ctx.tick] == 1


def test_format_region_readable(opaque_space):
    ctx = opaque_space.ctx
    txt = ctx.format_region(ctx.initial_region())
    assert txt.startswith("l0 | ")
    assert "x=0" in txt and "z=0" in txt


def test_discrete_successors_filter_by_enabled(opaque_space):
    ctx = opaque_space.ctx
    r0 = ctx.initial_region()
    unc = ctx.ta.uncontrollable

    def names(enabled, silent_ok=True):
        return {
            (a.name, a.kind)
            for a, _ in ctx.discrete_steps(r0)
            if (a.kind == "silent" and silent_ok) or a.name in unc or a.name in enabled
        }

    with_a = {n for n, _ in names(frozenset({"a"}))}
    without = {n for n, _ in names(frozenset())}
    assert "a" in with_a
    assert "a" not in without and "u" in without
    assert all(kind != "silent" for _, kind in names(frozenset(), silent_ok=False))


# --- interning -------------------------------------------------------------------


def _reachable(ctx, limit=300):
    seen = {ctx.initial_region()}
    frontier = list(seen)
    while frontier and len(seen) < limit:
        r = frontier.pop()
        for _, r2 in list(ctx.delay_steps(r)) + list(ctx.discrete_steps(r)):
            if r2 not in seen:
                seen.add(r2)
                frontier.append(r2)
    return sorted(seen, key=encode)


def test_successors_are_interned_with_dense_ids():
    ctx = RegionContext(prepare(load_ta("ta1")))
    regions = _reachable(ctx)
    for r in regions:
        for _, r2 in list(ctx.delay_steps(r)) + list(ctx.discrete_steps(r)):
            assert r2 is ctx.regions[ctx.intern(r2)]
    assert sorted(ctx.intern(r) for r in ctx.regions) == list(range(len(ctx.regions)))
    copy = Region(regions[-1].location, regions[-1].ints, regions[-1].zero, regions[-1].pos)
    assert copy is not regions[-1] and ctx.canonical(copy) is regions[-1]
    finals = {r for r in ctx.regions if ctx.is_final(r)}
    assert ctx.private_finals | ctx.public_finals == finals
    assert all(ctx.is_secret(r) for r in ctx.private_finals)
    assert not any(ctx.is_secret(r) for r in ctx.public_finals)


def test_intern_assigns_one_id_per_region_across_threads():
    ta = prepare(load_ta("ta_opaque2"))
    values = [Region(r.location, r.ints, r.zero, r.pos) for r in _reachable(RegionContext(ta))]

    def race(ctx: RegionContext) -> list[dict]:
        results: list[dict] = []

        def work(seed: int) -> None:
            order = values[:]
            random.Random(seed).shuffle(order)
            results.append({encode(r): ctx.intern(r) for r in order})

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        return results

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            ctx = RegionContext(ta)
            results = race(ctx)
            assert len(results) == 8
            assert all(ids == results[0] for ids in results)
            assert sorted(results[0].values()) == list(range(len(values)))
            assert len(ctx.regions) == len(values)
    finally:
        sys.setswitchinterval(old)
