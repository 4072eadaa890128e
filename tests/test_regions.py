from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    delay_steps,
    discrete_steps,
    load_space,
    load_ta,
    time_successor,
    valuations_equivalent,
)
from etopaq import prepare
from etopaq.regions import (
    ABOVE,
    Region,
    RegionContext,
    encode,
    region_of,
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


def test_initial_id_is_the_region_of_the_zero_valuation():
    """`initial_id` interns the all-zero clock part without a valuation; it
    is the id of the zero valuation's region, whichever is asked first."""
    from conftest import random_ta

    rng = random.Random(16)
    names = ("ta1", "ta_opaque", "ta_opaque2", "ta_counterex", "ta_nfv", "t2_like", "t3_like",
             "minsky_halt", "minsky_inc_halt", "minsky_ifz_loop")
    automata = [load_ta(n) for n in names] + [random_ta(rng, name=f"z{i}") for i in range(40)]
    for ta in automata:
        prepared = prepare(ta)
        zeros = (F(0),) * len(prepared.clocks)
        ctx = RegionContext(prepared)
        assert ctx.initial_id() == ctx.intern(ctx.region_of(prepared.init, zeros)) == 0
        assert ctx.initial_id() == 0 and len(ctx.regions) == 1
        other = RegionContext(prepared)
        assert other.intern(other.region_of(prepared.init, zeros)) == other.initial_id()
        assert ctx.initial_region() == region_of(prepared.init, zeros, ctx.cmax)


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
    step = time_successor(ctx, ctx.initial_region())
    assert step is not None
    tag, r = step
    assert tag == "1"
    assert r.zero == ()
    assert len(r.pos) == 1  # every clock shares the fraction


def test_time_successor_reaches_boundary(opaque_space):
    ctx = opaque_space.ctx
    _, mid = time_successor(ctx, ctx.initial_region())
    step = time_successor(ctx, mid)
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
    step = time_successor(ctx, r)
    assert step is not None
    tag, r2 = step
    assert tag == "1"  # promoted group contains z
    # now a region whose maximal group excludes z
    vals2 = [F(1, 2), F(3, 4), F(1, 2), F(1, 2)]
    r3 = ctx.region_of("l0", tuple(vals2))
    step3 = time_successor(ctx, r3)
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
            for tag, r2 in delay_steps(ctx, r):
                before = r.fraction_is_zero(ctx.tick)
                after = r2.fraction_is_zero(ctx.tick)
                if tag == "1":
                    assert before != after
                else:
                    assert not before and not after
                if r2 not in seen:
                    seen.append(r2)
                    frontier.append(r2)
            for _, r2 in discrete_steps(ctx, r):
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
        delays = delay_steps(ctx, r)
        assert len({(tag, encode(t)) for tag, t in delays}) == len(delays)
        by_target = {}
        for tag, t in delays:
            by_target.setdefault(encode(t), set()).add(tag)
        for tags in by_target.values():
            assert len(tags) == 1
        for _, r2 in list(delays) + list(discrete_steps(ctx, r)):
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
        step = time_successor(ctx, r)
        if step is None:
            # blocked: the tick reset loop must apply
            nxt = [t for a, t in discrete_steps(ctx, r) if a.kind == "silent"]
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
        ((a.name, t.location), t) for a, t in discrete_steps(ctx, r0)
    )
    assert ("u", "lpriv") in steps
    target = steps[("u", "lpriv")]
    assert target.ints[0] == 0 and target.fraction_is_zero(0)


def test_discrete_successors_respect_unsatisfied_guard():
    ctx = load_space("ta1").ctx
    _, mid = time_successor(ctx, ctx.initial_region())
    # guard x = 1 cannot fire from 0 < x < 1
    assert all(
        t.location != "l0" or a.kind == "silent"
        for a, t in discrete_steps(ctx, mid)
        if a.name == "u"
    )
    assert not any(t.location == "lpriv" for _, t in discrete_steps(ctx, mid))


def test_reset_moves_clock_to_zero_group():
    ctx = load_space("ta1").ctx
    _, mid = time_successor(ctx, ctx.initial_region())
    steps = [(a, t) for a, t in discrete_steps(ctx, mid) if a.name == "b"]
    assert steps
    _, t = steps[0]
    assert t.location == "l2"
    x = 0
    assert t.fraction_is_zero(x) and t.ints[x] == 0
    assert all(x not in g for g in t.pos)


def test_final_secret_public_predicates(opaque_space):
    ctx = opaque_space.ctx
    zeros = (F(0),) * len(ctx.ta.clocks)
    fin_priv = ctx.region_of("lf^p", zeros)
    fin_pub = ctx.region_of("lf", zeros)
    priv = ctx.region_of("lpriv", zeros)
    assert ctx.is_final(fin_priv) and ctx.is_secret(fin_priv)
    assert ctx.is_final(fin_pub) and not ctx.is_secret(fin_pub)
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
            for a, _ in discrete_steps(ctx, r0)
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
        for _, r2 in list(delay_steps(ctx, r)) + list(discrete_steps(ctx, r)):
            if r2 not in seen:
                seen.add(r2)
                frontier.append(r2)
    return sorted(seen, key=encode)


def test_successors_are_interned_with_dense_ids():
    ctx = RegionContext(prepare(load_ta("ta1")))
    regions = _reachable(ctx)
    for r in regions:
        rid = ctx.intern(r)
        assert ctx.regions[rid] is r
        for _, j in ctx.delay_steps(rid) + ctx.discrete_steps(rid):
            assert ctx.intern(ctx.regions[j]) == j
    assert sorted(ctx.intern(r) for r in ctx.regions) == list(range(len(ctx.regions)))
    copy = Region(regions[-1].location, regions[-1].ints, regions[-1].zero, regions[-1].pos)
    assert copy is not regions[-1] and ctx.regions[ctx.intern(copy)] is regions[-1]
    finals = {i for i, r in enumerate(ctx.regions) if ctx.is_final(r)}
    assert ctx.private_finals | ctx.public_finals == finals
    assert all(ctx.is_secret(ctx.regions[i]) for i in ctx.private_finals)
    assert not any(ctx.is_secret(ctx.regions[i]) for i in ctx.public_finals)


def test_region_view_indexes_like_a_list():
    """`ctx.regions` builds each region's object once, whichever way its id
    is written, and ends iteration at the last id."""
    ctx = RegionContext(prepare(load_ta("ta1")))
    _reachable(ctx, limit=20)
    regions, n = ctx.regions, len(ctx.regions)
    assert list(regions) == [regions[i] for i in range(n)]
    assert all(regions[i - n] is regions[i] for i in range(n))
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            regions[bad]


def _atom_holds_in(region, atom) -> bool:
    n = region.ints[atom.clock]
    if n is ABOVE:
        return atom.rel in (">", ">=")
    on_integer = region.fraction_is_zero(atom.clock)
    d = atom.bound
    if atom.rel == "<":
        return n < d
    if atom.rel == "<=":
        return n < d or (n == d and on_integer)
    if atom.rel == "=":
        return n == d and on_integer
    if atom.rel == ">=":
        return n >= d
    return n > d or (n == d and not on_integer)


def _invariant_ok(ctx, region) -> bool:
    return all(_atom_holds_in(region, a) for a in ctx.ta.invariant(region.location))


def _time_successor(ctx, region):
    ints = list(region.ints)
    if region.zero:
        survivors = []
        for i in region.zero:
            if ints[i] == ctx.cmax[i]:
                ints[i] = ABOVE
            else:
                survivors.append(i)
        pos = ((tuple(survivors),) if survivors else ()) + region.pos
        succ, moved = Region(region.location, tuple(ints), (), pos), region.zero
    elif region.pos:
        moved = region.pos[-1]
        zero = []
        for i in moved:
            ints[i] += 1
            if ints[i] > ctx.cmax[i]:
                ints[i] = ABOVE
            else:
                zero.append(i)
        succ = Region(region.location, tuple(ints), tuple(zero), region.pos[:-1])
    else:
        return None
    if not _invariant_ok(ctx, succ):
        return None
    return ("1" if ctx.tick in moved else "0+"), succ


def _reset_image(region, resets, target):
    ints = [0 if i in resets else n for i, n in enumerate(region.ints)]
    zero = sorted(set(region.zero) | resets)
    pos = tuple(g for g in (tuple(i for i in grp if i not in resets) for grp in region.pos) if g)
    return Region(target, tuple(ints), tuple(zero), pos)


def _reference_steps(ctx, region):
    delay = [("0+", region)] if not region.zero else []
    nxt = _time_successor(ctx, region)
    if nxt is not None:
        delay.append(nxt)
    discrete = []
    for e in ctx.ta.edges:
        if e.source != region.location:
            continue
        if all(_atom_holds_in(region, a) for a in e.guard):
            image = _reset_image(region, e.resets, e.target)
            if _invariant_ok(ctx, image):
                discrete.append((e.action, image))
    return Counter(delay), Counter(discrete)


def _assert_kernel_matches_reference(ta) -> int:
    """Every region reachable from the initial one has the same delay and
    discrete steps, with multiplicity, as the atom-by-atom path gives;
    returns how many regions were compared."""
    ctx = RegionContext(prepare(ta))
    start = ctx.initial_region()
    seen = {start}
    queue = [start]
    for r in queue:
        delay, discrete = delay_steps(ctx, r), discrete_steps(ctx, r)
        assert (Counter(delay), Counter(discrete)) == _reference_steps(ctx, r), (ta.name, r)
        for _, r2 in delay + discrete:
            if r2 not in seen:
                seen.add(r2)
                queue.append(r2)
    return len(queue)


def test_kernel_matches_reference_on_paper_fixtures():
    for name in ("ta_opaque", "ta1", "ta_opaque2", "ta_counterex", "ta_nfv", "t2_like", "t3_like"):
        assert _assert_kernel_matches_reference(load_ta(name)) > 1, name


def test_kernel_matches_reference_on_minsky_gadgets():
    # each gadget's whole region graph is small (467 to 550 regions)
    for name in ("minsky_halt", "minsky_inc_halt", "minsky_ifz_loop"):
        assert _assert_kernel_matches_reference(load_ta(name)) > 100, name


def test_kernel_matches_reference_on_random_automata():
    from conftest import random_ta

    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    for i in range(50):
        assert _assert_kernel_matches_reference(random_ta(rng, name=f"kernel{i}")) > 0
