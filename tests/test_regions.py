from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import load_space, load_ta, time_successor, valuations_equivalent
from etopaq import prepare
from etopaq.beliefs import Belief
from etopaq.regions import RegionContext
from regionref import ABOVE, Region, is_final, is_secret, member, region


def F(num, den=1):
    return Fraction(num, den)


def _fresh_ctx(name: str) -> RegionContext:
    return RegionContext(prepare(load_ta(name)))


def test_region_of_zero_valuation(opaque_space):
    ctx = opaque_space.ctx
    r = region(ctx, ctx.initial_id())
    assert r.location == "l0"
    assert all(n == 0 for n in r.ints)
    assert r.zero == tuple(range(len(ctx.ta.clocks)))
    assert r.pos == ()


def test_initial_id_is_the_region_of_the_zero_valuation():
    """`initial_id` is the id of the zero valuation's region at the initial
    location, whichever is asked first."""
    from conftest import random_ta

    rng = random.Random(16)
    names = ("ta1", "ta_opaque", "ta_opaque2", "ta_counterex", "ta_nfv", "t2_like", "t3_like",
             "minsky_halt", "minsky_inc_halt", "minsky_ifz_loop")
    automata = [load_ta(n) for n in names] + [random_ta(rng, name=f"z{i}") for i in range(40)]
    for ta in automata:
        prepared = prepare(ta)
        zeros = (F(0),) * len(prepared.clocks)
        ctx = RegionContext(prepared)
        assert ctx.initial_id() == ctx.id_of(prepared.init, zeros) == 0
        assert len(ctx.locations) == 1
        other = RegionContext(prepared)
        assert other.id_of(prepared.init, zeros) == other.initial_id() == 0
        n = len(prepared.clocks)
        assert region(ctx, 0) == Region(prepared.init, (0,) * n, tuple(range(n)), ())


def test_region_of_merges_equal_fractions():
    ctx = _fresh_ctx("ta_opaque2")  # clocks x, y, w, z with max constants 1, 2, 0, 1
    a = ctx.id_of("l0", (F(3, 10), F(3, 10), F(0), F(0)))
    b = ctx.id_of("l0", (F(3, 5), F(3, 5), F(0), F(0)))
    assert a == b
    assert region(ctx, a).pos == ((0, 1),)
    with pytest.raises(ValueError):  # one value per clock, no fewer
        ctx.id_of("l0", (F(3, 10), F(3, 10)))


def test_region_of_above_with_lone_fraction():
    ctx = _fresh_ctx("ta_opaque2")
    r = region(ctx, ctx.id_of("l0", (F(5, 2), F(1, 2), F(0), F(0))))
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
    """Equal `id_of` ids must coincide with the direct three-condition
    equivalence on random valuation pairs."""
    rng = random.Random(20240)
    for name in ("ta_opaque", "ta1", "ta_opaque2", "ta_counterex"):
        ctx = _fresh_ctx(name)
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
            same_region = ctx.id_of("l0", a) == ctx.id_of("l0", b)
            equivalent = valuations_equivalent(a, b, ctx.cmax)
            disagreements += same_region != equivalent
        assert disagreements == 0


def test_time_successor_from_origin(opaque_space):
    ctx = opaque_space.ctx
    step = time_successor(ctx, ctx.initial_id())
    assert step is not None
    tag, j = step
    r = region(ctx, j)
    assert tag == "1"
    assert r.zero == ()
    assert len(r.pos) == 1  # every clock shares the fraction


def test_time_successor_reaches_boundary(opaque_space):
    ctx = opaque_space.ctx
    _, mid = time_successor(ctx, ctx.initial_id())
    step = time_successor(ctx, mid)
    assert step is not None
    tag, j = step
    r = region(ctx, j)
    assert tag == "1"
    x = 0
    assert r.ints[x] == 1 and r.fraction_is_zero(x)


def test_time_successor_promotes_maximal_group_only():
    ctx = _fresh_ctx("ta_opaque2")
    z = ctx.tick
    # all fractions nonzero; the (y, z) group is maximal
    y = 1
    vals = [F(1, 4), F(1, 2), F(1, 4), F(1, 2)]
    r = ctx.id_of("l0", tuple(vals))
    pos = region(ctx, r).pos
    assert len(pos) == 2 and z in pos[-1]
    step = time_successor(ctx, r)
    assert step is not None
    tag, _ = step
    assert tag == "1"  # promoted group contains z
    # now a region whose maximal group (y,) excludes z: y lands on the integer
    # 1, w stays above its max constant, and (x, z) stays the only fractional group
    vals2 = [F(1, 2), F(3, 4), F(1, 2), F(1, 2)]
    r3 = ctx.id_of("l0", tuple(vals2))
    assert region(ctx, r3).pos == ((0, z), (y,))
    step3 = time_successor(ctx, r3)
    assert step3 is not None
    tag3, j = step3
    assert tag3 == "0+"
    assert region(ctx, j) == Region("l0", (0, 1, ABOVE, 0), (y,), ((0, z),))


def test_delay_steps_tags_match_tick_flip():
    """'1' steps flip the zero-ness of the tick clock's fraction, '0+' steps
    keep it nonzero at both ends."""
    for name in ("ta_opaque", "ta1", "ta_counterex", "ta_opaque2"):
        ctx = load_space(name).ctx
        seen = [ctx.initial_id()]
        frontier = list(seen)
        for _ in range(200):
            if not frontier:
                break
            i = frontier.pop()
            for tag, j in ctx.delay_steps(i):
                before = region(ctx, i).fraction_is_zero(ctx.tick)
                after = region(ctx, j).fraction_is_zero(ctx.tick)
                if tag == "1":
                    assert before != after
                else:
                    assert not before and not after
                if j not in seen:
                    seen.append(j)
                    frontier.append(j)
            for _, j in ctx.discrete_steps(i):
                if j not in seen:
                    seen.append(j)
                    frontier.append(j)


def test_exactly_one_transition_clause():
    """A generated transition is a discrete step, a '0+' delay, or a '1'
    delay, never two of them at once."""
    ctx = load_space("ta1").ctx
    seen = {ctx.initial_id()}
    frontier = list(seen)
    while frontier:
        i = frontier.pop()
        delays = ctx.delay_steps(i)
        assert len(set(delays)) == len(delays)
        by_target = {}
        for tag, j in delays:
            by_target.setdefault(j, set()).add(tag)
        for tags in by_target.values():
            assert len(tags) == 1
        for _, j in delays + ctx.discrete_steps(i):
            if j not in seen and len(seen) < 400:
                seen.add(j)
                frontier.append(j)


def test_time_successor_chain_terminates_in_cycle():
    """Integer parts never decrease along pure-delay-plus-tick-reset chains,
    and the chain loops."""
    ctx = load_space("ta1").ctx
    r = ctx.initial_id()
    trail = [r]
    for _ in range(100):
        step = time_successor(ctx, r)
        if step is None:
            # blocked: the tick reset loop must apply
            nxt = [j for a, j in ctx.discrete_steps(r) if a.kind == "silent"]
            assert nxt, "chain stuck without a tick reset"
            r = nxt[0]
        else:
            _, r2 = step
            before, after = region(ctx, r).ints, region(ctx, r2).ints
            for i, n in enumerate(before):
                if n is not ABOVE and after[i] is not ABOVE and i != ctx.tick:
                    assert after[i] >= n
            r = r2
        if r in trail:
            return  # cycle found
        trail.append(r)
    raise AssertionError("no cycle within bound")


def test_discrete_successors_fire_on_zero_guard(opaque_space):
    ctx = opaque_space.ctx
    steps = {
        (a.name, ctx.locations[j]): region(ctx, j) for a, j in ctx.discrete_steps(ctx.initial_id())
    }
    assert ("u", "lpriv") in steps
    target = steps[("u", "lpriv")]
    assert target.ints[0] == 0 and target.fraction_is_zero(0)


def test_discrete_successors_respect_unsatisfied_guard():
    ctx = load_space("ta1").ctx
    _, mid = time_successor(ctx, ctx.initial_id())
    # guard x = 1 cannot fire from 0 < x < 1
    assert all(
        ctx.locations[j] != "l0" or a.kind == "silent"
        for a, j in ctx.discrete_steps(mid)
        if a.name == "u"
    )
    assert not any(ctx.locations[j] == "lpriv" for _, j in ctx.discrete_steps(mid))


def test_reset_moves_clock_to_zero_group():
    ctx = load_space("ta1").ctx
    _, mid = time_successor(ctx, ctx.initial_id())
    steps = [(a, j) for a, j in ctx.discrete_steps(mid) if a.name == "b"]
    assert steps
    t = region(ctx, steps[0][1])
    assert t.location == "l2"
    x = 0
    assert t.fraction_is_zero(x) and t.ints[x] == 0
    assert all(x not in g for g in t.pos)


def test_final_secret_public_predicates():
    ctx = _fresh_ctx("ta_opaque")
    zeros = (F(0),) * len(ctx.ta.clocks)
    fin_priv = ctx.id_of("lf^p", zeros)
    fin_pub = ctx.id_of("lf", zeros)
    priv = ctx.id_of("lpriv", zeros)
    private_finals, public_finals = Belief(ctx.private_mask), Belief(ctx.public_mask)
    assert fin_priv in private_finals and fin_priv not in public_finals
    assert fin_pub in public_finals and fin_pub not in private_finals
    assert priv not in private_finals | public_finals


def test_tick_clock_never_escapes_its_cap(opaque_space):
    ctx = opaque_space.ctx
    assert ctx.cmax[ctx.tick] == 1


def test_format_region_readable(opaque_space):
    ctx = opaque_space.ctx
    txt = ctx.format_region(ctx.initial_id())
    assert txt.startswith("l0 | ")
    assert "x=0" in txt and "z=0" in txt


def test_discrete_successors_filter_by_enabled(opaque_space):
    ctx = opaque_space.ctx
    unc = ctx.ta.uncontrollable

    def names(enabled, silent_ok=True):
        return {
            (a.name, a.kind)
            for a, _ in ctx.discrete_steps(ctx.initial_id())
            if (a.kind == "silent" and silent_ok) or a.name in unc or a.name in enabled
        }

    with_a = {n for n, _ in names(frozenset({"a"}))}
    without = {n for n, _ in names(frozenset())}
    assert "a" in with_a
    assert "a" not in without and "u" in without
    assert all(kind != "silent" for _, kind in names(frozenset(), silent_ok=False))


# --- interning ---------------------------------------------------------------


def _walk(ctx, limit=None) -> list[int]:
    """The ids reachable from the initial region, breadth first, at most
    ``limit`` of them."""
    order = [ctx.initial_id()]
    seen = set(order)
    for i in order:
        for _, j in ctx.delay_steps(i) + ctx.discrete_steps(i):
            if j not in seen and (limit is None or len(order) < limit):
                seen.add(j)
                order.append(j)
    return order


def test_successors_are_interned_with_dense_ids():
    """After a walk the ids are dense and `key` is injective; `id_of` maps a
    valuation inside each region back to its id; the final ids are those at
    a final location, split primed-or-private."""
    for name in ("ta1", "ta_opaque2", "ta_counterex", "minsky_halt"):
        ctx = _fresh_ctx(name)
        walked = _walk(ctx)
        n = len(ctx.locations)
        assert sorted(walked) == list(range(n)), name
        assert len({ctx.key(i) for i in range(n)}) == n, name
        for i in walked:
            r = region(ctx, i)
            assert ctx.id_of(r.location, member(r, ctx.cmax)) == i, (name, r)
        assert len(ctx.locations) == n
        finals = {i for i in range(n) if is_final(ctx, i)}
        private_finals = frozenset(Belief(ctx.private_mask))
        public_finals = frozenset(Belief(ctx.public_mask))
        assert private_finals | public_finals == finals, name
        private = {i for i in finals if is_secret(ctx, i)}
        assert private_finals == private and private_finals and public_finals, name


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
    walked = _walk(ctx)
    for i in walked:
        r = region(ctx, i)
        delay = Counter((tag, region(ctx, j)) for tag, j in ctx.delay_steps(i))
        discrete = Counter((a, region(ctx, j)) for a, j in ctx.discrete_steps(i))
        assert (delay, discrete) == _reference_steps(ctx, r), (ta.name, r)
    return len(walked)


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
