"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""
from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction

from concrete import build_run, classify_run, is_feasible, run_admits
from conftest import (
    SOLVE_FIXTURES,
    belief_edges,
    edges_by_key,
    every_enabled_set,
    fixture_path,
    leaking_full,
    load_space,
    load_ta,
    random_metastrategy,
    random_ta,
    valuations_equivalent,
)
from etopaq import msformat, prepare
from etopaq.beliefs import BOTTOM, BeliefSpace
from etopaq.game import (
    Mode,
    check_exists,
    check_metastrategy,
    solve,
    witness_to_metastrategy,
)
from etopaq.minsky import encode, parse_machine, structural_check
from etopaq.oracle import oracle_buckets, oracle_verdict
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


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")

        return run

    return wrap


@criterion(1, "paper-example verdicts")
def test_criterion_1_paper_example_verdicts():
    budget = 5.0

    t0 = time.monotonic()
    opaque = load_space("ta_opaque")
    res = solve(opaque, Mode.FULL)
    assert res.status == "SAT"
    extracted = witness_to_metastrategy(res.witness)
    assert check_metastrategy(opaque, extracted, Mode.FULL).ok
    star = MetaStrategy((), (UnitPlan(A, (NONE,)),))
    assert check_metastrategy(opaque, star, Mode.FULL).ok
    assert time.monotonic() - t0 < budget

    t0 = time.monotonic()
    ta1 = load_space("ta1")
    assert solve(ta1, Mode.FULL).status == "UNSAT"
    assert time.monotonic() - t0 < budget

    t0 = time.monotonic()
    assert solve(ta1, Mode.WEAK).status == "SAT"
    assert time.monotonic() - t0 < budget

    t0 = time.monotonic()
    exists = check_exists(ta1)
    assert exists.holds
    assert Bucket("point", 1) in exists.witnesses
    assert time.monotonic() - t0 < budget

    t0 = time.monotonic()
    counterex_ta = load_ta("ta_counterex")
    counterex = load_space("ta_counterex")
    phi = msformat.load(
        str(fixture_path("counterex_phi.msf")), frozenset(counterex_ta.controllable)
    )
    verdict = check_metastrategy(counterex, phi, Mode.FULL)
    assert not verdict.ok and verdict.offending == Bucket("interval", 2)
    dup = counterex.ctx.ta
    E = edges_by_key(dup)
    fifth = Fraction(1, 5)
    witness_run = build_run(
        dup,
        [
            (fifth, E["l0>l3/a"]),
            (Fraction(4, 5), E["l3>l3/~"]),
            (fifth, E["l3>lpriv/b"]),
            (Fraction(4, 5), E["lpriv>lpriv/~"]),
            (fifth, E["lpriv>lf^p/u3"]),
        ],
    )
    kind, duration = classify_run(dup, witness_run)
    assert kind == "private" and Fraction(2) < duration < Fraction(3)
    assert is_feasible(witness_run, phi, counterex, dup)
    assert time.monotonic() - t0 < budget


@criterion(2, "belief-automaton reconstruction")
def test_criterion_2_belief_reconstruction():
    # seven states and the exact edge set for the one-clock automaton
    space = load_space("ta_opaque")
    b0, b0p = space.initial(A), space.initial(NONE)
    b01 = space.successor(b0, "1", A)
    b01p = space.successor(b0, "1", NONE)
    b1 = space.successor(b01, "1", A)
    b1p = space.successor(b01, "1", NONE)
    names = {BOTTOM: "bot", b0: "b0", b0p: "b0'", b01: "b01", b01p: "b01'", b1: "b1", b1p: "b1'"}
    assert len(names) == 7
    graph = space.explore()
    assert len(graph.nodes) == 7
    got = {
        (names[s], t, "".join(sorted(e)), names[d])
        for s, t, e, d in belief_edges(space, graph)
    }
    expected = {("bot", "0", "a", "b0"), ("bot", "0", "", "b0'")}
    for src in ("b0", "b0'", "b1", "b1'"):
        expected |= {(src, "1", "a", "b01"), (src, "1", "", "b01'")}
    for src in ("b01", "b01'"):
        expected |= {
            (src, "1", "a", "b1"),
            (src, "1", "", "b1'"),
            (src, "0+", "a", "b01"),
            (src, "0+", "", "b01'"),
        }
    assert got == expected

    # the two-clock variant: the full published graph, bottom included
    space2 = load_space("ta_opaque2")
    seq = {"b0": space2.initial(A), "b0'": space2.initial(NONE)}
    ladder = ["b0", "b(0,1)", "b1", "b(1,2)", "b2", "b(2,3)", "b3"]
    for src, dst in zip(ladder, ladder[1:]):
        seq[dst] = space2.successor(seq[src], "1", A)
        seq[dst + "'"] = space2.successor(seq[src], "1", NONE)
    assert len(set(seq.values())) == 14
    names2 = {belief: name for name, belief in seq.items()}
    names2[BOTTOM] = "bot"
    graph2 = space2.explore()
    assert len(graph2.nodes) == 15
    got2 = {
        (names2[s], t, "".join(sorted(e)), names2[d])
        for s, t, e, d in belief_edges(space2, graph2)
    }
    expected2 = {("bot", "0", "a", "b0"), ("bot", "0", "", "b0'")}
    for i, rung in enumerate(ladder):
        nxt = ladder[i + 1] if i + 1 < len(ladder) else "b(2,3)"
        for src in (rung, rung + "'"):
            expected2 |= {(src, "1", "a", nxt), (src, "1", "", nxt + "'")}
    for rung in ("b(0,1)", "b(1,2)", "b(2,3)"):
        for src in (rung, rung + "'"):
            expected2 |= {(src, "0+", "a", rung), (src, "0+", "", rung + "'")}
    assert got2 == expected2


@criterion(3, "oracle equivalence, fixtures + 100 random pairs")
def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()

    def agree(space, phi):
        enc = encountered_beliefs(space, phi)
        table = oracle_buckets(space.ctx, phi)
        assert len(enc.buckets) == len(table.rows)
        for (bucket, belief), row in zip(enc.buckets, table.rows):
            assert bucket == row.bucket
            assert space.has_private_final(belief) == row.has_private_final
            assert space.has_public_final(belief) == row.has_public_final
            assert (space.has_private_final(belief) or space.has_public_final(belief)) == (
                row.has_private_final or row.has_public_final
            )

    for name in SOLVE_FIXTURES:
        agree(load_space(name), all_enabled(load_ta(name)))
    rng = random.Random(20240917)
    for i in range(100):
        ta = random_ta(rng, name=f"acc{i}")
        space = BeliefSpace(RegionContext(prepare(ta)))
        agree(space, random_metastrategy(rng, ta.controllable))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s over budget"


@criterion(4, "robust-mode verdict table")
def test_criterion_4_robust_modes():
    t2 = load_space("t2_like")
    table2 = oracle_buckets(t2.ctx, all_enabled(load_ta("t2_like")))
    flags2 = {str(r.bucket): (r.has_private_final, r.has_public_final) for r in table2.rows}
    # realized duration sets: private [0,2], public (0,1) u (1,2)
    assert flags2["[0,0]"] == (True, False)
    assert flags2["(0,1)"] == (True, True)
    assert flags2["[1,1]"] == (True, False)
    assert flags2["(1,2)"] == (True, True)
    assert flags2["[2,2]"] == (True, False)
    assert flags2["(2,3)"] == (False, False)
    phi2 = all_enabled(load_ta("t2_like"))
    for mode, expected in (
        (Mode.FULL, False),
        (Mode.ALMOST_FULL, True),
        (Mode.CLOSED_FULL, True),
    ):
        assert oracle_verdict(table2, mode)[0] is expected
        assert check_metastrategy(t2, phi2, mode).ok is expected

    t3 = load_space("t3_like")
    table3 = oracle_buckets(t3.ctx, all_enabled(load_ta("t3_like")))
    flags3 = {str(r.bucket): (r.has_private_final, r.has_public_final) for r in table3.rows}
    # realized duration sets: private (0,1) u {2}, public (0,1)
    assert flags3["(0,1)"] == (True, True)
    assert flags3["[1,1]"] == (False, False)
    assert flags3["[2,2]"] == (True, False)
    assert flags3["(1,2)"] == (False, False)
    phi3 = all_enabled(load_ta("t3_like"))
    for mode, expected in ((Mode.ALMOST_FULL, True), (Mode.CLOSED_FULL, False)):
        assert oracle_verdict(table3, mode)[0] is expected
        assert check_metastrategy(t3, phi3, mode).ok is expected


@criterion(5, "region canonicity vs pairwise oracle")
def test_criterion_5_region_canonicity():
    rng = random.Random(31415)
    for name in SOLVE_FIXTURES:
        ctx = RegionContext(prepare(load_ta(name)))
        n = len(ctx.ta.clocks)
        disagreements = 0
        for _ in range(10_000):
            def val():
                return tuple(
                    Fraction(rng.randint(0, (ctx.cmax[i] + 2) * 8), 8)
                    for i in range(n)
                )
            a = val()
            if rng.random() < 0.5:
                b = val()
            else:
                shift = Fraction(rng.randint(0, 24), 8)
                b = tuple(v + shift for v in a)
            same = ctx.id_of("l0", a) == ctx.id_of("l0", b)
            disagreements += same != valuations_equivalent(a, b, ctx.cmax)
        assert disagreements == 0, name


@criterion(6, "monotonicity and weak-implies-full")
def test_criterion_6_monotonicity_suite():
    for name in SOLVE_FIXTURES:
        space = load_space(name)
        graph = space.explore()
        beliefs = [b for b in graph.nodes if b is not BOTTOM]
        subsets = every_enabled_set(space)
        for small, big in itertools.combinations(subsets, 2):
            if not small <= big:
                continue
            assert space.initial(small) <= space.initial(big), name
            for b in beliefs:
                for tick in ("0+", "1"):
                    assert space.successor(b, tick, small) <= space.successor(
                        b, tick, big
                    ), (name, tick)
        for b in beliefs:
            if Mode.WEAK.leaks(space.has_private_final(b), space.has_public_final(b)):
                assert leaking_full(space, b), name


@criterion(7, "synthesis closed loop")
def test_criterion_7_synthesis_closed_loop():
    sat_seen = 0
    for name in SOLVE_FIXTURES:
        space = load_space(name)
        for mode in Mode:
            res = solve(space, mode)
            assert res.status in ("SAT", "UNSAT"), (name, mode)
            if res.status != "SAT":
                continue
            sat_seen += 1
            phi = witness_to_metastrategy(res.witness)
            assert check_metastrategy(space, phi, mode).ok, (name, mode)
            ok, offending = oracle_verdict(oracle_buckets(space.ctx, phi), mode)
            assert ok, (name, mode, offending)
    assert sat_seen >= 8


@criterion(8, "Minsky structural counts")
def test_criterion_8_minsky_counts():
    expected = {
        "halt.mm": (19, 96),
        "inc_halt.mm": (23, 104),
        "ifz_loop.mm": (24, 106),
    }
    for name, counts in expected.items():
        with open(fixture_path(name), encoding="utf-8") as fh:
            machine = parse_machine(fh.read())
        t0 = time.monotonic()
        ta = encode(machine)
        assert time.monotonic() - t0 < 1.0, name
        report = structural_check(ta, machine)
        assert report.ok, (name, report.mismatches)
        assert (report.locations, report.edges) == counts, name


@criterion(9, "admission and feasibility")
def test_criterion_9_admission():
    space = load_space("ta_opaque")
    dup = space.ctx.ta
    E = edges_by_key(dup)
    rho1 = build_run(
        dup, [(1, E["l0>l0/u"]), (0, E["l0>lpriv/u"]), (0, E["lpriv>lf^p/u"])]
    )
    rho2 = build_run(dup, [(1, E["l0>l0/u"]), (0, E["l0>lf/a"])])
    v = (("0", A), ("1", NONE), ("1", A))
    assert run_admits(rho1, v, dup)
    assert run_admits(rho2, v, dup)

    def all_sequences(max_len):
        subsets = (NONE, A)
        for n in range(1, max_len + 1):
            for ticks in itertools.product(*([("0",)] + [("0+", "1")] * (n - 1))):
                for sets in itertools.product(subsets, repeat=n):
                    yield tuple(zip(ticks, sets))

    half = Fraction(1, 2)
    runs = {
        "trivial": build_run(dup, []),
        "a_at_0": build_run(dup, [(0, E["l0>lf/a"])]),
        "u_chain": build_run(dup, [(0, E["l0>lpriv/u"]), (0, E["lpriv>lf^p/u"])]),
        "a_mid": build_run(dup, [(half, E["l0>lf/a"])]),
        "unit_then_a": build_run(dup, [(1, E["l0>l0/u"]), (0, E["l0>lf/a"])]),
    }
    seqs = list(all_sequences(4))

    def expect(name, v):
        # direct transcription of the delay/endpoint case analysis
        if name == "trivial":
            return len(v) == 1
        if name == "a_at_0":
            return len(v) == 1 and v[0][1] == A
        if name == "u_chain":
            return len(v) == 1
        if name == "a_mid":
            return (
                len(v) >= 2
                and v[1][0] == "1"
                and all(t == "0+" for t, _ in v[2:])
                and v[-1][1] == A
            )
        return (
            len(v) >= 3
            and v[1][0] == "1"
            and v[-1] == ("1", A)
            and all(t == "0+" for t, _ in v[2:-1])
        )

    for name, run in runs.items():
        got = {v for v in seqs if run_admits(run, v, dup)}
        want = {v for v in seqs if expect(name, v)}
        assert got == want, name
