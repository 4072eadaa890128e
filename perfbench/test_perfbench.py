"""Tests of the benchmark itself: the gate counts every kind of failure, the
expected table agrees with the hand-written verdicts, the generator is
seeded, and traced counts repeat.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import bench
import gen
import tracing
import workloads
from etopaq import game, oracle, taformat
from etopaq.strategies import MetaStrategy, UnitPlan
from etopaq.ta import validate

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def fixture_sat_count() -> int:
    table = json.loads(workloads.EXPECTED_PATH.read_text())["fixtures"]
    return sum(v == "SAT" for v in table.values())


def test_expected_table_matches_hand_written_verdicts():
    table = json.loads(workloads.EXPECTED_PATH.read_text())["fixtures"]
    assert table["ta_opaque/full"] == "SAT"
    assert table["ta1/full"] == "UNSAT"
    assert table["ta1/weak"] == "SAT"
    assert table["ta1/exists"] == "true"
    assert table["ta_counterex+counterex_phi/full"] == "NOT-OK (2,3)"


def test_clean_run_counts_nothing():
    result = bench.measure("fixtures", 0, 0.0, traced=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.build("fixtures", 0, ROOT))


def test_wrong_verdict_is_counted(monkeypatch):
    real = game.solve

    def sat_reported_as_unsat(space, mode, **kwargs):
        res = real(space, mode, **kwargs)
        if res.status == "SAT":
            return dataclasses.replace(res, status="UNSAT", witness=None)
        return res

    monkeypatch.setattr(game, "solve", sat_reported_as_unsat)
    result = bench.measure("fixtures", 0, 0.0, traced=False)
    assert not result["correct"]
    assert result["failed"] == fixture_sat_count()
    assert all("expected SAT" in r[0] for r in result["info"]["failures"].values())


def test_corrupted_witness_is_counted(monkeypatch):
    def nothing_ever_enabled(witness):
        empty = frozenset()
        return MetaStrategy((), (UnitPlan(empty, (empty,)),))

    monkeypatch.setattr(game, "witness_to_metastrategy", nothing_ever_enabled)
    result = bench.measure("fixtures", 0, 0.0, traced=False)
    assert not result["correct"] and result["failed"] >= 1
    for reasons in result["info"]["failures"].values():
        assert all(r.startswith("witness rejected") for r in reasons)


def test_oracle_disagreement_is_counted(monkeypatch):
    q = next(q for q in workloads.build("fixtures", 0, ROOT) if q.msf_text and q.mode == "weak")
    q = dataclasses.replace(q, oracle_timed=True)
    assert workloads.gate(q, workloads.run_query(q), "OK") == []

    monkeypatch.setattr(oracle, "oracle_verdict", lambda table, mode: (False, None))
    reasons = workloads.gate(q, workloads.run_query(q), "OK")
    assert reasons == ["belief side OK, oracle NOT-OK None"]


def test_exception_is_counted(monkeypatch):
    def out_of_memory(space, mode, **kwargs):
        raise MemoryError

    monkeypatch.setattr(game, "solve", out_of_memory)
    q = workloads.build("minsky", 0, ROOT)[0]
    out = workloads.run_query(q)
    assert out.verdict == "ERROR" and not out.decided
    assert workloads.gate(q, out, None) == ["MemoryError"]


def test_generator_is_seeded_and_round_trips():
    knobs = workloads.FAMILY_KNOBS
    first = gen.automata(3, knobs, 20, "t")
    assert first == gen.automata(3, knobs, 20, "t")
    assert first != gen.automata(4, knobs, 20, "t")
    for _, text in first:
        ta = taformat.parse(text)
        assert validate(ta) == [] and taformat.dump(ta) == text


def test_verdict_codes_round_trip():
    for verdict in ("SAT", "UNSAT", "INDETERMINATE", "OK", "true", "false",
                    "NOT-OK [3,3]", "NOT-OK (2,3)", "NOT-OK (12,13)"):
        assert workloads.decode(workloads.code(verdict)) == verdict


def test_traced_counts_repeat_and_patches_are_removed():
    queries = workloads.build("fixtures", 0, ROOT)
    solve = game.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            tracer.reset()
            bench.run_pass(queries, bench.Probe(), tracer=tracer)
            m = tracer.metrics()
            counts.append({c: m[c] for c in tracing.COUNTS})
    finally:
        tracer.uninstall()
    assert game.solve is solve
    assert counts[0] == counts[1]
    assert counts[0]["game.expand_calls"] > 0 and counts[0]["regions.calls"] > 0
    assert set(m) | {"trace.overhead_ratio"} == set(tracing.METRICS)
