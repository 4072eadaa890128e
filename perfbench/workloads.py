"""The benchmark's workloads: which queries each one runs, the timed call
sequence of one query, and the correctness gate that feeds `failed`.

A query is one automaton in one mode, or one automaton checked against one
meta-strategy in one mode.  `run_query` calls the program in the order the
`etopaq check` / `synthesize` / `verdict` commands do, through module
attributes, so the traced run can wrap them.  The gate binds its checkers at
import time, so nothing a traced or fault-injecting run patches reaches it.
"""
from __future__ import annotations

import itertools
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from etopaq import game, msformat, oracle, taformat
from etopaq import ta as ta_mod
from etopaq.beliefs import BeliefSpace
from etopaq.regions import RegionContext
from etopaq.strategies import all_enabled

_check_metastrategy = game.check_metastrategy
_oracle_buckets = oracle.oracle_buckets
_oracle_verdict = oracle.oracle_verdict

MODES = {m.value: m for m in game.Mode}
GAME_MODES = tuple(MODES)  # full, weak, almost, closed

FIXTURE_AUTOMATA = (
    "ta_opaque", "ta1", "ta_opaque2", "ta_counterex", "ta_nfv", "t2_like", "t3_like",
)
FIXTURE_STRATEGY_CHECKS = (  # the README's two strategy checks
    ("ta_counterex", "counterex_phi", "full"),
    ("ta1", "all_enabled_ab", "weak"),
)
FIXTURE_STATE_CAP = game.DEFAULT_STATE_CAP

# Seeded workloads run one query per automaton, the mode cycling through the
# automata: query costs are heavy-tailed, and many independent draws keep the
# pass total steady from seed to seed where repeating one automaton in every
# mode would not.
FAMILY_KNOBS = gen.Knobs(locations=4, clocks=2, max_constant=2, controllable=2, edges=5)
FAMILY_AUTOMATA = 3000
FAMILY_STATE_CAP = 50

MINSKY_QUERIES = (
    ("minsky_halt", "weak"),
    ("minsky_inc_halt", "weak"),
    ("minsky_ifz_loop", "weak"),
    ("minsky_halt", "full"),
)
MINSKY_STATE_CAP = 1000

STRATEGY_KNOBS = gen.Knobs(locations=8, clocks=2, max_constant=2, controllable=3, edges=12)
STRATEGY_SHAPE = gen.StrategyKnobs(max_stem=4, max_loop=4, max_choices=3)
STRATEGY_AUTOMATA = 2500

WORKLOADS = ("fixtures", "family", "minsky", "strategies")
SEEDED = ("family", "strategies")


@dataclass(frozen=True)
class Query:
    qid: str
    ta_text: str
    mode: str  # a game mode, or "exists"
    msf_text: str | None = None
    state_cap: int | None = None  # game queries only
    oracle_timed: bool = False  # strategy queries: oracle side inside the timed part


@dataclass
class Outcome:
    """What one query returned.  Only `setup_s` and `total_s` are timed; the
    rest is kept for the gate."""

    verdict: str = ""
    setup_s: float = 0.0
    total_s: float = 0.0
    decided: bool = False
    space: BeliefSpace | None = None
    phi: object = None  # the parsed strategy, or the folded witness
    oracle_side: str | None = None
    error: str | None = None


def _fixture_text(root: Path, name: str, suffix: str) -> str:
    return (root / "fixtures" / f"{name}{suffix}").read_text(encoding="utf-8")


def build(workload: str, seed: int, root: Path) -> list[Query]:
    """The workload's queries; only `family` and `strategies` depend on
    `seed`."""
    if workload == "fixtures":
        out = [
            Query(f"{name}/{mode}", _fixture_text(root, name, ".ta"), mode,
                  state_cap=FIXTURE_STATE_CAP)
            for name in FIXTURE_AUTOMATA
            for mode in GAME_MODES + ("exists",)
        ]
        out += [
            Query(f"{name}+{msf}/{mode}", _fixture_text(root, name, ".ta"), mode,
                  msf_text=_fixture_text(root, msf, ".msf"))
            for name, msf, mode in FIXTURE_STRATEGY_CHECKS
        ]
        return out
    if workload == "minsky":
        return [
            Query(f"{name}/{mode}", _fixture_text(root, name, ".ta"), mode,
                  state_cap=MINSKY_STATE_CAP)
            for name, mode in MINSKY_QUERIES
        ]
    if workload == "family":
        automata = gen.automata(seed, FAMILY_KNOBS, FAMILY_AUTOMATA, "f")
        return [
            Query(f"{name}/{mode}", text, mode, state_cap=FAMILY_STATE_CAP)
            for (name, text), mode in zip(automata, itertools.cycle(GAME_MODES))
        ]
    if workload == "strategies":
        automata = gen.automata(seed, STRATEGY_KNOBS, STRATEGY_AUTOMATA, "s")
        rng = random.Random(f"phi:{seed}")
        controllable = [f"a{j}" for j in range(STRATEGY_KNOBS.controllable)]
        out = []
        for (name, text), mode in zip(automata, itertools.cycle(GAME_MODES + ("exists",))):
            msf = msformat.dump(gen.random_metastrategy(rng, controllable, STRATEGY_SHAPE))
            out.append(Query(f"{name}/{mode}", text, mode, msf_text=msf, oracle_timed=True))
        return out
    raise ValueError(f"unknown workload {workload!r}")


# --- one query ------------------------------------------------------------------


def set_up(q: Query) -> BeliefSpace:
    """What every CLI command does first: parse, validate, prepare, and a
    fresh region context and belief space."""
    ta = taformat.parse(q.ta_text)
    problems = ta_mod.validate(ta)
    if problems:
        raise ValueError(f"{q.qid}: invalid automaton: {problems}")
    return BeliefSpace(RegionContext(ta_mod.prepare(ta)))


def _oracle_side(ctx: RegionContext, phi, mode: str, buckets, verdict) -> str:
    table = buckets(ctx, phi)
    if mode == "exists":
        both = any(r.has_private_final and r.has_public_final for r in table.rows)
        return "true" if both else "false"
    ok, offending = verdict(table, MODES[mode])
    return "OK" if ok else f"NOT-OK {offending}"


def run_query(q: Query) -> Outcome:
    """Text to verdict, timed; exceptions (MemoryError included) end the
    query with `error` set."""
    clock = time.perf_counter
    out = Outcome()
    t0 = clock()
    try:
        space = set_up(q)
        out.setup_s = clock() - t0
        out.space = space
        phi = None
        if q.msf_text is not None:
            phi = msformat.parse(q.msf_text, frozenset(space.ctx.ta.controllable))
            out.phi = phi
        if q.mode == "exists":
            holds = game.check_exists(space, phi).holds
            out.verdict = "true" if holds else "false"
            out.decided = True
        elif phi is not None:
            res = game.check_metastrategy(space, phi, MODES[q.mode])
            out.verdict = "OK" if res.ok else f"NOT-OK {res.offending}"
            out.decided = True
        else:
            res = game.solve(space, MODES[q.mode], state_cap=q.state_cap, workers=1)
            out.verdict = res.status
            out.decided = res.status != "INDETERMINATE"
            if res.status == "SAT":
                out.phi = game.witness_to_metastrategy(res.witness)
        if q.oracle_timed:
            out.oracle_side = _oracle_side(
                space.ctx, phi, q.mode, oracle.oracle_buckets, oracle.oracle_verdict
            )
        out.total_s = clock() - t0
    except MemoryError:
        out.error = "MemoryError"
    except Exception as exc:  # a crash is a counted failure, not a benchmark abort
        out.error = f"{type(exc).__name__}: {exc}"
    if out.error:
        out.total_s = clock() - t0
        out.verdict = "ERROR"
        out.decided = False
    return out


# --- correctness gate --------------------------------------------------------------


def gate(q: Query, out: Outcome, expected: str | None) -> list[str]:
    """Reasons the outcome is wrong; empty when it passes.  Runs after the
    timed part and is never timed."""
    if out.error:
        return [out.error]
    reasons = []
    if expected is not None and out.verdict != expected:
        reasons.append(f"verdict {out.verdict}, expected {expected}")
    space = out.space
    if out.verdict == "SAT":
        mode = MODES[q.mode]
        if not _check_metastrategy(space, out.phi, mode).ok:
            reasons.append("witness rejected by check_metastrategy")
        if not _oracle_verdict(_oracle_buckets(space.ctx, out.phi), mode)[0]:
            reasons.append("witness rejected by the oracle")
    elif q.msf_text is not None or q.mode == "exists":
        phi = out.phi if out.phi is not None else all_enabled(space.ctx.ta)
        oracle_side = out.oracle_side or _oracle_side(
            space.ctx, phi, q.mode, _oracle_buckets, _oracle_verdict
        )
        if oracle_side != out.verdict:
            reasons.append(f"belief side {out.verdict}, oracle {oracle_side}")
    return reasons


# --- expected-verdict table ----------------------------------------------------------

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

_CODES = {"SAT": "S", "UNSAT": "U", "INDETERMINATE": "I", "OK": "O", "true": "T", "false": "F"}
_VERDICTS = {c: v for v, c in _CODES.items()}


def code(verdict: str) -> str:
    """Compact form of a verdict, for the seeded tables: one letter, or
    p<k> / i<k> for NOT-OK at the point [k,k] / the interval (k,k+1)."""
    if verdict in _CODES:
        return _CODES[verdict]
    k = verdict[len("NOT-OK ["):].split(",")[0]
    return ("p" if verdict.startswith("NOT-OK [") else "i") + k


def decode(c: str) -> str:
    if c in _VERDICTS:
        return _VERDICTS[c]
    k = int(c[1:])
    return f"NOT-OK [{k},{k}]" if c[0] == "p" else f"NOT-OK ({k},{k + 1})"


def load_expected(workload: str, seed: int, queries: list[Query]) -> list[str | None] | None:
    """Expected verdict per query, or None when the table has no entry for
    this workload and seed."""
    if not EXPECTED_PATH.exists():
        return None
    table = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(workload, {})
    if workload not in SEEDED:
        return [table.get(q.qid) for q in queries] if table else None
    row = table.get(str(seed))
    if row is None:
        return None
    codes = re.findall(r"[a-z]\d+|[A-Z]", row)
    if len(codes) != len(queries):
        raise ValueError(f"expected table for {workload} seed {seed} has "
                         f"{len(codes)} verdicts for {len(queries)} queries")
    return [decode(c) for c in codes]
