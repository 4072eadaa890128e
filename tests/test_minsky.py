from __future__ import annotations

import time
from dataclasses import replace

import pytest

from conftest import fixture_path
from etopaq import taformat, validate
from etopaq.minsky import (
    ACTION_NAMES,
    Halt,
    IfZero,
    Inc,
    MinskyMachine,
    encode,
    expected_counts,
    parse_machine,
    structural_check,
)


def load_machine(name: str) -> MinskyMachine:
    with open(fixture_path(name), encoding="utf-8") as fh:
        return parse_machine(fh.read())


def test_parse_machine_formats():
    m = parse_machine("INC C1\nDEC C2\nIFZ C1 3 0\nHALT\n# trailing comment")
    assert m.commands[0] == Inc("C1")
    assert isinstance(m.commands[2], IfZero)
    assert m.commands[2].goto_zero == 3
    with pytest.raises(ValueError, match="line 1: unknown counter 'C3'"):
        parse_machine("INC C3\nHALT")
    with pytest.raises(ValueError):
        parse_machine("INC C1")  # no HALT
    with pytest.raises(ValueError, match="line 1: goto target 5 out of range"):
        parse_machine("IFZ C1 5 0\nHALT")
    # comments and blank lines count as lines, not as commands
    with pytest.raises(ValueError, match="line 4: goto target 7 out of range"):
        parse_machine("# loop\nINC C1\n\nIFZ C1 0 7\nHALT")
    with pytest.raises(ValueError, match="line 3: HALT only as the last command"):
        parse_machine("INC C1  # one\n\nHALT\nINC C2\nHALT")
    with pytest.raises(ValueError, match="line 1: trailing 'junk'"):
        parse_machine("INC C1 junk\nHALT")
    with pytest.raises(ValueError, match="line 2: trailing 'now'"):
        parse_machine("INC C1\nHALT now")


def test_halt_only_counts():
    m = load_machine("halt.mm")
    t0 = time.monotonic()
    ta = encode(m)
    assert time.monotonic() - t0 < 1.0
    report = structural_check(ta, m)
    assert report.ok, report.mismatches
    assert (report.locations, report.edges) == (19, 96)


def test_inc_then_halt_counts():
    m = load_machine("inc_halt.mm")
    ta = encode(m)
    report = structural_check(ta, m)
    assert report.ok, report.mismatches
    assert (report.locations, report.edges) == (23, 104)


def test_ifz_loop_counts():
    m = load_machine("ifz_loop.mm")
    ta = encode(m)
    report = structural_check(ta, m)
    assert report.ok, report.mismatches
    assert (report.locations, report.edges) == (24, 106)


def test_watchdog_alphabet_sizes():
    m = load_machine("halt.mm")
    ta = encode(m, raw=True)
    assert len(ACTION_NAMES) == 9
    branch_targets = {e.target for e in ta.edges if e.source == "linit"}
    assert branch_targets == {"linit_GC1", "linit_GC2", "linit_1act", "linit_c0"}
    watchdog_locs = [l for l in ta.locations if l.startswith("l1act_")]
    assert len(watchdog_locs) == len(ACTION_NAMES) + 1  # one per action + error


def test_tampered_automaton_fails_structural_check():
    m = load_machine("inc_halt.mm")
    ta = encode(m)
    tampered = replace(ta, edges=ta.edges[:-1])
    report = structural_check(tampered, m)
    assert not report.ok
    assert any("edges" in msg for msg in report.mismatches)


def test_guard_constants_within_gadget_range():
    m = load_machine("ifz_loop.mm")
    ta = encode(m, raw=True)
    bounds = {atom.bound for e in ta.edges for atom in e.guard}
    assert bounds <= {0, 1, 2, 3}
    assert 3 in bounds and 2 in bounds


def test_encode_is_deterministic():
    m = load_machine("ifz_loop.mm")
    assert encode(m) == encode(m)


def test_encode_validates_after_urgency_repair():
    for name in ("halt.mm", "inc_halt.mm", "ifz_loop.mm"):
        m = load_machine(name)
        assert validate(encode(m)) == []
        raw = encode(m, raw=True)
        assert any(v.rule == "final-not-urgent" for v in validate(raw))


def test_committed_gadget_fixtures_are_the_compiler_output():
    """`fixtures/minsky_*.ta`, which the benchmark and the memory pins run, are
    the compiled `fixtures/*.mm` byte for byte, the automaton named after the file."""
    for m in ("halt", "inc_halt", "ifz_loop"):
        compiled = replace(encode(load_machine(f"{m}.mm")), name=f"minsky_{m}")
        committed = fixture_path(f"minsky_{m}.ta").read_text(encoding="utf-8")
        assert taformat.dump(compiled) == committed, m


def test_expected_counts_grow_per_command():
    base = expected_counts(MinskyMachine((Halt(),)))
    longer = expected_counts(MinskyMachine((Inc("C1"), Inc("C2"), Halt())))
    assert longer[0] == base[0] + 2 + 2 * 3
    assert longer[1] == base[1] + 2 * 8


def test_solver_behaviour_on_gadget_outputs():
    """A terminating machine can never be made opaque: the halt-only gadget
    prunes to UNSAT immediately.  Nontrivial machines blow the state cap and
    must come back INDETERMINATE, never a guessed verdict."""
    from conftest import fixture_path
    from etopaq import prepare, taformat
    from etopaq.beliefs import BeliefSpace
    from etopaq.game import Mode, solve
    from etopaq.regions import RegionContext

    halt = taformat.load(str(fixture_path("minsky_halt.ta")))
    space = BeliefSpace(RegionContext(prepare(halt)))
    assert solve(space, Mode.FULL, state_cap=5000).status == "UNSAT"

    inc = taformat.load(str(fixture_path("minsky_inc_halt.ta")))
    space = BeliefSpace(RegionContext(prepare(inc)))
    res = solve(space, Mode.FULL, state_cap=200)
    assert res.status == "INDETERMINATE"
    assert "cap" in res.detail
