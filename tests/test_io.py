from __future__ import annotations

import json

import pytest

from conftest import fixture_path, load_ta
from etopaq import msformat, taformat
from etopaq.cli import main
from etopaq.strategies import MetaStrategy, UnitPlan

ALL_TA_FIXTURES = (
    "ta1",
    "ta_opaque",
    "ta_opaque2",
    "ta_counterex",
    "ta_nfv",
    "t2_like",
    "t3_like",
    "minsky_halt",
    "minsky_inc_halt",
    "minsky_ifz_loop",
)


def test_ta_round_trip_is_byte_identical(tmp_path):
    for name in ALL_TA_FIXTURES:
        ta = load_ta(name)
        canonical = taformat.dump(ta)
        assert taformat.dump(taformat.parse(canonical)) == canonical


def test_ta_parse_rejects_negative_bounds():
    text = (
        "ta bad\nclocks: x\ncontrollable: a\nuncontrollable: u\n"
        "locations:\n  l0 init\n  lp private\n  lf final\n"
        "edges:\n  l0 -> lf via a guard: x <= -1\n"
    )
    with pytest.raises(taformat.ParseError):
        taformat.parse(text)


def test_ta_parse_rejects_unknowns():
    base = (
        "ta bad\nclocks: x\ncontrollable: a\nuncontrollable: u\n"
        "locations:\n  l0 init\n  lp private\n  lf final\nedges:\n"
    )
    with pytest.raises(taformat.ParseError):
        taformat.parse(base + "  l0 -> nowhere via a\n")
    with pytest.raises(taformat.ParseError):
        taformat.parse(base + "  l0 -> lf via nope\n")
    with pytest.raises(taformat.ParseError):
        taformat.parse(base + "  l0 -> lf via a guard: y = 0\n")


def test_ta_silent_action_round_trip():
    text = (
        "ta eps\nclocks: x\ncontrollable: a\nuncontrollable: u\n"
        "locations:\n  l0 init\n  lp private\n  lf final\n"
        "edges:\n  l0 -> lp via ~ guard: x = 0\n"
    )
    ta = taformat.parse(text)
    assert ta.edges[0].action.kind == "silent"
    assert "via ~" in taformat.dump(ta)


def test_msf_round_trip():
    phi = MetaStrategy(
        (UnitPlan(frozenset({"a"}), (frozenset(), frozenset({"a"}))),),
        (UnitPlan(frozenset(), (frozenset({"a"}),)),),
    )
    text = msformat.dump(phi)
    assert msformat.parse(text, frozenset({"a"})) == phi


def test_msf_rejects_unknown_and_empty():
    with pytest.raises(msformat.StrategyFormatError):
        msformat.parse(
            json.dumps({"stem": [], "loop": [{"point": ["zz"], "interval": [[]]}]}),
            frozenset({"a"}),
        )
    with pytest.raises(msformat.StrategyFormatError):
        msformat.parse(
            json.dumps({"stem": [], "loop": [{"point": [], "interval": []}]}),
            frozenset({"a"}),
        )
    with pytest.raises(msformat.StrategyFormatError):
        msformat.parse(json.dumps({"stem": [], "loop": []}), frozenset())


# --- CLI ------------------------------------------------------------------------


def fx(name: str) -> str:
    return str(fixture_path(name))


def test_cli_check_opaque_full_sat(capsys):
    code = main(["check", fx("ta_opaque.ta"), "--mode", "full"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("SAT")
    assert "witness stem" in out


def test_cli_check_ta1_full_unsat(capsys):
    code = main(["check", fx("ta1.ta"), "--mode", "full"])
    assert code == 1
    assert "UNSAT" in capsys.readouterr().out


def test_cli_check_ta1_weak_sat():
    assert main(["check", fx("ta1.ta"), "--mode", "weak"]) == 0


def test_cli_check_ta1_exists(capsys):
    code = main(["check", fx("ta1.ta"), "--mode", "exists"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1,1]" in out


def test_cli_check_strategy_verdicts(capsys):
    code = main(
        ["check", fx("ta_opaque.ta"), "--mode", "full", "--strategy", fx("opaque_star.msf")]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "OK"
    code = main(
        [
            "check",
            fx("ta_counterex.ta"),
            "--mode",
            "full",
            "--strategy",
            fx("counterex_phi.msf"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT-OK" in out and "(2,3)" in out


def test_cli_synthesize_then_check(tmp_path, capsys):
    out_file = tmp_path / "phi.msf"
    code = main(["synthesize", fx("ta_opaque.ta"), "--mode", "full", "-o", str(out_file)])
    assert code == 0
    capsys.readouterr()
    code = main(
        ["check", fx("ta_opaque.ta"), "--mode", "full", "--strategy", str(out_file)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_cli_simulate_table(capsys):
    code = main(
        ["simulate", fx("ta1.ta"), "--strategy", fx("all_enabled_ab.msf")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "(0,1) | priv=false pub=true" in out


def test_cli_verdict_modes(capsys):
    code = main(
        [
            "verdict",
            fx("ta1.ta"),
            "--mode",
            "weak",
            "--strategy",
            fx("all_enabled_ab.msf"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(
        [
            "verdict",
            fx("ta1.ta"),
            "--mode",
            "full",
            "--strategy",
            fx("all_enabled_ab.msf"),
        ]
    )
    assert code == 1


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ta"
    bad.write_text("ta nope\nclocks: x\n")
    assert main(["check", str(bad), "--mode", "full"]) == 64
    assert main(["check", str(tmp_path / "missing.ta"), "--mode", "full"]) == 64


def test_cli_non_urgent_final_hint(tmp_path, capsys):
    text = (
        "ta loose\nclocks: x\ncontrollable: a\nuncontrollable: u\n"
        "locations:\n  l0 init\n  lp private\n  lf final\n"
        "edges:\n  l0 -> lf via a\n"
    )
    f = tmp_path / "loose.ta"
    f.write_text(text)
    assert main(["check", str(f), "--mode", "full"]) == 64
    assert "--make-finals-urgent" in capsys.readouterr().err
    assert main(["check", str(f), "--mode", "full", "--make-finals-urgent"]) in (0, 1)


def test_cli_dot_exports(tmp_path):
    for cmd, extra in (
        ("regions", []),
        ("beliefs", ["--pretty"]),
        ("game", ["--mode", "full"]),
    ):
        target = tmp_path / f"{cmd}.dot"
        code = main([cmd, fx("ta_opaque.ta"), "--dot", str(target), *extra])
        assert code == 0
        body = target.read_text()
        assert body.startswith("digraph")
        assert body.rstrip().endswith("}")


def test_cli_beliefs_pretty_names(tmp_path):
    target = tmp_path / "b.dot"
    main(["beliefs", fx("ta_opaque.ta"), "--dot", str(target), "--pretty"])
    body = target.read_text()
    for name in ("\"b0\"", "\"b0'\"", "\"b(0,1)\"", "\"b(0,1)'\"", "\"b1\"", "\"b1'\""):
        assert name in body, name


def test_cli_gen_minsky(tmp_path, capsys):
    out_file = tmp_path / "halt.ta"
    code = main(["gen-minsky", fx("halt.mm"), "-o", str(out_file)])
    assert code == 0
    ta = taformat.load(str(out_file))
    assert len(ta.locations) == 19
    code = main(["check", str(out_file), "--mode", "full", "--state-cap", "200"])
    assert code == 2  # expected to blow the cap: reported, never guessed


def test_cli_usage_errors_exit_input(capsys):
    for extra in (["--workers", "3"], ["--bogus"], ["--mode", "nope"], ["--state-cap", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(["check", fx("ta1.ta"), *extra])
        assert exc.value.code == 64, extra
        assert "usage: etopaq" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_cli_time_cap_stops_gadget_promptly(capsys):
    import time

    t0 = time.monotonic()
    code = main(["check", fx("minsky_halt.ta"), "--mode", "weak", "--time-cap", "1"])
    assert code == 2
    assert time.monotonic() - t0 < 10
    assert "time cap" in capsys.readouterr().err


def test_parser_survives_garbage_lines():
    import random

    rng = random.Random(8)
    tokens = ["ta", "clocks:", "edges:", "->", "via", "guard:", "x", "=", "1",
              "locations:", "init", "final", "reset:", "~", "#", "@", "-1"]
    for _ in range(300):
        text = "\n".join(
            " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 8))
        )
        try:
            taformat.parse(text)
        except taformat.ParseError:
            pass  # rejection is fine; crashes are not


def test_cli_help_and_version_surface(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("check", "synthesize", "simulate", "verdict", "gen-minsky"):
        assert sub in out


def test_cli_beliefs_pretty_names_two_clock(tmp_path):
    target = tmp_path / "b2.dot"
    main(["beliefs", fx("ta_opaque2.ta"), "--dot", str(target), "--pretty"])
    body = target.read_text()
    for name in ('"b2"', "\"b2'\"", '"b(2,3)"', '"b3"', "\"b3'\""):
        assert name in body, name
