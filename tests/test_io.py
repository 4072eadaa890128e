from __future__ import annotations

import json
import re
import time

import pytest

import concrete
import etopaq
from conftest import fixture_path, load_space, load_ta
from etopaq import dot, msformat, prepare, taformat
from etopaq.beliefs import BeliefSpace
from etopaq.cli import main
from etopaq.regions import RegionContext
from etopaq.strategies import MetaStrategy, UnitPlan

ALL_TA_FIXTURES = (
    "ta1",
    "ta_opaque",
    "ta_opaque2",
    "ta_counterex",
    "ta_wide",
    "ta_nfv",
    "t2_like",
    "t3_like",
    "minsky_halt",
    "minsky_inc_halt",
    "minsky_ifz_loop",
)


def test_public_surface_holds_what_the_commands_run():
    """`from etopaq import *` resolves every name in `__all__`; the concrete
    semantics of tests/concrete.py is in no module of the package, and a
    region is only an id of its context: no region object, and no layer
    converting to one, is left."""
    namespace: dict = {}
    exec("from etopaq import *", namespace)
    assert len(set(etopaq.__all__)) == len(etopaq.__all__) == 26
    assert set(etopaq.__all__) <= namespace.keys()
    moved = {
        name
        for name, value in vars(concrete).items()
        if getattr(value, "__module__", None) == concrete.__name__
    }
    assert {"TimedRun", "build_run", "run_admits", "is_feasible", "next_choice"} <= moved
    for module in (etopaq, etopaq.ta, etopaq.strategies):
        assert not moved & set(vars(module)), module.__name__
    assert not hasattr(etopaq.strategies, "meta_of")
    space = BeliefSpace(RegionContext(prepare(load_ta("ta1"))))
    gone = {
        etopaq: ("Region", "region_of"),
        etopaq.regions: ("Region", "region_of", "encode", "_Regions"),
        RegionContext: ("intern", "initial_region", "region_of", "is_final", "is_secret"),
        space: ("regions_of", "enabled_sets", "_subsets", "_masks", "_by_mask", "_last_image"),
        etopaq.beliefs: ("belief_key",),
    }
    for owner, names in gone.items():
        assert not [n for n in names if hasattr(owner, n)], owner
    assert not hasattr(RegionContext(prepare(load_ta("ta1"))), "regions")


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


# Line numbers count the comment-only and blank lines (1, 3, 10).
PARSE_BASE = (
    "# a comment-only line\n"
    "ta bad\n"
    "\n"
    "clocks: x y\n"
    "controllable: a\n"
    "uncontrollable: u  # a trailing comment\n"
    "locations:\n"
    "  l0 init invariant: x <= 2\n"
    "  lp private\n"
    "   # an indented comment\n"
    "  lf final\n"
    "edges:\n"
)

# (line to replace, or None to append an edge line; replacement; exact message)
PARSE_ERRORS = (
    (None, "  l0 -> lf via a guard: x <> 1", "line 13: bad atom 'x <> 1'"),
    (None, "  l0 -> lf via a guard: x = 0, w = 0", "line 13: unknown clock 'w'"),
    (None, "  l0 -> lf via a guard: x <= -1",
     "line 13: negative bound -1 (clocks are nonnegative)"),
    ("  l0 init invariant: x <= 2", "  l0 init invariant: q < 1", "line 8: unknown clock 'q'"),
    ("clocks: x y", "clocks: x y x", "line 4: duplicate clock 'x'"),
    ("controllable: a", "controllable: a ~", "line 5: duplicate action '~'"),
    ("uncontrollable: u  # a trailing comment", "uncontrollable: a",
     "line 6: duplicate action 'a'"),
    ("  lf final", "  lf final\n  lp", "line 12: duplicate location 'lp'"),
    ("  lp private", "  lp private init", "line 9: second init location 'lp'"),
    ("  lf final", "  lf final private", "line 11: second private location 'lf'"),
    ("  lf final", "  lf final urgent", "line 11: unknown flag 'urgent'"),
    (None, "  l0 lf a", "line 13: bad edge 'l0 lf a'"),
    (None, "  l0 -> lf via b", "line 13: unknown action 'b'"),
    (None, "  l0 -> lf via a reset: x w", "line 13: unknown clock 'w'"),
    (None, "  l0 -> nowhere via a", "line 13: unknown location 'nowhere'"),
    (None, "  nowhere -> lf via a", "line 13: unknown location 'nowhere'"),
    ("", "bogus", "line 3: unexpected 'bogus'"),
    ("locations:", "  l0 init", "line 7: unexpected 'l0 init'"),
    ("  l0 init invariant: x <= 2", "  l0 invariant: x <= 2", "no init location"),
    ("  lp private", "  lp", "no private location"),
    # the name line first, then each section at most once, in the fixed order
    ("", "ta again", "line 3: section 'ta' repeated or out of order"),
    ("controllable: a", "ta other", "line 5: section 'ta' repeated or out of order"),
    ("", "clocks: z", "line 4: section 'clocks' repeated or out of order"),
    (None, "clocks: z", "line 13: section 'clocks' repeated or out of order"),
    ("   # an indented comment", "controllable: b",
     "line 10: section 'controllable' repeated or out of order"),
    ("uncontrollable: u  # a trailing comment", "locations:",
     "line 7: section 'locations' repeated or out of order"),
    (None, "edges:", "line 13: section 'edges' repeated or out of order"),
    ("locations:", "locations: l0", "line 7: unexpected 'locations: l0'"),
)


def test_ta_parse_rejects_unknowns():
    """Every `ParseError` of `taformat.parse`, with its exact message and line."""
    for old, new, message in PARSE_ERRORS:
        lines = PARSE_BASE.splitlines()
        if old is None:
            lines.append(new)
        else:
            lines[lines.index(old)] = new
        with pytest.raises(taformat.ParseError) as info:
            taformat.parse("\n".join(lines) + "\n")
        assert str(info.value) == message


def test_ta_parse_base_of_the_error_table_parses():
    ta = taformat.parse(PARSE_BASE + "  l0 -> lf via a guard: x = 0 reset: y\n")
    assert (ta.name, ta.init, ta.private, ta.finals) == ("bad", "l0", "lp", {"lf"})
    assert len(ta.edges) == 1 and ta.edges[0].resets == {1}


def test_ta_parse_sections_are_optional():
    ta = taformat.parse("locations:\n  l0 init private\n")
    assert (ta.name, ta.clocks, ta.actions, ta.locations, ta.edges) == ("ta", (), (), ("l0",), ())


def test_ta_entries_shaped_like_headers_stay_entries():
    """Only a line before the first section names the automaton, and the
    `locations:` and `edges:` headers stand alone: locations `ta` and
    `edges:x` keep their declarations and their edges, and the text
    round-trips."""
    text = (
        "ta named\nclocks: x\ncontrollable: a\nuncontrollable: u\nlocations:\n"
        "  ta init\n  edges:x private\n  lf final invariant: x = 0\nedges:\n"
        "  ta -> edges:x via a reset: x\n  edges:x -> lf via u reset: x\n"
    )
    ta = taformat.parse(text)
    assert ta.name == "named" and ta.init == "ta" and ta.locations == ("ta", "edges:x", "lf")
    assert [(e.source, e.target) for e in ta.edges] == [("ta", "edges:x"), ("edges:x", "lf")]
    assert taformat.dump(ta) == text
    assert etopaq.validate(ta) == []


def test_ta_round_trip_over_random_automata():
    import random

    from conftest import random_ta

    rng = random.Random(16)
    for i in range(200):
        ta = random_ta(rng, name=f"trip{i}")
        text = taformat.dump(ta)
        back = taformat.parse(text)
        assert taformat.dump(back) == text
        assert (back.locations, back.invariants, back.clocks, back.edges) == (
            ta.locations, ta.invariants, ta.clocks, ta.edges
        )


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


def test_msf_rejects_unknown_and_empty(tmp_path):
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
    # wrongly typed fields: a string is no list of names, nor is null, a
    # number or a nested list
    plan = {"point": ["a"], "interval": [["a"], []]}
    assert msformat.parse(json.dumps({"loop": [plan]}), frozenset("ab")).loop[0].at_point == {"a"}
    for bad in ("ab", None, 3, [["a"]], [None], [1]):
        for doc in (
            {"loop": [{**plan, "point": bad}]},
            {"loop": [{**plan, "interval": [bad]}]},
        ):
            with pytest.raises(msformat.StrategyFormatError):
                msformat.parse(json.dumps(doc), frozenset("ab"))
    for bad in ("ab", None, 3, {"point": []}):
        for doc in (
            {"loop": [{**plan, "interval": bad}]},
            {"stem": bad, "loop": [plan]},
            {"loop": bad},
            {"stems": [plan], "loop": [plan]},  # a misspelt field is no empty stem
        ):
            with pytest.raises(msformat.StrategyFormatError):
                msformat.parse(json.dumps(doc), frozenset("ab"))
    # and on the command line an input error, not NOT-OK
    msf = tmp_path / "null_point.msf"
    msf.write_text(json.dumps({"loop": [{"point": None, "interval": [[]]}]}))
    assert main(["verdict", fx("ta1.ta"), "--strategy", str(msf)]) == 64


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
    # ``^p`` marks the private copy: ta1 with ``lf`` renamed ``lf^p`` would
    # read its public final as private (UNSAT in weak mode, where ta1 is SAT)
    primed = tmp_path / "primed.ta"
    primed.write_text(re.sub(r"\blf\b", "lf^p", fixture_path("ta1.ta").read_text()))
    assert main(["check", str(primed), "--mode", "weak"]) == 64
    assert "reserved-location-suffix(lf^p)" in capsys.readouterr().err
    # ``z`` is the tick clock that preparation adds
    ticked = tmp_path / "ticked.ta"
    ticked.write_text(re.sub(r"\bw\b", "z", fixture_path("ta1.ta").read_text()))
    assert main(["check", str(ticked), "--mode", "weak"]) == 64
    assert f"{ticked}: reserved-clock-name(z)" in capsys.readouterr().err


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
    # ta1 declares w: without its final's pin the flag adds w1 and restores
    # ta1's verdicts and witness
    f.write_text(fixture_path("ta1.ta").read_text().replace(" invariant: w = 0", ""))
    assert main(["check", str(f), "--mode", "weak"]) == 64
    assert "--make-finals-urgent" in capsys.readouterr().err
    assert main(["check", fx("ta1.ta"), "--mode", "weak"]) == 0
    want = capsys.readouterr().out
    assert main(["check", str(f), "--mode", "weak", "--make-finals-urgent"]) == 0
    assert capsys.readouterr().out == want
    assert main(["check", str(f), "--mode", "full", "--make-finals-urgent"]) == 1


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


def test_cli_beliefs_pretty_names_every_belief(tmp_path):
    """The depth walk matches beliefs by equality: a belief first reached as
    an equal but distinct object still gets a depth and a name."""
    target = tmp_path / "b.dot"
    assert main(["beliefs", fx("ta_counterex.ta"), "--dot", str(target), "--pretty"]) == 0
    names = re.findall(r'^  "([^"]+)" \[shape=box', target.read_text(), re.M)
    assert len(names) == len(load_space("ta_counterex").explore().nodes) - 1
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"b(\d+|\(\d+,\d+\))('(\d+)?)?", n) for n in names), names


def test_cli_capped_exports_exit_indeterminate(tmp_path, capsys):
    """Every DOT export honours both caps: a capped one writes what it
    explored, reports INDETERMINATE and exits 2.  The time cap bounds the
    render too: a walk that stops on it leaves far more beliefs than can be
    written in time, so the render stops as well and still closes the
    graph."""
    target = tmp_path / "capped.dot"
    t0 = time.monotonic()
    code = main(["beliefs", fx("minsky_halt.ta"), "--dot", str(target), "--state-cap", "1000"])
    assert code == 2
    assert time.monotonic() - t0 < 10
    assert "INDETERMINATE state cap 1000 exceeded" in capsys.readouterr().err
    assert target.read_text().rstrip().endswith("}")
    for cmd, extra in (("regions", []), ("beliefs", ["--pretty"]), ("game", ["--mode", "weak"])):
        code = main([cmd, fx("ta_opaque.ta"), "--dot", str(target), *extra, "--state-cap", "3"])
        assert code == 2, cmd
        assert "INDETERMINATE state cap 3 exceeded" in capsys.readouterr().err, cmd
        body = target.read_text()
        assert body.startswith("digraph") and body.count("shape=") == 4, cmd
    for extra in ([], ["--pretty"]):
        t0 = time.monotonic()
        code = main(
            ["beliefs", fx("minsky_halt.ta"), "--dot", str(target), "--state-cap", "10000000",
             "--time-cap", "0.5", *extra]
        )
        assert code == 2, extra
        assert time.monotonic() - t0 < 10, extra
        assert "INDETERMINATE time cap 0.5s exceeded" in capsys.readouterr().err, extra
        assert target.read_text().rstrip().endswith("}"), extra


def test_cli_exports_default_to_the_export_state_cap(tmp_path, capsys, monkeypatch):
    """Without --state-cap the exports take `dot.EXPORT_STATE_CAP`, not the
    game's cap; --state-cap still overrides it."""
    from etopaq import dot

    monkeypatch.setattr(dot, "EXPORT_STATE_CAP", 5)
    target = tmp_path / "capped.dot"
    assert main(["beliefs", fx("ta1.ta"), "--dot", str(target)]) == 2
    assert "INDETERMINATE state cap 5 exceeded" in capsys.readouterr().err
    body = target.read_text()
    assert body.startswith("digraph") and body.count("shape=") == 6
    assert main(["beliefs", fx("ta1.ta"), "--dot", str(target), "--state-cap", "1000"]) == 0
    assert main(["check", fx("ta1.ta"), "--mode", "full"]) == 1


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
    for extra in (
        ["--workers", "3"], ["--bogus"], ["--mode", "nope"], ["--state-cap", "x"],
        ["--state-cap", "-5"], ["--time-cap", "-1"], ["--time-cap", "nan"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["check", fx("ta1.ta"), *extra])
        assert exc.value.code == 64, extra
        assert "usage: etopaq" in capsys.readouterr().err
    # `verdict` and `simulate` explore no graph, so they take no caps
    for cmd in ("verdict", "simulate"):
        for extra in (["--time-cap", "1"], ["--state-cap", "10"]):
            with pytest.raises(SystemExit) as exc:
                main([cmd, fx("ta1.ta"), "--strategy", fx("all_enabled_ab.msf"), *extra])
            assert exc.value.code == 64, (cmd, extra)
            assert "usage: etopaq" in capsys.readouterr().err
    # `check --mode exists` and `check --strategy` walk no graph either
    for args in (
        ["check", fx("ta1.ta"), "--mode", "exists"],
        ["check", fx("ta_counterex.ta"), "--mode", "full", "--strategy", fx("counterex_phi.msf")],
    ):
        for extra in (["--state-cap", "1"], ["--time-cap", "0"]):
            with pytest.raises(SystemExit) as exc:
                main([*args, *extra])
            assert exc.value.code == 64, (args, extra)
            assert "usage: etopaq" in capsys.readouterr().err
        assert main(args) in (0, 1)
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_cli_time_cap_stops_gadget_promptly(capsys):
    """The gadget reaches the default state cap in about a second, so the
    state cap is raised out of reach for the time cap to be what stops it."""
    t0 = time.monotonic()
    code = main(["check", fx("minsky_halt.ta"), "--mode", "weak", "--time-cap", "1",
                 "--state-cap", "5000000"])
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


def test_pretty_belief_names_stay_short_in_a_large_depth_group():
    """A depth group's rank i >= 2 is written b{k}'{i}, so names grow with
    the digits of the rank, not with the rank itself."""
    space = BeliefSpace(RegionContext(prepare(load_ta("minsky_halt"))))
    graph = space.explore(state_cap=2000)
    keys = [tuple(sorted(map(space.ctx.key, b))) for b in graph.nodes[1:]]
    arcs = [
        (i, (tick, sorted(e)), j)
        for i in range(len(graph.ends))
        for lid, j in graph.steps(i)
        for tick, e in [space.label(graph.labels[lid])]
    ]
    arcs.sort(key=lambda a: a[1])  # label order: tick, then sorted names
    names = dot.pretty_belief_names(arcs, [None] + [(-len(k), k) for k in keys])
    assert len(names) == len(graph.nodes) > 1000
    assert len(set(names)) == len(names)
    assert max(map(len, names)) <= 16


def test_cli_beliefs_pretty_names_two_clock(tmp_path):
    target = tmp_path / "b2.dot"
    main(["beliefs", fx("ta_opaque2.ta"), "--dot", str(target), "--pretty"])
    body = target.read_text()
    for name in ('"b2"', "\"b2'\"", '"b(2,3)"', '"b3"', "\"b3'\""):
        assert name in body, name


def test_cli_stats_line_on_indeterminate(capsys):
    code = main(
        ["check", fx("minsky_halt.ta"), "--mode", "weak", "--state-cap", "300", "--stats"]
    )
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    stats = json.loads(err[-1])
    assert stats["states"] > 0 and stats["edges"] > 0
    assert stats["regions"] > 0 and stats["belief_successors"] > 0
    assert 0 < stats["regions_expanded"] <= stats["regions"]
    assert stats["peak_rss_mb"] > 0


def test_cli_stats_pin_the_gadgets_game_size(capsys):
    """The three weak-mode gadgets at caps 2000 and 20000: every class
    closure of the 256-way branching is counted once per `successors`
    call, however it is computed, and no game state here repeats a
    (belief, tick) of another, so the count equals the edges; at cap 2000
    the regions interned and expanded are pinned too."""
    regions = {"minsky_halt": (84, 57), "minsky_inc_halt": (91, 61), "minsky_ifz_loop": (91, 61)}
    for cap, want in ((2000, (2001, 2048, 2048)), (20000, (20001, 20224, 20224))):
        for name in ("minsky_halt", "minsky_inc_halt", "minsky_ifz_loop"):
            code = main(
                ["check", fx(f"{name}.ta"), "--mode", "weak", "--state-cap", str(cap), "--stats"]
            )
            assert code == 2, (name, cap)
            stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            got = (stats["states"], stats["edges"], stats["belief_successors"])
            assert got == want, (name, cap)
            if cap == 2000:
                assert (stats["regions"], stats["regions_expanded"]) == regions[name], name


def test_cli_out_of_memory_is_indeterminate_with_its_stats_line(capsys, monkeypatch):
    """A MemoryError ends in INDETERMINATE and exit 2, not in a traceback
    and exit 1, the UNSAT code; the --stats line is still written."""
    import etopaq.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(etopaq.cli, "solve", exhausted)
    assert main(["check", fx("ta1.ta"), "--mode", "weak", "--stats"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err[0] == "INDETERMINATE out of memory"
    stats = json.loads(err[-1])
    assert stats["states"] is None and stats["belief_successors"] == 0
    assert stats["peak_rss_mb"] > 0


def test_cli_out_of_memory_while_exploring_keeps_the_partial_counts(capsys, monkeypatch):
    """A game walk that runs out of memory ends as a capped one does: exit
    2, and the --stats line says how far it got."""
    import etopaq.game

    real, expanded = etopaq.game.game_successors, []

    def exhausted_after_five(space, st, mode):
        if len(expanded) == 5:
            raise MemoryError
        expanded.append(st)
        return real(space, st, mode)

    monkeypatch.setattr(etopaq.game, "game_successors", exhausted_after_five)
    assert main(["check", fx("minsky_halt.ta"), "--mode", "weak", "--stats"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err[0] == "INDETERMINATE out of memory"
    stats = json.loads(err[-1])
    assert stats["states"] > 5 and stats["edges"] > 5 and stats["seconds"] is not None
    assert stats["belief_successors"] > 0


def test_cli_stats_line_without_a_game(tmp_path, capsys):
    phi = tmp_path / "phi.msf"
    msformat.save(MetaStrategy((), (UnitPlan(frozenset({"a"}), (frozenset({"a"}),)),)), str(phi))
    for cmd in (["check", "--mode", "full"], ["verdict", "--mode", "weak"]):
        main([cmd[0], fx("ta_opaque.ta"), *cmd[1:], "--strategy", str(phi), "--stats"])
        stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert stats["states"] is None and stats["regions"] > 0, cmd
        assert 0 < stats["regions_expanded"] <= stats["regions"], cmd
    assert main(["check", fx("ta_opaque.ta"), "--mode", "full"]) == 0
    assert capsys.readouterr().err == ""
