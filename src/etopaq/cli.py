"""Command-line surface.

Exit codes: 0 SAT/OK/true, 1 UNSAT/NOT-OK/false, 2 INDETERMINATE (a cap
hit, or memory run out), 64 input error (bad files and malformed command
lines alike).  With ``--stats``, `check`, `synthesize` and `verdict` end by
writing one JSON line of counters to stderr, whatever the verdict.
`--state-cap`/`--time-cap` bound the graph that `check`, `synthesize`,
`regions`, `beliefs` and `game` explore; the state cap defaults to the
game's `DEFAULT_STATE_CAP`, and to the smaller `dot.EXPORT_STATE_CAP` for
the exports.  A capped DOT export holds what was explored and exits 2 too.
`--mode exists` and `check --strategy` walk no graph, so a cap given to them
is a usage error.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import asdict, fields

from . import dot, msformat, taformat
from .beliefs import BeliefSpace
from .game import (
    DEFAULT_STATE_CAP,
    Mode,
    SolveStats,
    check_exists,
    check_metastrategy,
    solve,
    witness_to_metastrategy,
)
from .minsky import encode, parse_machine, structural_check
from .oracle import oracle_buckets, oracle_verdict
from .regions import RegionContext
from .strategies import all_enabled
from .ta import make_finals_urgent, prepare, validate

EXIT_YES = 0
EXIT_NO = 1
EXIT_INDETERMINATE = 2
EXIT_INPUT = 64

MODES = {m.value: m for m in Mode}


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the input-error code: argparse's own code 2
    would read as INDETERMINATE.  Subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _load_prepared(args):
    ta = taformat.load(args.ta)
    if args.make_finals_urgent:
        ta = make_finals_urgent(ta)
    problems = validate(ta)
    if problems:
        msgs = "; ".join(f"{v.rule}({v.subject})" for v in problems)
        hint = (
            ""
            if args.make_finals_urgent or all(v.rule != "final-not-urgent" for v in problems)
            else " (try --make-finals-urgent)"
        )
        raise InputError(f"{args.ta}: {msgs}{hint}")
    args.space = BeliefSpace(RegionContext(prepare(ta)))  # for the --stats line
    return ta, args.space


def _load_strategy(path: str, ta):
    return msformat.load(path, frozenset(ta.controllable))


def _print_stats(space: BeliefSpace, result=None) -> None:
    """The solve counters (null when no game was solved), the regions
    interned and those expanded, the belief-step class closures computed,
    and peak RSS."""
    if result is None:
        stats = {f.name: None for f in fields(SolveStats)}
    else:
        stats = asdict(result.stats)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    stats.update(
        regions=len(space.ctx.locations),
        regions_expanded=space.ctx.expanded(),
        belief_successors=space.successors_computed(),
        peak_rss_mb=round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1),
    )
    print(json.dumps(stats), file=sys.stderr)


def _ok(ok: bool, offending) -> int:
    print("OK" if ok else f"NOT-OK offending-bucket {offending}")
    return EXIT_YES if ok else EXIT_NO


def _indeterminate(detail: str) -> int:
    print(f"INDETERMINATE {detail}", file=sys.stderr)
    return EXIT_INDETERMINATE


def _solve(args, space: BeliefSpace, on_sat) -> int:
    """Solves the game under the caps and reports the verdict, a winning
    witness through ``on_sat``; the result is kept for the --stats line."""
    args.result = result = solve(
        space, MODES[args.mode], state_cap=_state_cap(args), time_cap=args.time_cap
    )
    if result.status == "SAT":
        on_sat(result.witness)
        return EXIT_YES
    if result.status == "UNSAT":
        print(f"UNSAT explored-states {result.stats.states}")
        return EXIT_NO
    return _indeterminate(result.detail)


def _state_cap(args, default: int = DEFAULT_STATE_CAP) -> int:
    return default if args.state_cap is None else args.state_cap


def _print_witness(w) -> None:
    print("SAT")
    for part, labels in (("stem", w.stem), ("loop", w.loop)):
        steps = (f"({tick},{{{','.join(sorted(enabled))}}})" for tick, enabled in labels)
        print(f"witness {part}: " + " ".join(steps))


def cmd_check(args) -> int:
    ta, space = _load_prepared(args)
    if args.mode == "exists":
        phi = _load_strategy(args.strategy, ta) if args.strategy else None
        res = check_exists(space, phi)
        if res.holds:
            print(f"true witness-bucket {res.witness}")
            others = " ".join(str(b) for b in res.witnesses[:8])
            print(f"qualifying buckets: {others}")
            return EXIT_YES
        print("false")
        return EXIT_NO
    if args.strategy:
        phi = _load_strategy(args.strategy, ta)
        verdict = check_metastrategy(space, phi, MODES[args.mode])
        return _ok(verdict.ok, verdict.offending)
    return _solve(args, space, _print_witness)


def cmd_synthesize(args) -> int:
    ta, space = _load_prepared(args)

    def save(phi) -> None:
        msformat.save(phi, args.output)
        print(f"SAT wrote {args.output}")

    if args.mode != "exists":
        return _solve(args, space, lambda w: save(witness_to_metastrategy(w)))
    if not check_exists(space).holds:
        print("UNSAT")
        return EXIT_NO
    save(all_enabled(ta))
    return EXIT_YES


def cmd_simulate(args) -> int:
    ta, space = _load_prepared(args)
    print(oracle_buckets(space.ctx, _load_strategy(args.strategy, ta)).report())
    return EXIT_YES


def cmd_verdict(args) -> int:
    ta, space = _load_prepared(args)
    phi = _load_strategy(args.strategy, ta)
    return _ok(*oracle_verdict(oracle_buckets(space.ctx, phi), MODES[args.mode]))


def _export(args, render) -> int:
    """Writes the DOT export ``render(state_cap, time_cap)`` returns, under
    the export state cap unless one is given; a capped one is INDETERMINATE."""
    text, stopped = render(_state_cap(args, dot.EXPORT_STATE_CAP), args.time_cap)
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(text)
    return _indeterminate(stopped) if stopped else EXIT_YES


def cmd_regions(args) -> int:
    _, space = _load_prepared(args)
    return _export(args, lambda *caps: dot.regions_dot(space.ctx, *caps))


def cmd_beliefs(args) -> int:
    _, space = _load_prepared(args)
    return _export(args, lambda *caps: dot.beliefs_dot(space, args.pretty, *caps))


def cmd_game(args) -> int:
    _, space = _load_prepared(args)
    return _export(args, lambda *caps: dot.game_dot(space, MODES[args.mode], *caps))


def cmd_gen_minsky(args) -> int:
    with open(args.machine, encoding="utf-8") as fh:
        machine = parse_machine(fh.read())
    ta = encode(machine, raw=args.raw)
    report = structural_check(ta, machine)
    if not report.ok:
        print("structural check failed:", *report.mismatches, sep="\n  ", file=sys.stderr)
        return EXIT_NO
    taformat.save(ta, args.output)
    print(
        f"wrote {args.output} ({report.locations} locations, {report.edges} edges)"
    )
    return EXIT_YES


def _add_common(
    p: argparse.ArgumentParser, with_mode: bool = True, with_exists: bool = False
) -> None:
    p.add_argument("ta", help="timed-automaton file")
    if with_mode:
        choices = sorted(MODES) + (["exists"] if with_exists else [])
        p.add_argument(
            "--mode", choices=sorted(choices), default="full", help="opacity notion"
        )
    p.add_argument(
        "--make-finals-urgent",
        action="store_true",
        help="apply the urgency repair before analysis",
    )


def _nonnegative(kind):
    """An argparse type: a ``kind`` number that is not negative (nor NaN)."""
    def parse(text: str):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative number")
        return value
    parse.__name__ = kind.__name__  # names the type in argparse's own errors
    return parse


def _add_caps(p: argparse.ArgumentParser) -> None:
    """The caps of the commands that explore a graph; None until resolved
    where one is walked."""
    p.add_argument("--state-cap", type=_nonnegative(int), default=None)
    p.add_argument("--time-cap", type=_nonnegative(float), default=None)


def _add_stats(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--stats", action="store_true", help="write one JSON line of counters to stderr"
    )


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="etopaq",
        description="Execution-time opacity checking and controller synthesis",
    )
    top.set_defaults(stats=False, space=None, result=None)  # read by the --stats line
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide opacity, or check a given meta-strategy")
    _add_common(p, with_exists=True)
    _add_caps(p)
    p.add_argument("--strategy", help="meta-strategy file to check")
    _add_stats(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("synthesize", help="synthesize a meta-strategy")
    _add_common(p, with_exists=True)
    _add_caps(p)
    p.add_argument("-o", "--output", required=True)
    _add_stats(p)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("simulate", help="print the oracle bucket table")
    _add_common(p, with_mode=False)
    p.add_argument("--strategy", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verdict", help="oracle-side verdict for a meta-strategy")
    _add_common(p)
    p.add_argument("--strategy", required=True)
    _add_stats(p)
    p.set_defaults(fn=cmd_verdict)

    p = sub.add_parser("regions", help="DOT export of the region graph")
    _add_common(p, with_mode=False)
    _add_caps(p)
    p.add_argument("--dot", required=True)
    p.set_defaults(fn=cmd_regions)

    p = sub.add_parser("beliefs", help="DOT export of the belief graph")
    _add_common(p, with_mode=False)
    _add_caps(p)
    p.add_argument("--dot", required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_beliefs)

    p = sub.add_parser("game", help="DOT export of the pruned game graph")
    _add_common(p)
    _add_caps(p)
    p.add_argument("--dot", required=True)
    p.set_defaults(fn=cmd_game)

    p = sub.add_parser("gen-minsky", help="compile a two-counter machine")
    p.add_argument("machine")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--raw", action="store_true", help="skip the urgency repair")
    p.set_defaults(fn=cmd_gen_minsky)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    caps = (getattr(args, "state_cap", None), getattr(args, "time_cap", None))
    if caps != (None, None) and args.command in ("check", "synthesize") and (
        args.mode == "exists" or getattr(args, "strategy", None)
    ):
        parser.error("--mode exists and --strategy walk no graph, so they take no caps")
    try:
        return args.fn(args)
    except (InputError, taformat.ParseError, msformat.StrategyFormatError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        return _indeterminate("out of memory")
    finally:
        if args.stats and args.space is not None:
            _print_stats(args.space, args.result)


if __name__ == "__main__":
    sys.exit(main())
