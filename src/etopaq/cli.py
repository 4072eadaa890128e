"""Command-line surface.

Exit codes: 0 SAT/OK/true, 1 UNSAT/NOT-OK/false, 2 INDETERMINATE,
64 input error (bad files and malformed command lines alike).
"""
from __future__ import annotations

import argparse
import sys

from . import dot, msformat, taformat
from .beliefs import BeliefSpace
from .game import (
    DEFAULT_STATE_CAP,
    Mode,
    check_exists,
    check_metastrategy,
    solve,
    witness_to_metastrategy,
)
from .minsky import encode, parse_machine, structural_check
from .oracle import oracle_buckets, oracle_verdict
from .regions import RegionContext
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


def _load_prepared(path: str, repair_finals: bool):
    ta = taformat.load(path)
    if repair_finals:
        ta = make_finals_urgent(ta)
    problems = validate(ta)
    if problems:
        msgs = "; ".join(f"{v.rule}({v.subject})" for v in problems)
        hint = (
            ""
            if repair_finals or all(v.rule != "final-not-urgent" for v in problems)
            else " (try --make-finals-urgent)"
        )
        raise InputError(f"{path}: {msgs}{hint}")
    prepared = prepare(ta)
    return ta, BeliefSpace(RegionContext(prepared))


def _load_strategy(path: str, ta):
    return msformat.load(path, frozenset(ta.controllable))


def _fmt_label(label) -> str:
    tick, enabled = label
    return f"({tick},{{{','.join(sorted(enabled))}}})"


def cmd_check(args) -> int:
    ta, space = _load_prepared(args.ta, args.make_finals_urgent)
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
    mode = MODES[args.mode]
    if args.strategy:
        phi = _load_strategy(args.strategy, ta)
        verdict = check_metastrategy(space, phi, mode)
        if verdict.ok:
            print("OK")
            return EXIT_YES
        print(f"NOT-OK offending-bucket {verdict.offending}")
        return EXIT_NO
    result = solve(space, mode, state_cap=args.state_cap, time_cap=args.time_cap)
    if result.status == "SAT":
        w = result.witness
        print("SAT")
        print("witness stem: " + " ".join(_fmt_label(l) for l in w.stem))
        print("witness loop: " + " ".join(_fmt_label(l) for l in w.loop))
        return EXIT_YES
    if result.status == "UNSAT":
        print(f"UNSAT explored-states {result.stats.states}")
        return EXIT_NO
    print(f"INDETERMINATE {result.detail}", file=sys.stderr)
    return EXIT_INDETERMINATE


def cmd_synthesize(args) -> int:
    ta, space = _load_prepared(args.ta, args.make_finals_urgent)
    if args.mode == "exists":
        from .strategies import all_enabled

        res = check_exists(space)
        if not res.holds:
            print("UNSAT")
            return EXIT_NO
        msformat.save(all_enabled(ta), args.output)
        print(f"SAT wrote {args.output}")
        return EXIT_YES
    mode = MODES[args.mode]
    result = solve(space, mode, state_cap=args.state_cap, time_cap=args.time_cap)
    if result.status == "SAT":
        phi = witness_to_metastrategy(result.witness)
        msformat.save(phi, args.output)
        print(f"SAT wrote {args.output}")
        return EXIT_YES
    if result.status == "UNSAT":
        print(f"UNSAT explored-states {result.stats.states}")
        return EXIT_NO
    print(f"INDETERMINATE {result.detail}", file=sys.stderr)
    return EXIT_INDETERMINATE


def cmd_simulate(args) -> int:
    ta, space = _load_prepared(args.ta, args.make_finals_urgent)
    phi = _load_strategy(args.strategy, ta)
    table = oracle_buckets(space.ctx, phi)
    print(table.report())
    return EXIT_YES


def cmd_verdict(args) -> int:
    ta, space = _load_prepared(args.ta, args.make_finals_urgent)
    phi = _load_strategy(args.strategy, ta)
    table = oracle_buckets(space.ctx, phi)
    ok, offending = oracle_verdict(table, MODES[args.mode])
    if ok:
        print("OK")
        return EXIT_YES
    print(f"NOT-OK offending-bucket {offending}")
    return EXIT_NO


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_regions(args) -> int:
    _, space = _load_prepared(args.ta, args.make_finals_urgent)
    _write(args.dot, dot.regions_dot(space.ctx))
    return EXIT_YES


def cmd_beliefs(args) -> int:
    _, space = _load_prepared(args.ta, args.make_finals_urgent)
    _write(args.dot, dot.beliefs_dot(space, pretty=args.pretty))
    return EXIT_YES


def cmd_game(args) -> int:
    _, space = _load_prepared(args.ta, args.make_finals_urgent)
    _write(args.dot, dot.game_dot(space, MODES[args.mode], args.state_cap))
    return EXIT_YES


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
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--time-cap", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="etopaq",
        description="Execution-time opacity checking and controller synthesis",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide opacity, or check a given meta-strategy")
    _add_common(p, with_exists=True)
    p.add_argument("--strategy", help="meta-strategy file to check")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("synthesize", help="synthesize a meta-strategy")
    _add_common(p, with_exists=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("simulate", help="print the oracle bucket table")
    _add_common(p, with_mode=False)
    p.add_argument("--strategy", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verdict", help="oracle-side verdict for a meta-strategy")
    _add_common(p)
    p.add_argument("--strategy", required=True)
    p.set_defaults(fn=cmd_verdict)

    p = sub.add_parser("regions", help="DOT export of the region graph")
    _add_common(p, with_mode=False)
    p.add_argument("--dot", required=True)
    p.set_defaults(fn=cmd_regions)

    p = sub.add_parser("beliefs", help="DOT export of the belief graph")
    _add_common(p, with_mode=False)
    p.add_argument("--dot", required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_beliefs)

    p = sub.add_parser("game", help="DOT export of the pruned game graph")
    _add_common(p)
    p.add_argument("--dot", required=True)
    p.set_defaults(fn=cmd_game)

    p = sub.add_parser("gen-minsky", help="compile a two-counter machine")
    p.add_argument("machine")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--raw", action="store_true", help="skip the urgency repair")
    p.set_defaults(fn=cmd_gen_minsky)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, taformat.ParseError, msformat.StrategyFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
