"""Two-counter machine to opacity-control gadget compiler.

Each machine command becomes a timed-automaton fragment on a single clock;
one machine step spans three time units.  The shared fragments force the
controller to keep one action enabled at a time and to replay counter values
across steps; the per-command fragments implement increment, decrement and
zero test, and reaching the halt command makes opacity unachievable.  The
fragments share one private and one final location and hang off a fresh
initial location via zero-time uncontrollable branches.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ta import (
    CONTROLLABLE,
    UNCONTROLLABLE,
    Action,
    Atom,
    Clock,
    Edge,
    TimedAutomaton,
    make_finals_urgent,
)

COUNTERS = ("C1", "C2")
OPERANDS = {"INC": 1, "DEC": 1, "IFZ": 3, "HALT": 0}


@dataclass(frozen=True, slots=True)
class Inc:
    counter: str


@dataclass(frozen=True, slots=True)
class Dec:
    counter: str


@dataclass(frozen=True, slots=True)
class IfZero:
    counter: str
    goto_zero: int
    goto_nonzero: int


@dataclass(frozen=True, slots=True)
class Halt:
    pass


Command = Inc | Dec | IfZero | Halt


@dataclass(frozen=True)
class MinskyMachine:
    commands: tuple[Command, ...]

    def __post_init__(self) -> None:
        if not self.commands or not isinstance(self.commands[-1], Halt):
            raise ValueError("machine must end with HALT")
        for i, c in enumerate(self.commands):
            problem = _command_problem(c, i, len(self.commands))
            if problem:
                raise ValueError(f"command {i}: {problem}")


def _command_problem(c: Command, i: int, count: int) -> str:
    """Why ``c`` cannot be command ``i`` of a ``count``-command machine, or
    "" when it can."""
    if isinstance(c, Halt):
        return "" if i == count - 1 else "HALT only as the last command"
    if c.counter not in COUNTERS:
        return f"unknown counter {c.counter!r}"
    if isinstance(c, IfZero):
        for tgt in (c.goto_zero, c.goto_nonzero):
            if not 0 <= tgt < count:
                return f"goto target {tgt} out of range"
    return ""


def parse_machine(text: str) -> MinskyMachine:
    """One command per line: INC C1 / DEC C2 / IFZ C1 <zero> <nonzero> / HALT.
    Errors name the source line."""
    commands: list[Command] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0].upper()
        try:
            if op not in OPERANDS:
                raise ValueError(f"unknown command {op!r}")
            if len(parts) > 1 + OPERANDS[op]:
                raise ValueError(f"trailing {' '.join(parts[1 + OPERANDS[op]:])!r}")
            if op == "INC":
                commands.append(Inc(parts[1]))
            elif op == "DEC":
                commands.append(Dec(parts[1]))
            elif op == "IFZ":
                commands.append(IfZero(parts[1], int(parts[2]), int(parts[3])))
            else:
                commands.append(Halt())
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        lines.append(lineno)
    for i, (lineno, c) in enumerate(zip(lines, commands)):
        problem = _command_problem(c, i, len(commands))
        if problem:
            raise ValueError(f"line {lineno}: {problem}")
    return MinskyMachine(tuple(commands))


ACTION_NAMES = (
    "u",
    "a_C1",
    "a_C2",
    "inc_C1",
    "inc_C2",
    "dec_C1",
    "dec_C2",
    "eq0",
    "neq0",
)

X = 0  # the single clock

PRIV = "lpriv"
FIN = "lf"


def _g(*atoms: Atom) -> tuple[Atom, ...]:
    return atoms

def _open01() -> tuple[Atom, ...]:
    return (Atom(X, ">", 0), Atom(X, "<", 1))


def encode(machine: MinskyMachine, raw: bool = False) -> TimedAutomaton:
    """The combined gadget automaton; unless ``raw``, the final location is
    made urgent so the result validates."""
    actions = tuple(
        Action(n, UNCONTROLLABLE if n == "u" else CONTROLLABLE) for n in ACTION_NAMES
    )
    u = actions[0]
    by_name = {a.name: a for a in actions}
    locations: list[str] = ["linit", PRIV, FIN]
    edges: list[Edge] = []

    def loc(name: str) -> str:
        if name not in locations:
            locations.append(name)
        return name

    def edge(src: str, guard, action: Action, resets: set[int], tgt: str) -> None:
        e = Edge(loc(src), tuple(guard), action, frozenset(resets), loc(tgt))
        if e not in edges:
            edges.append(e)

    # one-action-at-a-time watchdog
    one = "linit_1act"
    loc(one)
    for a in actions:
        edge(one, (), a, {X}, f"l1act_{a.name}")
    for a in actions:
        for b in actions:
            if a is not b:
                edge(f"l1act_{a.name}", _g(Atom(X, "=", 0)), b, set(), "l1act_err")
    edge("l1act_err", (), u, set(), FIN)

    # counter keepers: replay the same choices three units later
    for counter, (lo, hi) in zip(COUNTERS, ((0, 1), (1, 2))):
        g0 = f"linit_G{counter}"
        hold = f"lG{counter}_hold"
        edge(g0, _g(Atom(X, "=", 3)), u, {X}, g0)
        edge(
            g0,
            _g(Atom(X, ">", lo), Atom(X, "<", hi)),
            by_name[f"a_{counter}"],
            {X},
            hold,
        )
        edge(hold, _g(Atom(X, "=", 0)), u, set(), PRIV)
        edge(PRIV, _g(Atom(X, "=", 0)), u, set(), FIN)
        edge(hold, _g(Atom(X, "=", 3)), u, set(), FIN)

    # per-command gadgets
    for i, cmd in enumerate(machine.commands):
        init_i = f"linit_c{i}"
        loc(init_i)
        if isinstance(cmd, Halt):
            edge(init_i, (), u, set(), FIN)
            continue
        if isinstance(cmd, (Inc, Dec)):
            act = by_name[("inc_" if isinstance(cmd, Inc) else "dec_") + cmd.counter]
            l1, l2, l3 = (f"l_c{i}_{s}" for s in ("1", "2", "3"))
            edge(init_i, _g(Atom(X, "=", 3)), u, {X}, f"linit_c{i + 1}")
            edge(init_i, _open01(), act, set(), l1)
            edge(init_i, _open01(), act, {X}, l2)
            edge(init_i, _g(Atom(X, "=", 1)), u, set(), FIN)
            edge(l1, _g(Atom(X, "=", 1)), u, {X}, PRIV)
            edge(PRIV, _g(Atom(X, "=", 0)), u, set(), FIN)
            if isinstance(cmd, Inc):
                edge(l2, _g(Atom(X, "=", 3)), u, set(), FIN)
            else:
                edge(l2, _g(Atom(X, "=", 0)), u, set(), PRIV)
            edge(l2, _open01(), act, set(), l3)
            edge(l3, (), u, set(), FIN)
            continue
        assert isinstance(cmd, IfZero)
        guess = by_name["a_" + cmd.counter]
        leq, leq2 = f"l_c{i}_eq", f"l_c{i}_eq2"
        lne, lne2 = f"l_c{i}_ne", f"l_c{i}_ne2"
        edge(init_i, _g(Atom(X, "=", 0)), by_name["eq0"], set(), leq)
        edge(init_i, _g(Atom(X, "=", 0)), by_name["neq0"], set(), lne)
        edge(init_i, _g(Atom(X, "=", 1)), u, set(), FIN)
        edge(leq, _g(Atom(X, "=", 3)), u, {X}, f"linit_c{cmd.goto_zero}")
        edge(leq, _g(Atom(X, "=", 1)), u, {X}, PRIV)
        edge(leq, _open01(), guess, set(), leq2)
        edge(PRIV, _g(Atom(X, "=", 0)), u, set(), FIN)
        edge(leq2, (), u, set(), FIN)
        edge(lne, _g(Atom(X, "=", 3)), u, {X}, f"linit_c{cmd.goto_nonzero}")
        edge(lne, _open01(), guess, set(), lne2)
        edge(lne2, _g(Atom(X, "=", 1)), u, {X}, PRIV)

    # nondeterministic zero-time dispatch
    for tgt in ("linit_G" + COUNTERS[0], "linit_G" + COUNTERS[1], one, "linit_c0"):
        edge("linit", _g(Atom(X, "=", 0)), u, set(), tgt)

    ta = TimedAutomaton(
        name="minsky",
        actions=actions,
        locations=tuple(locations),
        invariants={},
        init="linit",
        private=PRIV,
        finals=frozenset({FIN}),
        clocks=(Clock(X, "x"),),
        edges=tuple(edges),
    )
    return ta if raw else make_finals_urgent(ta)


@dataclass(frozen=True)
class StructuralReport:
    ok: bool
    mismatches: tuple[str, ...]
    locations: int
    edges: int


def expected_counts(machine: MinskyMachine) -> tuple[int, int]:
    """Closed-form location/edge counts of the merged gadget automaton."""
    n_act = len(ACTION_NAMES)
    locs = 3  # fresh init + shared private/final
    locs += 2 + n_act  # watchdog: init, error, one per action
    locs += 4  # two counter keepers, two locations each
    locs += len(machine.commands)  # one init per command
    edges = 4  # dispatch
    edges += n_act + n_act * (n_act - 1) + 1  # watchdog
    edges += 5 + 4  # counter keepers; the private exit is shared
    for cmd in machine.commands:
        if isinstance(cmd, Halt):
            edges += 1
        elif isinstance(cmd, (Inc, Dec)):
            locs += 3
            edges += 8
        else:
            locs += 4
            edges += 10
    return locs, edges


def structural_check(ta: TimedAutomaton, machine: MinskyMachine) -> StructuralReport:
    """Compares the generated automaton against the closed-form counts and
    spot-checks gadget shapes; insensitive to the urgency repair."""
    mismatches: list[str] = []
    exp_locs, exp_edges = expected_counts(machine)
    if len(ta.locations) != exp_locs:
        mismatches.append(
            f"locations: got {len(ta.locations)}, expected {exp_locs}"
        )
    if len(ta.edges) != exp_edges:
        mismatches.append(f"edges: got {len(ta.edges)}, expected {exp_edges}")
    bounds = {atom.bound for e in ta.edges for atom in e.guard if atom.clock == X}
    if not bounds <= {0, 1, 2, 3}:
        mismatches.append(f"guard constants {sorted(bounds)} not within 0..3")
    for counter in COUNTERS:
        g0 = f"linit_G{counter}"
        if not any(
            e.source == g0 and e.target == g0 and Atom(X, "=", 3) in e.guard
            for e in ta.edges
        ):
            mismatches.append(f"{g0}: keeper self-loop missing")
    n_watchdog = sum(1 for e in ta.edges if e.source.startswith("l1act_") or e.source == "linit_1act")
    expected_watchdog = len(ACTION_NAMES) ** 2 + 1
    if n_watchdog != expected_watchdog:
        mismatches.append(
            f"watchdog edges: got {n_watchdog}, expected {expected_watchdog}"
        )
    return StructuralReport(
        not mismatches, tuple(mismatches), len(ta.locations), len(ta.edges)
    )
