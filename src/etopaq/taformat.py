"""Line-oriented timed-automaton files.

Sections in fixed order: clocks, controllable, uncontrollable, locations,
edges.  Guard and invariant atoms are comma-separated ``clock <rel> bound``;
``~`` names the silent action.  `dump(parse(text))` is byte-identical on
files already in canonical form.
"""
from __future__ import annotations

import re

from .ta import (
    CONTROLLABLE,
    SILENT,
    UNCONTROLLABLE,
    Action,
    Atom,
    Clock,
    Edge,
    Guard,
    TimedAutomaton,
)

_ATOM_RE = re.compile(r"^\s*(\w+)\s*(<=|>=|<|>|=)\s*(-?\d+)\s*$")
_EDGE_RE = re.compile(
    r"^(\S+)\s*->\s*(\S+)\s+via\s+(\S+)"
    r"(?:\s+guard:\s*(.*?))?(?:\s+reset:\s*([\w\s]*?))?\s*$"
)


class ParseError(ValueError):
    pass


def _parse_atoms(text: str, clock_index: dict[str, int], where: str) -> Guard:
    atoms = []
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        m = _ATOM_RE.match(chunk)
        if not m:
            raise ParseError(f"{where}: bad atom {chunk.strip()!r}")
        name, rel, bound = m.group(1), m.group(2), int(m.group(3))
        if name not in clock_index:
            raise ParseError(f"{where}: unknown clock {name!r}")
        if bound < 0:
            raise ParseError(f"{where}: negative bound {bound} (clocks are nonnegative)")
        atoms.append(Atom(clock_index[name], rel, bound))
    return tuple(atoms)


def parse(text: str) -> TimedAutomaton:
    name = "ta"
    clocks: list[Clock] = []
    actions: list[Action] = []
    locations: list[str] = []
    invariants: dict[str, Guard] = {}
    edges: list[Edge] = []
    init = private = None
    finals: set[str] = set()
    clock_index: dict[str, int] = {}
    action_by_name: dict[str, Action] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        where = f"line {lineno}"
        stripped = line.strip()
        if stripped.startswith("ta "):
            name = stripped[3:].strip()
            continue
        if stripped.startswith("clocks:"):
            for cname in stripped[len("clocks:"):].split():
                if cname in clock_index:
                    raise ParseError(f"{where}: duplicate clock {cname!r}")
                clock_index[cname] = len(clocks)
                clocks.append(Clock(len(clocks), cname))
            continue
        if stripped.startswith("controllable:") or stripped.startswith("uncontrollable:"):
            kind = CONTROLLABLE if stripped.startswith("controllable:") else UNCONTROLLABLE
            for aname in stripped.split(":", 1)[1].split():
                if aname in action_by_name or aname == SILENT.name:
                    raise ParseError(f"{where}: duplicate action {aname!r}")
                a = Action(aname, kind)
                action_by_name[aname] = a
                actions.append(a)
            continue
        if stripped == "locations:":
            section = "locations"
            continue
        if stripped == "edges:":
            section = "edges"
            continue
        if section == "locations":
            head, _, invtext = stripped.partition(" invariant:")
            parts = head.split()
            lname, flags = parts[0], parts[1:]
            if lname in locations:
                raise ParseError(f"{where}: duplicate location {lname!r}")
            locations.append(lname)
            for flag in flags:
                if flag == "init":
                    if init is not None:
                        raise ParseError(f"{where}: second init location {lname!r}")
                    init = lname
                elif flag == "private":
                    if private is not None:
                        raise ParseError(f"{where}: second private location {lname!r}")
                    private = lname
                elif flag == "final":
                    finals.add(lname)
                else:
                    raise ParseError(f"{where}: unknown flag {flag!r}")
            if invtext.strip():
                invariants[lname] = _parse_atoms(invtext, clock_index, where)
            continue
        if section == "edges":
            m = _EDGE_RE.match(stripped)
            if not m:
                raise ParseError(f"{where}: bad edge {stripped!r}")
            src, tgt, aname, guardtext, resettext = m.groups()
            if aname == SILENT.name:
                action = SILENT
            elif aname in action_by_name:
                action = action_by_name[aname]
            else:
                raise ParseError(f"{where}: unknown action {aname!r}")
            guard = _parse_atoms(guardtext or "", clock_index, where)
            resets = set()
            for cname in (resettext or "").split():
                if cname not in clock_index:
                    raise ParseError(f"{where}: unknown clock {cname!r}")
                resets.add(clock_index[cname])
            for loc in (src, tgt):
                if loc not in locations:
                    raise ParseError(f"{where}: unknown location {loc!r}")
            edges.append(Edge(src, guard, action, frozenset(resets), tgt))
            continue
        raise ParseError(f"{where}: unexpected {stripped!r}")
    if init is None:
        raise ParseError("no init location")
    if private is None:
        raise ParseError("no private location")
    return TimedAutomaton(
        name=name,
        actions=tuple(actions),
        locations=tuple(locations),
        invariants=invariants,
        init=init,
        private=private,
        finals=frozenset(finals),
        clocks=tuple(clocks),
        edges=tuple(edges),
    )


def _atom_str(ta: TimedAutomaton, atom: Atom) -> str:
    return f"{ta.clocks[atom.clock].name} {atom.rel} {atom.bound}"


def dump(ta: TimedAutomaton) -> str:
    lines = [f"ta {ta.name}"]
    lines.append("clocks: " + " ".join(c.name for c in ta.clocks))
    ctrl = [a.name for a in ta.actions if a.kind == CONTROLLABLE]
    unc = [a.name for a in ta.actions if a.kind == UNCONTROLLABLE]
    lines.append("controllable: " + " ".join(ctrl))
    lines.append("uncontrollable: " + " ".join(unc))
    lines.append("locations:")
    for loc in ta.locations:
        flags = []
        if loc == ta.init:
            flags.append("init")
        if loc == ta.private:
            flags.append("private")
        if loc in ta.finals:
            flags.append("final")
        entry = "  " + " ".join([loc] + flags)
        inv = ta.invariant(loc)
        if inv:
            entry += " invariant: " + ", ".join(_atom_str(ta, a) for a in inv)
        lines.append(entry)
    lines.append("edges:")
    for e in ta.edges:
        entry = f"  {e.source} -> {e.target} via {e.action.name}"
        if e.guard:
            entry += " guard: " + ", ".join(_atom_str(ta, a) for a in e.guard)
        if e.resets:
            entry += " reset: " + " ".join(
                ta.clocks[i].name for i in sorted(e.resets)
            )
        lines.append(entry)
    return "\n".join(lines) + "\n"


def load(path: str) -> TimedAutomaton:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def save(ta: TimedAutomaton, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump(ta))
