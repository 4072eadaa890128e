"""Line-oriented timed-automaton files.

An optional name line ``ta NAME`` comes first, then the sections in fixed
order: clocks, controllable, uncontrollable, locations, edges.  Each is
optional and appears at most once; a header out of this order is a
`ParseError`.  A line is a section header or an entry of the open section,
so a location named ``ta`` is no name line.  Guard and invariant atoms are
comma-separated ``clock <rel> bound``; ``~`` names the silent action.
`dump(parse(text))` is byte-identical on files already in canonical form.
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

# the name line, then the sections by header, in their fixed order
_TA, _CLOCKS, _CONTROLLABLE, _UNCONTROLLABLE, _LOCATIONS, _EDGES = range(6)
_RANKS = {"clocks": _CLOCKS, "controllable": _CONTROLLABLE, "uncontrollable": _UNCONTROLLABLE,
          "locations": _LOCATIONS, "edges": _EDGES}


class ParseError(ValueError):
    pass


def _parse_atoms(text: str, clock_index: dict[str, int], lineno: int) -> Guard:
    atoms = []
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        m = _ATOM_RE.match(chunk)
        if not m:
            raise ParseError(f"line {lineno}: bad atom {chunk.strip()!r}")
        name, rel, bound = m.group(1), m.group(2), int(m.group(3))
        if name not in clock_index:
            raise ParseError(f"line {lineno}: unknown clock {name!r}")
        if bound < 0:
            raise ParseError(f"line {lineno}: negative bound {bound} (clocks are nonnegative)")
        atoms.append(Atom(clock_index[name], rel, bound))
    return tuple(atoms)


def parse(text: str) -> TimedAutomaton:
    name = "ta"
    clocks: list[Clock] = []
    locations: dict[str, None] = {}  # in declaration order
    invariants: dict[str, Guard] = {}
    edges: list[Edge] = []
    init = private = None
    finals: set[str] = set()
    clock_index: dict[str, int] = {}
    action_by_name: dict[str, Action] = {SILENT.name: SILENT}  # then those declared
    section = -1  # the rank of the last header read, the name line's included
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, colon, rest = line.partition(":")
        rank = _RANKS.get(key) if colon else None
        if rest and rank is not None and rank >= _LOCATIONS:  # their headers stand alone
            rank = None
        if rank is None:  # an entry of the open section
            if section == _EDGES:
                edges.append(_parse_edge(line, clock_index, action_by_name, locations, lineno))
                continue
            if section == _LOCATIONS:
                lname, _, invtext = line.partition(" invariant:")
                lname, *flags = lname.split()
                if lname in locations:
                    raise ParseError(f"line {lineno}: duplicate location {lname!r}")
                locations[lname] = None
                for flag in flags:
                    if flag == "init":
                        if init is not None:
                            raise ParseError(f"line {lineno}: second init location {lname!r}")
                        init = lname
                    elif flag == "private":
                        if private is not None:
                            raise ParseError(f"line {lineno}: second private location {lname!r}")
                        private = lname
                    elif flag == "final":
                        finals.add(lname)
                    else:
                        raise ParseError(f"line {lineno}: unknown flag {flag!r}")
                if invtext.strip():
                    invariants[lname] = _parse_atoms(invtext, clock_index, lineno)
                continue
            if not line.startswith("ta "):
                raise ParseError(f"line {lineno}: unexpected {line!r}")
            key, rank, rest = "ta", _TA, line[3:]
        if rank <= section:
            raise ParseError(f"line {lineno}: section {key!r} repeated or out of order")
        section = rank
        if rank == _TA:
            name = rest.strip()
        elif rank == _CLOCKS:
            for cname in rest.split():
                if cname in clock_index:
                    raise ParseError(f"line {lineno}: duplicate clock {cname!r}")
                clock_index[cname] = len(clocks)
                clocks.append(Clock(len(clocks), cname))
        elif rank < _LOCATIONS:
            kind = CONTROLLABLE if rank == _CONTROLLABLE else UNCONTROLLABLE
            for aname in rest.split():
                if aname in action_by_name:
                    raise ParseError(f"line {lineno}: duplicate action {aname!r}")
                action_by_name[aname] = Action(aname, kind)
    if init is None:
        raise ParseError("no init location")
    if private is None:
        raise ParseError("no private location")
    return TimedAutomaton(
        name=name,
        actions=tuple(action_by_name.values())[1:],
        locations=tuple(locations),
        invariants=invariants,
        init=init,
        private=private,
        finals=frozenset(finals),
        clocks=tuple(clocks),
        edges=tuple(edges),
    )


def _parse_edge(
    line: str, clock_index: dict[str, int], action_by_name: dict[str, Action],
    locations: dict[str, None], lineno: int,
) -> Edge:
    m = _EDGE_RE.match(line)
    if not m:
        raise ParseError(f"line {lineno}: bad edge {line!r}")
    src, tgt, aname, guardtext, resettext = m.groups()
    action = action_by_name.get(aname)
    if action is None:
        raise ParseError(f"line {lineno}: unknown action {aname!r}")
    guard = _parse_atoms(guardtext, clock_index, lineno) if guardtext else ()
    resets = set()
    for cname in resettext.split() if resettext else ():
        if cname not in clock_index:
            raise ParseError(f"line {lineno}: unknown clock {cname!r}")
        resets.add(clock_index[cname])
    for loc in (src, tgt):
        if loc not in locations:
            raise ParseError(f"line {lineno}: unknown location {loc!r}")
    return Edge(src, guard, action, frozenset(resets), tgt)


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
