"""Graphviz exports of the explored region, belief and game graphs.  Each
export returns its text and why its capped walk stopped short ("" when it
did not); a capped export holds what was explored, without the edges to
nodes past the state cap."""
from __future__ import annotations

from .beliefs import BOTTOM, BeliefGraph, BeliefSpace
from .game import explore
from .graphs import bfs
from .modes import Mode
from .regions import RegionContext

EXPORT_STATE_CAP = 10_000  # the command line's default; every paper fixture's graphs fit


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def regions_dot(
    ctx: RegionContext, state_cap: int | None = None, time_cap: float | None = None
) -> tuple[str, str]:
    """The region graph reachable from the initial region under delays and
    all discrete actions, steps in (tag or action name, region) order."""

    def steps(i):
        delays = sorted(ctx.delay_steps(i), key=lambda s: (s[0], ctx.key(s[1])))
        discrete = sorted(ctx.discrete_steps(i), key=lambda s: (s[0].name, ctx.key(s[1])))
        out = [(f"{tag}/~", j) for tag, j in delays if j != i]
        return out + [(f"0/{a.name}", j) for a, j in discrete]

    g = bfs(ctx.initial_id(), steps, state_cap, time_cap)
    names = [_q(ctx.format_region(i)) for i in g.nodes]  # by node id
    finals = ctx.private_mask | ctx.public_mask
    lines = ["digraph regions {", "  rankdir=LR;"]
    for i, rid in enumerate(g.nodes):
        shape = "doublecircle" if finals >> rid & 1 else "ellipse"
        lines.append(f"  {names[i]} [shape={shape}];")
    for i in range(len(g.ends)):
        for label, j in g.steps(i):
            lines.append(f"  {names[i]} -> {names[j]} [label={_q(g.labels[label])}];")
    lines.append("}")
    return "\n".join(lines) + "\n", g.stopped


def pretty_belief_names(graph: BeliefGraph) -> dict[object, str]:
    """Bucket-style names: beliefs first reached at integer point k become
    b{k}, b{k}', b{k}'2, b{k}'3 ... (largest first); interval beliefs
    b(k,k+1) alike.  The depths come from a walk over the transitions in
    sorted order."""
    steps: dict[object, list] = {}
    for (src, tick, _), tgt in sorted(
        graph.transitions.items(), key=lambda kv: (kv[0][1], sorted(kv[0][2]))
    ):
        steps.setdefault(src, []).append((tick, tgt))
    g = bfs(BOTTOM, lambda b: steps.get(b, ()))
    depth = [0] * len(g.nodes)
    by_depth: dict[int, list] = {}
    for i in range(1, len(g.nodes)):
        # "0" and "1" move on to the next point or interval, "0+" stays
        depth[i] = d = depth[g.parent[i]] + (g.labels[g.via[i]] != "0+")
        by_depth.setdefault(d, []).append(g.nodes[i])
    names = {BOTTOM: "bot"}
    for d, group in by_depth.items():
        group.sort(key=lambda b: (-len(b), tuple(sorted(map(graph.space.ctx.key, b)))))
        base = f"b{(d - 1) // 2}" if d % 2 else f"b({d // 2 - 1},{d // 2})"
        for i, b in enumerate(group):
            names[b] = base + ("'" * i if i < 2 else f"'{i}")
    return names


def beliefs_dot(
    space: BeliefSpace,
    pretty: bool = False,
    state_cap: int | None = None,
    time_cap: float | None = None,
) -> tuple[str, str]:
    """The belief graph without the dead belief: one edge per distinct
    successor of a belief under a tick, labelled with the smallest enabled
    set that yields it."""
    graph = space.explore(include_dead=False, state_cap=state_cap, time_cap=time_cap)
    if pretty:
        names = pretty_belief_names(graph)
    else:
        from hashlib import blake2b

        names = {BOTTOM: "bot"}
        for b in graph.states:
            if b is not BOTTOM:
                key = tuple(sorted(map(space.ctx.key, b)))
                digest = blake2b(repr(key).encode(), digest_size=5).hexdigest()
                names[b] = f"B{digest}"
    lines = ["digraph beliefs {", "  rankdir=LR;"]
    for b in graph.states:
        if b is BOTTOM:
            lines.append(f"  {_q(names[b])} [shape=point];")
            continue
        leak = Mode.FULL.leaks(space.has_private_final(b), space.has_public_final(b))
        style = ' style=filled fillcolor="#ffcccc"' if leak else ""
        tip = "; ".join(sorted(map(space.ctx.format_region, b)))
        lines.append(
            f"  {_q(names[b])} [shape=box tooltip={_q(tip)}{style}];"
        )
    for (b, tick, enabled), b2 in sorted(
        graph.transitions.items(), key=lambda kv: (str(names[kv[0][0]]), kv[0][1], sorted(kv[0][2]))
    ):
        label = f"{tick}, {{{','.join(sorted(enabled))}}}"
        lines.append(f"  {_q(names[b])} -> {_q(names[b2])} [label={_q(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n", graph.stopped


def game_dot(
    space: BeliefSpace, mode, state_cap: int | None = None, time_cap: float | None = None
) -> tuple[str, str]:
    """The pruned game as `solve` explores it: one edge per distinct
    successor state, labelled with the smallest enabled set that leads
    there; state g{i} is the state of id i."""
    g = explore(space, mode, state_cap, time_cap)
    lines = ["digraph game {", "  rankdir=LR;"]
    for i, st in enumerate(g.nodes):
        kind = "point" if st.at_integer else "interval"
        if st.current is BOTTOM:
            kind = "start"
        lines.append(f"  g{i} [shape=box label={_q(kind)}];")
    for i in range(len(g.ends)):
        for lid, j in g.steps(i):
            tick, enabled = g.labels[lid]
            label = f"{tick}, {{{','.join(sorted(enabled))}}}"
            lines.append(f"  g{i} -> g{j} [label={_q(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n", g.stopped
