"""Graphviz exports of the explored region, belief and game graphs."""
from __future__ import annotations

from collections import deque

from .beliefs import BOTTOM, BeliefGraph, BeliefSpace, belief_key
from .game import DEFAULT_STATE_CAP, explore
from .regions import RegionContext, encode


def _q(s: str) -> str:
    return '"' + s.replace('"', r"\"") + '"'


def regions_dot(ctx: RegionContext, max_states: int = 5000) -> str:
    """The region graph reachable from the initial region under delays and
    all discrete actions, steps in (tag or action name, region) order."""
    start = ctx.initial_region()
    seen = {start}
    order = [start]
    queue = deque([start])
    edges = []
    while queue and len(seen) < max_states:
        r = queue.popleft()
        delays = sorted(ctx.delay_steps(r), key=lambda s: (s[0], encode(s[1])))
        discrete = sorted(ctx.discrete_steps(r), key=lambda s: (s[0].name, encode(s[1])))
        steps = [(f"{tag}/~", r2) for tag, r2 in delays if r2 != r]
        steps += [(f"0/{a.name}", r2) for a, r2 in discrete]
        for label, r2 in steps:
            edges.append((r, label, r2))
            if r2 not in seen:
                seen.add(r2)
                order.append(r2)
                queue.append(r2)
    lines = ["digraph regions {", "  rankdir=LR;"]
    for r in order:
        shape = "doublecircle" if ctx.is_final(r) else "ellipse"
        lines.append(f"  {_q(ctx.format_region(r))} [shape={shape}];")
    for r, label, r2 in edges:
        lines.append(
            f"  {_q(ctx.format_region(r))} -> {_q(ctx.format_region(r2))}"
            f" [label={_q(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def pretty_belief_names(graph: BeliefGraph) -> dict[object, str]:
    """Bucket-style names: beliefs first reached at integer point k become
    b{k}, b{k}' ... (largest first); interval beliefs b(k,k+1) alike."""
    depth: dict[object, int] = {BOTTOM: 0}
    queue = deque([BOTTOM])
    ordered = sorted(
        graph.transitions.items(), key=lambda kv: (kv[0][1], sorted(kv[0][2]))
    )
    while queue:
        b = queue.popleft()
        for (src, tick, _), tgt in ordered:
            if src is b and tgt not in depth:
                depth[tgt] = depth[b] + (1 if tick in ("0", "1") else 0)
                queue.append(tgt)
    names = {BOTTOM: "bot"}
    by_depth: dict[int, list] = {}
    for b, d in depth.items():
        if b is not BOTTOM:
            by_depth.setdefault(d, []).append(b)
    for d, group in by_depth.items():
        group.sort(key=lambda b: (-len(b), belief_key(graph.space.regions_of(b))))
        base = f"b{(d - 1) // 2}" if d % 2 else f"b({d // 2 - 1},{d // 2})"
        for i, b in enumerate(group):
            names[b] = base + "'" * i
    return names


def beliefs_dot(space: BeliefSpace, pretty: bool = False) -> str:
    graph = space.explore(include_dead=False)
    if pretty:
        names = pretty_belief_names(graph)
    else:
        from hashlib import blake2b

        names = {BOTTOM: "bot"}
        for b in graph.states:
            if b is not BOTTOM:
                digest = blake2b(
                    repr(belief_key(space.regions_of(b))).encode(), digest_size=5
                ).hexdigest()
                names[b] = f"B{digest}"
    lines = ["digraph beliefs {", "  rankdir=LR;"]
    for b in graph.states:
        if b is BOTTOM:
            lines.append(f"  {_q(names[b])} [shape=point];")
            continue
        leak = space.leaking_full(b)
        style = ' style=filled fillcolor="#ffcccc"' if leak else ""
        tip = "; ".join(sorted(space.ctx.format_region(r) for r in space.regions_of(b)))
        lines.append(
            f"  {_q(names[b])} [shape=box tooltip={_q(tip)}{style}];"
        )
    for (b, tick, enabled), b2 in sorted(
        graph.transitions.items(), key=lambda kv: (str(names[kv[0][0]]), kv[0][1], sorted(kv[0][2]))
    ):
        label = f"{tick}, {{{','.join(sorted(enabled))}}}"
        lines.append(f"  {_q(names[b])} -> {_q(names[b2])} [label={_q(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def game_dot(space: BeliefSpace, mode, state_cap: int = DEFAULT_STATE_CAP) -> str:
    """The pruned game as `solve` explores it, stopping where its state cap
    stops it; edges to states past the cap are left out."""
    adj, order, _, _ = explore(space, mode, state_cap, None)
    names = {st: f"g{i}" for i, st in enumerate(order)}
    lines = ["digraph game {", "  rankdir=LR;"]
    for st in order:
        kind = "point" if st.at_integer else "interval"
        if st.current is BOTTOM:
            kind = "start"
        lines.append(f"  {names[st]} [shape=box label={_q(kind)}];")
    for st in order:
        for (tick, enabled), s2 in adj.get(st, ()):
            if s2 in names:
                label = f"{tick}, {{{','.join(sorted(enabled))}}}"
                lines.append(f"  {names[st]} -> {names[s2]} [label={_q(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
