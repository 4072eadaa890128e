"""Graphviz exports of the region, belief and game graphs, each written by
one writer from its walk's `graphs.Explored` store, with why it stopped short
("" when it did not): a capped walk leaves out the edges to nodes past the
state cap, and a render past the time cap keeps the nodes it wrote, a prefix
in id order, and the edges among them."""
from __future__ import annotations

import time
from functools import cache
from hashlib import blake2b

from .beliefs import BOTTOM, BeliefSpace
from .game import explore
from .graphs import Explored, bfs
from .modes import Mode
from .regions import RegionContext

EXPORT_STATE_CAP = 10_000  # the command line's default; every paper fixture's graphs fit


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(graph: str, g: Explored, node, named, time_cap: float | None) -> tuple[str, str]:
    """The DOT digraph ``graph`` of ``g`` and why it stopped short, the walk's
    cap first.  Nodes go in id order, each with the key and attributes that
    ``node(i, x)`` gives, until ``time_cap`` seconds have passed; the edges
    among the n nodes written are then read, row by row up to node n, as
    (source id, label, target id), and ``named(keys, arcs)`` gives, from the
    n nodes' keys and those edges, the names to write and the edges in the
    order to write.  A label is a string, or a belief or game edge's (tick,
    sorted names)."""
    deadline = None if time_cap is None else time.monotonic() + time_cap
    keys, attrs, stopped = [], [], g.stopped
    for i, x in enumerate(g.nodes):
        if deadline is not None and time.monotonic() > deadline:
            stopped = stopped or f"time cap {time_cap}s exceeded"
            break
        key, attr = node(i, x)
        keys.append(key)
        attrs.append(attr)
    n = len(attrs)
    labels = g.labels
    arcs = [
        (i, labels[lid], j) for i in range(min(n, len(g.ends))) for lid, j in g.steps(i) if j < n
    ]
    names, arcs = named(keys, arcs)
    for k, name in enumerate(names):  # in place: each node's attributes once in memory
        attrs[k] = f"  {name} [{attrs[k]}];"
    lines = [f"digraph {graph} {{", "  rankdir=LR;", *attrs]
    for i, label, j in arcs:
        if not isinstance(label, str):
            label = f"{label[0]}, {{{','.join(label[1])}}}"
        lines.append(f"  {names[i]} -> {names[j]} [label={_q(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n", stopped


def _decoded(space: BeliefSpace, g: Explored) -> dict[int, tuple[str, list[str]]]:
    """Each edge label of the belief or game store ``g`` as (tick, sorted
    names), in that order: the order the belief exports sort edges in."""
    out = {}
    for code in g.labels:
        tick, enabled = space.label(code)
        out[code] = (tick, sorted(enabled))
    return dict(sorted(out.items(), key=lambda item: item[1]))


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
    finals = ctx.private_mask | ctx.public_mask
    shape = ("shape=ellipse", "shape=doublecircle")

    def node(_, rid):
        return _q(ctx.format_region(rid)), shape[finals >> rid & 1]

    return _dot("regions", g, node, lambda names, arcs: (names, arcs), time_cap)


def pretty_belief_names(arcs: list, ranks: list) -> list[str]:
    """Bucket-style names of the belief store's first n nodes, by id, given
    their n ranks (node 0's unread), each (-size, sorted region keys), and
    the edges among them as (source id, (tick, sorted names), target id) in
    label order: beliefs first reached at integer point k become b{k},
    b{k}', b{k}'2, b{k}'3 ... in rank order, so largest first; interval
    beliefs b(k,k+1) alike.  The depths come from a walk over those edges:
    a belief can be as many hops away at two unit depths, so the store's
    own walk could name it otherwise."""
    steps: dict[int, list] = {}
    for i, label, j in arcs:
        steps.setdefault(i, []).append((label[0], j))
    walk = bfs(0, lambda i: steps.get(i, ()))
    depth = [0] * len(walk.nodes)
    by_depth: dict[int, list] = {}
    for k in range(1, len(walk.nodes)):
        # "0" and "1" move on to the next point or interval, "0+" stays
        depth[k] = d = depth[walk.parent[k]] + (walk.labels[walk.via[k]] != "0+")
        by_depth.setdefault(d, []).append(walk.nodes[k])
    names = ["bot"] * len(ranks)
    for d, group in by_depth.items():
        group.sort(key=ranks.__getitem__)
        base = f"b{(d - 1) // 2}" if d % 2 else f"b({d // 2 - 1},{d // 2})"
        for r, i in enumerate(group):
            names[i] = base + ("'" * r if r < 2 else f"'{r}")
    return names


def beliefs_dot(
    space: BeliefSpace,
    pretty: bool = False,
    state_cap: int | None = None,
    time_cap: float | None = None,
) -> tuple[str, str]:
    """The belief graph without the dead belief: one edge per distinct
    successor of a belief under a tick, labelled with the smallest enabled
    set that yields it, edges in (source name, tick, sorted names) order.
    Each belief's regions are read as the belief is written: a plain
    export names it by a digest of its sorted region keys, and ``pretty``
    keeps its rank for `pretty_belief_names`, which names the beliefs
    written once the last is."""
    g = space.explore(state_cap=state_cap, time_cap=time_cap)
    ctx = space.ctx
    region_key = cache(ctx.key)  # each region's key built once, shared by the ranks

    def node(_, b):
        if b is BOTTOM:
            return "bot", "shape=point"
        leak = Mode.FULL.leaks(space.has_private_final(b), space.has_public_final(b))
        style = ' style=filled fillcolor="#ffcccc"' if leak else ""
        tip = "; ".join(sorted(map(ctx.format_region, b)))
        keys = tuple(sorted(map(region_key, b)))
        if pretty:
            key = -len(keys), keys
        else:
            key = f"B{blake2b(repr(keys).encode(), digest_size=5).hexdigest()}"
        return key, f"shape=box tooltip={_q(tip)}{style}"

    def named(keys, arcs):
        labels = _decoded(space, g)
        order = {code: r for r, code in enumerate(labels)}
        arcs.sort(key=lambda a: order[a[1]])
        arcs = [(i, labels[code], j) for i, code, j in arcs]
        names = pretty_belief_names(arcs, keys) if pretty else keys
        arcs.sort(key=lambda a: names[a[0]])  # stable: in label order from each source
        return [_q(s) for s in names], arcs

    return _dot("beliefs", g, node, named, time_cap)


def game_dot(
    space: BeliefSpace, mode, state_cap: int | None = None, time_cap: float | None = None
) -> tuple[str, str]:
    """The pruned game as `solve` explores it: one edge per distinct
    successor state, labelled with the smallest enabled set that leads
    there; state g{i} is the state of id i."""
    g = explore(space, mode, state_cap, time_cap)
    labels = _decoded(space, g)

    def node(i, st):
        current, _, at_integer, _ = st
        kind = "start" if current is BOTTOM else "point" if at_integer else "interval"
        return f"g{i}", f"shape=box label={_q(kind)}"

    def named(names, arcs):
        return names, ((i, labels[code], j) for i, code, j in arcs)

    return _dot("game", g, node, named, time_cap)
