"""The one breadth-first explorer behind every graph etopaq walks (regions,
beliefs, the game, and the loop search inside one SCC), and its one cap rule.
"""
from __future__ import annotations

import time
from collections.abc import Callable, Hashable, Sequence

Node = Hashable
Steps = Sequence[tuple[object, Node]]  # (label, successor) pairs, in emission order
Adjacency = dict[Node, Steps]
Tree = dict[Node, tuple[Node, object] | None]  # BFS parent edges


def bfs(
    start: Node,
    successors: Callable[[Node], Steps],
    state_cap: int | None = None,
    time_cap: float | None = None,
) -> tuple[Adjacency, list[Node], Tree, str]:
    """The graph reachable from ``start``, breadth first, one node at a
    time: adjacency of the expanded nodes (successors kept as emitted),
    discovery order, BFS parent edges, and why exploration stopped short
    ("" when it did not).  The time cap is checked before each expansion,
    the state cap at each discovery; a walk that runs out of memory stops
    as a capped one does, with what it explored."""
    deadline = None if time_cap is None else time.monotonic() + time_cap
    adj: Adjacency = {}
    order = [start]
    parent: Tree = {start: None}
    try:
        for node in order:  # `order` grows behind the cursor: a FIFO queue
            if deadline is not None and time.monotonic() > deadline:
                return adj, order, parent, f"time cap {time_cap}s exceeded"
            adj[node] = steps = successors(node)
            for label, n2 in steps:
                if n2 not in parent:
                    parent[n2] = (node, label)
                    order.append(n2)
                    if state_cap is not None and len(order) > state_cap:
                        return adj, order, parent, f"state cap {state_cap} exceeded"
    except MemoryError:
        return adj, order, parent, "out of memory"
    return adj, order, parent, ""


def path_to(tree: Tree, node: Node) -> list[tuple[object, Node]]:
    """The (label, node) steps from the root of ``tree`` down to ``node``."""
    path = []
    while tree[node] is not None:
        prev, label = tree[node]
        path.append((label, node))
        node = prev
    path.reverse()
    return path
