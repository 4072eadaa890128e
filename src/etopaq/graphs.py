"""The one breadth-first explorer behind every graph etopaq walks (regions,
beliefs and the game), its one cap rule, and the interned state store it
fills, as SPIN's is (Holzmann, IEEE TSE 1997): each node once, under a
dense id in discovery order, and each label once, under an id.  The
expanded nodes' edges are (label id, target id) pairs in one `array('i')`,
node after node, and the store keeps nothing else: paths are read back out
of it by `shortest_path`, a breadth-first search over those rows.
"""
from __future__ import annotations

import time
from array import array
from collections.abc import Callable, Hashable, Iterator, Sequence
from dataclasses import dataclass

Node = Hashable
Steps = Sequence[tuple[object, Node]]  # (label, successor) pairs, in emission order


@dataclass(eq=False)
class Explored:
    """What `bfs` found, as ids: node i is ``nodes[i]``, label l is ``labels[l]``."""

    nodes: list  # id -> node, in discovery order
    labels: list  # label id -> label
    pairs: array  # the expanded nodes' (label id, target id) pairs, node after node
    ends: array  # id -> where its pairs end in `pairs`, expanded nodes only
    edges: int = 0  # steps of the expanded nodes, those past a state cap included
    stopped: str = ""  # why exploration stopped short, "" when it did not

    def steps(self, i: int) -> Iterator[tuple[int, int]]:
        """Node ``i``'s (label id, target id) pairs as emitted, less those past a cap."""
        row = iter(self.pairs[self.ends[i - 1] if i else 0 : self.ends[i]])
        return zip(row, row)  # one iterator twice: (label id, target id) pairs


def bfs(
    start: Node,
    successors: Callable[[Node], Steps],
    state_cap: int | None = None,
    time_cap: float | None = None,
) -> Explored:
    """The graph reachable from ``start``, breadth first, one node at a
    time, interned into an `Explored`.  The time cap is checked before
    each expansion, the state cap at each discovery; a walk that runs out
    of memory stops as a capped one does, with what it explored."""
    deadline = None if time_cap is None else time.monotonic() + time_cap
    g = Explored([start], [], array("i"), array("i"))
    nodes, pairs, ends = g.nodes, g.pairs, g.ends
    add_node, add_pair = nodes.append, pairs.append
    ids, label_ids = {start: 0}, {}  # both in id order: `labels` is label_ids's keys
    found, edges, stopped = 1, 0, ""  # found: len(nodes), kept by hand in the edge loop
    try:
        for i, node in enumerate(nodes):  # `nodes` grows behind the cursor: a FIFO queue
            if deadline is not None and time.monotonic() > deadline:
                stopped = f"time cap {time_cap}s exceeded"
                break
            steps = successors(node)
            edges += len(steps)
            for label, n2 in steps:
                lid = label_ids.get(label)
                if lid is None:
                    lid = label_ids[label] = len(label_ids)
                j = ids.setdefault(n2, found)
                if j == found:
                    if stopped:  # past the cap: only edges to nodes already found
                        del ids[n2]
                        continue
                    add_node(n2)
                    found += 1
                    if state_cap is not None and j >= state_cap:
                        stopped = f"state cap {state_cap} exceeded"
                add_pair(lid)
                add_pair(j)
            ends.append(len(pairs))
            if stopped:
                break
    except MemoryError:
        stopped = "out of memory"
    g.labels[:], g.edges, g.stopped = label_ids, edges, stopped
    return g


def shortest_path(g: Explored, start: int, goal: int, trail: array) -> list[int] | None:
    """The label ids of a shortest path of one edge or more from node
    ``start`` of ``g`` to node ``goal``; None when there is none.  A FIFO
    over the rows that passes only the nodes whose ``trail`` entry is -1,
    marking each with its parent id there and, n further on, the label id
    of the edge from it.  From node 0 on a fresh trail of 2n -1s, a node's
    parent is the node `bfs` first found it from, by the same edge."""
    n = len(g.nodes)
    queue = [start]
    for v in queue:  # `queue` grows behind the cursor: a FIFO queue
        for lid, j in g.steps(v):
            if trail[j] < 0:
                if j == goal:
                    path = [lid]
                    while v != start:
                        path.append(trail[n + v])
                        v = trail[v]
                    path.reverse()
                    return path
                trail[j], trail[n + j] = v, lid
                queue.append(j)
    return None
