"""The one breadth-first explorer behind every graph etopaq walks (regions,
beliefs and the game), its one cap rule, and the interned state store it
fills, as SPIN's is (Holzmann, IEEE TSE 1997): each node once, under a
dense id in discovery order, and each label once, under an id.  The expanded nodes' edges are (label id, target id)
pairs in one `array('i')`, node after node, and the BFS tree is two
arrays: each node's parent id and the label id of the edge from it.
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
    parent: array  # id -> parent id, -1 at the start
    via: array  # id -> label id of the edge from the parent, -1 at the start
    edges: int = 0  # steps of the expanded nodes, those past a state cap included
    stopped: str = ""  # why exploration stopped short, "" when it did not

    def steps(self, i: int) -> Iterator[tuple[int, int]]:
        """Node ``i``'s (label id, target id) pairs as emitted, less those past a cap."""
        row = iter(self.pairs[self.ends[i - 1] if i else 0 : self.ends[i]])
        return zip(row, row)  # one iterator twice: (label id, target id) pairs

    def arcs(self) -> Iterator[tuple[int, object, int]]:
        """Every expanded node's (source id, label, target id) edges, in id order."""
        labels = self.labels
        return ((i, labels[lid], j) for i in range(len(self.ends)) for lid, j in self.steps(i))


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
    g = Explored([start], [], array("i"), array("i"), array("i", [-1]), array("i", [-1]))
    nodes, pairs, ends, parent, via = g.nodes, g.pairs, g.ends, g.parent, g.via
    add_node, add_pair, add_parent, add_via = nodes.append, pairs.append, parent.append, via.append
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
                    add_parent(i)
                    add_via(lid)
                    add_node(n2)
                    found += 1
                    if state_cap is not None and j >= state_cap:
                        stopped = f"state cap {state_cap} exceeded"
                add_pair(lid)
                add_pair(j)
            ends.append(len(pairs))
            if stopped:
                break
    except MemoryError:  # keep the tree as long as `nodes`, whatever append failed
        stopped = "out of memory"
        del parent[len(nodes) :], via[len(nodes) :]
    g.labels[:], g.edges, g.stopped = label_ids, edges, stopped
    return g


def path_to(g: Explored, i: int) -> list[tuple[object, Node]]:
    """The (label, node) steps from the start of ``g`` down to node ``i``."""
    path = []
    while g.parent[i] >= 0:
        path.append((g.labels[g.via[i]], g.nodes[i]))
        i = g.parent[i]
    path.reverse()
    return path
