"""Array-backed binary min-heap of (demand, user) pairs.

This is the working set of the authority-driven distributor: nodes are
ordered by demand with the user id as tie-break, so drain order is fully
deterministic.  The array layout is a complete binary tree, which keeps
every sift path logarithmic regardless of insertion order.

A node is a ``(demand, user)`` tuple, so it is its own sort key.  Each
heap operation charges its comparisons and node moves to a meter in one
``charge(reads, writes, ariths, heap_moves)`` call (a ``CostMeter`` unless
the caller passes another object with that method); the simulator shares
one meter across a transaction to charge abstract per-operation costs.
"""

from typing import NamedTuple

from .costs import CostMeter


class HeapNode(NamedTuple):
    demand: int
    user: int


class MinHeap:
    """Binary min-heap keyed on (demand, user id)."""

    def __init__(self, meter=None):
        self._nodes: list[HeapNode] = []
        self._meter = meter if meter is not None else CostMeter()

    @classmethod
    def from_ascending(cls, nodes: list, meter=None) -> "MinHeap":
        """The heap of strictly ascending ``nodes`` (the list is adopted),
        charged as inserting them one by one would be: no insert climbs,
        so each moves one node and compares once unless at the root."""
        heap = cls(meter)
        heap._nodes = nodes
        heap._meter.charge(0, 0, max(len(nodes) - 1, 0), len(nodes))
        return heap

    def __len__(self) -> int:
        return len(self._nodes)

    def peek(self) -> HeapNode:
        if not self._nodes:
            raise IndexError("underflow")
        return self._nodes[0]

    def insert(self, node: HeapNode) -> None:
        """Sift-up insert; zero demands are never stored."""
        if node.demand < 1:
            raise ValueError("empty demand")
        nodes = self._nodes
        nodes.append(node)
        k = len(nodes) - 1
        depth = 0
        while k > 0:
            parent = (k - 1) // 2
            if nodes[parent] <= node:
                break
            nodes[k] = nodes[parent]
            k = parent
            depth += 1
        nodes[k] = node
        # one compare per level climbed, plus the one that stopped the
        # climb below the root; one move for the append and one per level
        self._meter.charge(0, 0, depth + (k > 0), depth + 1)

    def del_min(self) -> HeapNode:
        """Pop the minimum node, restoring heap order by sift-down."""
        nodes = self._nodes
        if not nodes:
            raise IndexError("underflow")
        top = nodes[0]
        last = nodes.pop()
        depth = 0
        compares = 0
        if nodes:
            k = 0
            size = len(nodes)
            while True:
                child = 2 * k + 1
                if child >= size:
                    break
                if child + 1 < size:
                    compares += 1
                    if nodes[child + 1] < nodes[child]:
                        child += 1
                compares += 1
                if last <= nodes[child]:
                    break
                nodes[k] = nodes[child]
                k = child
                depth += 1
            nodes[k] = last
        # one move for the pop and one per level descended
        self._meter.charge(0, 0, compares, depth + 1)
        return top
