"""Array-backed binary min-heap of comparable keys.

This is the working set of the authority-driven distributor, which
owns what a key means (see ``cmf``): the heap reads its keys only by
index and by comparison, so distinct keys drain in a fully deterministic
order.  The array layout is a complete binary tree, which keeps every
sift path logarithmic regardless of insertion order.

The compares and moves of an operation vary with where its key lands,
so they are the one variable amount a ``CostMeter`` takes: each
operation adds ``compares * compare + moves * move`` to the meter's
``units`` in one statement, with no meter call, as the contracts' exit
paths add their rows.  The simulator shares one meter across a
transaction.  The sifts read each key once per level and count nothing
as they go: key i sits on level ``(i + 1).bit_length() - 1``, so the
moves follow from the index where the sifted key lands, and a
sift-down's compares from that level and whether two children, one or
none stopped it.
"""

from .costs import CostMeter


class MinHeap:
    """Binary min-heap of comparable keys."""

    def __init__(self, meter=None):
        self._nodes: list = []
        self._meter = meter if meter is not None else CostMeter()

    @classmethod
    def from_ascending(cls, nodes: list, meter=None) -> "MinHeap":
        """The heap of strictly ascending keys ``nodes`` (the list is
        adopted), charged as inserting them one by one would be: no insert
        climbs, so each moves one key and compares once unless at the
        root."""
        heap = cls(meter)
        heap._nodes = nodes
        m = heap._meter
        m.units += max(len(nodes) - 1, 0) * m.compare + len(nodes) * m.move
        return heap

    def __len__(self) -> int:
        return len(self._nodes)

    def insert(self, node) -> None:
        """Sift-up insert."""
        nodes = self._nodes
        nodes.append(node)
        start = k = len(nodes) - 1
        while k:
            parent = (k - 1) >> 1
            above = nodes[parent]
            if above <= node:
                break
            nodes[k] = above
            k = parent
        nodes[k] = node
        # node i sits on level (i + 1).bit_length() - 1, so the climb is the
        # level difference; one compare per level climbed, plus the one that
        # stopped the climb below the root; one move for the append and one
        # per level
        depth = (start + 1).bit_length() - (k + 1).bit_length()
        m = self._meter
        m.units += (depth + (k > 0)) * m.compare + (depth + 1) * m.move

    def del_min(self):
        """Pop the minimum key, restoring heap order by sift-down."""
        nodes = self._nodes
        if not nodes:
            raise IndexError("underflow")
        top = nodes[0]
        last = nodes.pop()
        if not nodes:
            self._meter.units += self._meter.move
            return top
        # a node whose left child sits below the last index ``end`` also has
        # a right child; the node whose left child is ``end`` has only that
        end = len(nodes) - 1
        k = 0
        child = 1
        while child < end:
            smaller = nodes[child]
            right = nodes[child + 1]
            if right < smaller:  # ties go to the left child
                child += 1
                smaller = right
            if last <= smaller:
                # two compares on k's level, which stopped the sift, and on
                # every level above it
                compares = 2 * (k + 1).bit_length()
                break
            nodes[k] = smaller
            k = child
            child = 2 * k + 1
        else:
            # two compares on every level above k's; on k's level one if k
            # has a single child, none if it is a leaf
            compares = 2 * (k + 1).bit_length() - 2
            if child == end:
                compares += 1
                smaller = nodes[child]
                if not last <= smaller:
                    nodes[k] = smaller
                    k = child
        nodes[k] = last
        # one move for the pop and one per level descended
        m = self._meter
        m.units += compares * m.compare + (k + 1).bit_length() * m.move
        return top
