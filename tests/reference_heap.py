"""The heap's sifts as they were before the moves were taken from the
landing index: ``ReferenceHeap.insert`` and ``ReferenceHeap.del_min``
count the levels and compares as they go, and meter them through
``add_counts``, so they need a ``counting_meter``.  The heap
differential pits ``MinHeap`` against it operation by operation; the CMF
differential's node-by-node distributor drains through it, so a fault in
``MinHeap``'s metering shows there too.
"""

from fairfaucet.heap import MinHeap
from meter_counts import add_counts


class ReferenceHeap(MinHeap):

    def insert(self, node: tuple) -> None:
        """Sift-up insert."""
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
        add_counts(self._meter, 0, 0, depth + (k > 0), depth + 1)

    def del_min(self) -> tuple:
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
        add_counts(self._meter, 0, 0, compares, depth + 1)
        return top
