"""Differential tests of the heap's sifts against their level-counting
predecessor.

``ReferenceHeap`` (in ``reference_heap.py``) holds the sifts as they
were before the moves were taken from the landing index: they count the
levels and compares as they go.  Both heaps replay the same seeded
operation sequences on the same node objects, and after every operation
they must agree on the popped node, the node array (by identity, so a tie
sent to the other child shows even between equal keys) and the
(reads, writes, heap_moves, ariths) the operation adds to its counting
meter.
"""

import random

import pytest

from fairfaucet.heap import MinHeap
from meter_counts import counting_meter, counts
from reference_heap import ReferenceHeap


class Pair:
    """The heap under test and the reference, driven in lockstep."""

    def __init__(self, ascending=()):
        ascending = list(ascending)
        self.meters = counting_meter(), counting_meter()
        self.heaps = (MinHeap.from_ascending(list(ascending), self.meters[0]),
                      ReferenceHeap.from_ascending(list(ascending),
                                                   self.meters[1]))
        self.ops = 0
        self.check()

    def check(self, *popped):
        new, ref = self.heaps
        assert [id(n) for n in new._nodes] == [id(n) for n in ref._nodes]
        # each operation's counts on their own: both meters restart at 0
        assert counts(self.meters[0]) == counts(self.meters[1])
        for meter in self.meters:
            meter.units = 0
        if popped:
            assert popped[0] is popped[1]
        self.ops += 1

    def insert(self, node):
        for heap in self.heaps:
            heap.insert(node)
        self.check()

    def pop(self):
        self.check(*(heap.del_min() for heap in self.heaps))

    def drain(self):
        while len(self.heaps[1]):
            self.pop()
        assert len(self.heaps[0]) == 0


def key_stream(rng, keys):
    """Nodes drawn from a small key space, so equal keys are common; each
    call builds a fresh node object."""
    demands, users = keys
    return lambda: (rng.randrange(1, demands), rng.randrange(users))


@pytest.mark.parametrize("keys", [(10_000, 10_000), (4, 3), (2, 1)],
                         ids=["distinct", "few", "one"])
def test_interleaved_inserts_and_pops(keys):
    rng = random.Random(41)
    ops = 0
    for _ in range(60):
        pair = Pair()
        draw = key_stream(rng, keys)
        for _ in range(rng.randrange(1, 300)):
            if len(pair.heaps[1]) and rng.random() < 0.4:
                pair.pop()
            else:
                pair.insert(draw())
        pair.drain()
        ops += pair.ops
    assert ops > 10_000


@pytest.mark.parametrize("keys", [(10_000, 10_000), (3, 2)],
                         ids=["distinct", "duplicates"])
def test_drains_to_empty_around_powers_of_two(keys):
    # sizes 2^j - 1, 2^j and 2^j + 1 reach every last-level shape,
    # including the node with a single child in every even-sized heap
    rng = random.Random(42)
    draw = key_stream(rng, keys)
    for size in sorted({s for j in range(9) for s in (2**j - 1, 2**j,
                                                      2**j + 1) if s > 0}):
        for _ in range(3):
            pair = Pair()
            for _ in range(size):
                pair.insert(draw())
            pair.drain()
            with pytest.raises(IndexError, match="underflow"):
                pair.heaps[0].del_min()


def test_drains_of_ascending_heaps():
    rng = random.Random(43)
    for size in list(range(0, 40)) + [63, 64, 65, 127, 128, 129, 500]:
        keys = sorted({(rng.randrange(1, 3 * size + 2), u)
                       for u in range(size)})
        pair = Pair((d, u) for d, u in keys)
        pair.drain()
        # one compared count per pop plus the adoption
        assert pair.ops == len(keys) + 1


def test_refilled_ascending_heaps_with_duplicate_keys():
    # a from_ascending heap topped up with inserts of keys already in it,
    # then popped and refilled again, as a drain loop with ties would
    rng = random.Random(44)
    for _ in range(40):
        size = rng.randrange(1, 70)
        pair = Pair((d, 0) for d in range(1, size + 1))
        for _ in range(rng.randrange(1, 150)):
            if len(pair.heaps[1]) and rng.random() < 0.5:
                pair.pop()
            else:
                pair.insert((rng.randrange(1, size + 1), 0))
        pair.drain()
