import math
import random

import pytest

from fairfaucet.heap import MinHeap
from meter_counts import counting_meter, counts


def drain(heap):
    out = []
    while len(heap):
        out.append(heap.del_min())
    return out


def test_insert_into_empty():
    h = MinHeap()
    h.insert((5, 1))
    assert h._nodes[0][0] == 5
    assert len(h) == 1


def test_table_demands_min_is_smallest():
    h = MinHeap()
    for user, demand in enumerate((4, 11, 15), 1):
        h.insert((demand, user))
    assert h._nodes[0] == (4, 1)


def test_mixed_inserts():
    h = MinHeap()
    for user, demand in enumerate((7, 3, 9, 1), 1):
        h.insert((demand, user))
    assert h._nodes[0][0] == 1


def test_del_min_order_and_underflow():
    h = MinHeap()
    for demand, user in ((4, 1), (11, 2), (15, 3)):
        h.insert((demand, user))
    assert h.del_min() == (4, 1)
    assert len(h) == 2
    h2 = MinHeap()
    h2.insert((9, 4))
    assert h2.del_min() == (9, 4)
    assert len(h2) == 0
    with pytest.raises(IndexError, match="underflow"):
        h2.del_min()


def test_size_counts():
    h = MinHeap()
    assert len(h) == 0
    for k in range(3):
        h.insert((k + 1, k))
    assert len(h) == 3
    h.del_min()
    assert len(h) == 2


def test_equal_demands_break_ties_by_user_id():
    h = MinHeap()
    for user in (9, 2, 7, 4):
        h.insert((5, user))
    assert [n[1] for n in drain(h)] == [2, 4, 7, 9]


def test_drain_matches_sort_oracle():
    rng = random.Random(1234)
    h = MinHeap()
    inserted = []
    for _ in range(1000):
        node = (rng.randrange(1, 10_000), rng.randrange(0, 200))
        inserted.append(node)
        h.insert(node)
    drained = drain(h)
    # oracle: sorting the inserted multiset
    assert drained == sorted(inserted)


def test_conservation_under_interleaving():
    rng = random.Random(99)
    h = MinHeap()
    inserted, removed = [], []
    for _ in range(2000):
        if len(h) and rng.random() < 0.4:
            removed.append(h.del_min())
        else:
            node = (rng.randrange(1, 50), rng.randrange(0, 30))
            inserted.append(node)
            h.insert(node)
    removed.extend(drain(h))
    assert sorted(removed) == sorted(inserted)


def sift_depth(meter, op, *args):
    """Levels one heap operation sifted: it moves one node, plus one per
    level."""
    meter.units = 0
    op(*args)
    return counts(meter)[2] - 1


def test_sift_depth_stays_logarithmic():
    rng = random.Random(5)
    meter = counting_meter()
    h = MinHeap(meter)
    for _ in range(3000):
        if len(h) and rng.random() < 0.45:
            before = len(h)
            depth = sift_depth(meter, h.del_min)
            assert depth <= math.ceil(math.log2(before + 1))
        else:
            node = (rng.randrange(1, 1_000_000), rng.randrange(0, 999))
            depth = sift_depth(meter, h.insert, node)
            assert depth <= math.ceil(math.log2(len(h) + 1))


def test_meter_hook_sees_moves_and_compares():
    meter = counting_meter()
    h = MinHeap(meter)
    for demand in (5, 3, 8, 1):
        h.insert((demand, 0))
    drain(h)
    # four appends with three sift-up swaps, then four pops with two
    # sift-down moves; seven node comparisons in all
    assert counts(meter) == (0, 0, 13, 7)
