"""Differential tests of the CMF distribute against its node-by-node
predecessor.

``ReferenceCmf.distribute`` is the distribute loop as it was before the
remainders of an iteration became the next heap in one step: it inserts
every remainder into the other heap on its own, the demand heap being
its heap 0.  ``ReferenceCmf.submit_demand`` queues the ``(demand, user)``
tuple the distributor queued before its keys became one packed int, so
the comparison also pits the packed-key drain against a tuple-key one.
Both of its heaps are ``ReferenceHeap``s, whose sifts count as they go,
so the drain's heap metering shares no code with ``MinHeap``'s and a
fault in the heap's metering fails the comparison.  Both must agree on
the report, the balances, the carried capacity and every meter charge.
``GrantRow`` is the row record the distributor built before its rows
became plain tuples, verbatim; a plain tuple compares equal to the
record with the same fields.
"""

import random
from typing import NamedTuple

import pytest

from fairfaucet.cmf import CmfDistributor, DistributionReport
from fairfaucet.heap import MinHeap
from meter_counts import add_counts, counting_meter, counts
from reference_heap import ReferenceHeap


class GrantRow(NamedTuple):
    iteration: int  # 1-based within one distribution
    user: int
    granted: int
    share: int
    capacity_after: int


class ReferenceCmf(CmfDistributor):

    def __init__(self, epoch_capacity: int, meter=None):
        super().__init__(epoch_capacity, meter)
        self._queue = ReferenceHeap(self._meter)
        self._demanded = set()  # the set its submit_demand adds to

    def submit_demand(self, user: int, amount: int) -> None:
        """Queue one demand for the next distribution.  A user may demand
        once per epoch and zero demands are rejected outright."""
        if amount < 1:
            raise ValueError("empty demand")
        m = self._meter
        if user in self._demanded:
            m.units += m.paths["submit_repeat"]
            raise ValueError("already demanded")
        self._demanded.add(user)
        m.units += m.paths["submit_accepted"]
        self._queue.insert((amount, user))

    def distribute(self, epoch: int = 0) -> DistributionReport:
        self.capacity += self.epoch_capacity
        report = DistributionReport(epoch=epoch,
                                    capacity_before=self.capacity)

        heaps = [self._queue, ReferenceHeap(self._meter)]
        c = self.capacity
        i = 0
        iteration = 0
        while len(heaps[i]) > 0 and c > 0:
            iteration += 1
            size = len(heaps[i])
            share = 1 if c < size else c // size
            report.shares.append(share)
            while len(heaps[i]) > 0 and c > 0:
                node = heaps[i].del_min()
                # clamped by c so the pool can never go negative
                granted = min(share, node[0], c)
                self.balances[node[1]] = (
                    self.balances.get(node[1], 0) + granted)
                c -= granted
                if node[0] > share:
                    heaps[1 - i].insert((node[0] - share, node[1]))
                report.rows.append(GrantRow(iteration, node[1], granted,
                                            share, c))
                report.allocations[node[1]] = (
                    report.allocations.get(node[1], 0) + granted)
            i = 1 - i

        # depletion discards whatever is left in either heap
        m = self._meter
        self._queue = ReferenceHeap(m)
        self._demanded.clear()
        self.capacity = c
        report.capacity_after = c
        # 3 reads, 2 writes and 1 arith per call, 2 ariths per iteration,
        # 1 read, 1 write and 2 ariths per grant
        grants = len(report.rows)
        add_counts(m, 3 + grants, 2 + grants, 1 + 2 * iteration + 2 * grants)
        return report


def observed(cls, epoch_capacity, epochs):
    """Run ``epochs`` (one demand dict per distribution) on one
    distributor; returns everything a distribution shows per epoch."""
    meter = counting_meter()
    dist = cls(epoch_capacity, meter)
    out = []
    for epoch, demands in enumerate(epochs, 1):
        meter.units = 0
        for user, amount in demands.items():
            dist.submit_demand(user, amount)
        report = dist.distribute(epoch)
        out.append((report.shares, report.rows, report.allocations,
                    report.capacity_before, report.capacity_after,
                    dict(dist.balances), dist.capacity, counts(meter)))
    return out


def demand_sets(seed):
    """Seeded (epoch_capacity, [demands per epoch]) cases: ties, demands
    of 1, capacity at or above total demand, depletion early and late,
    and epochs without demands."""
    rng = random.Random(seed)
    n = rng.choice((0, 1, 2, 3, rng.randrange(4, 40)))
    hi = rng.choice((1, 2, 5, 100))
    epochs = []
    for _ in range(rng.randrange(1, 4)):
        users = rng.sample(range(1, 3 * n + 2), n)
        epochs.append({u: rng.randrange(1, hi + 1) for u in users})
    total = max(sum(d.values()) for d in epochs)
    epoch_capacity = max(1, rng.choice((
        total, total + rng.randrange(0, 50),    # every demand met
        rng.randrange(1, total + 2),            # depletion somewhere
        rng.randrange(1, n + 2),                # depletion in iteration 1
    )))
    return epoch_capacity, epochs


SEEDS = range(400)


@pytest.mark.parametrize("seed", SEEDS)
def test_distribute_matches_node_by_node_reference(seed):
    epoch_capacity, epochs = demand_sets(seed)
    assert (observed(CmfDistributor, epoch_capacity, epochs)
            == observed(ReferenceCmf, epoch_capacity, epochs))


def left_waiting(demands, rows, iterations):
    """Users in the heap at the start of the last iteration that got no
    grant in it: non-empty exactly when the pool ran dry mid-drain."""
    def granted_before(user, iteration):
        return sum(r.granted for r in rows
                   if r.user == user and r.iteration < iteration)

    waiting = (set(demands) if iterations == 1 else
               {r.user for r in rows if r.iteration == iterations - 1
                and granted_before(r.user, iterations) < demands[r.user]})
    return waiting - {r.user for r in rows if r.iteration == iterations}


def test_demand_sets_cover_every_exit():
    """The seeds above reach each way a distribution can end."""
    seen = set()
    for seed in SEEDS:
        epoch_capacity, epochs = demand_sets(seed)
        runs = observed(CmfDistributor, epoch_capacity, epochs)
        for demands, (shares, rows, *_) in zip(epochs, runs):
            rows = list(map(GrantRow._make, rows))
            values = sorted(demands.values())
            if not values:
                seen.add("no demands")
            if len(set(values)) < len(values):
                seen.add("ties")
            if 1 in values:
                seen.add("demand of 1")
            if values and rows[-1].capacity_after > 0:
                seen.add("every demand met")
            if values and left_waiting(demands, rows, len(shares)):
                seen.add("depleted mid iteration 1" if len(shares) == 1
                         else "depleted mid later iteration")
    assert seen == {"no demands", "ties", "demand of 1", "every demand met",
                    "depleted mid iteration 1",
                    "depleted mid later iteration"}


@pytest.mark.parametrize("m", range(65))
def test_from_ascending_equals_sequential_inserts(m):
    rng = random.Random(m)
    # strictly ascending (demand, user) pairs, with repeated demands
    nodes = sorted((rng.randrange(1, 8), u)
                   for u in rng.sample(range(1000), m))
    inserted_meter, built_meter = counting_meter(), counting_meter()
    inserted = MinHeap(inserted_meter)
    for node in nodes:
        inserted.insert(node)
    built = MinHeap.from_ascending(list(nodes), built_meter)
    assert built._nodes == inserted._nodes
    assert counts(built_meter) == counts(inserted_meter)
    assert counts(built_meter) == (0, 0, m, max(m - 1, 0))
