"""Authority-driven max-min distribution over one demand heap.

Demands accumulate in the demand heap during an epoch.  At the epoch
boundary the authority runs :meth:`CmfDistributor.distribute`, which tops
up the capacity pool and then repeatedly drains the heap in ascending
demand order, granting each user the minimum of the iteration's unit
share and the user's remaining demand.  The remainders of partially
served demands, still in drain order, become the next iteration's heap in
one step, until every demand is met or the pool is empty.  Demand still
unserved then is discarded; leftover capacity carries over.

Each exit path adds its priced row of ``PATH_CHARGES`` to the meter's
``units``, with no meter call; ``distribute`` adds its per-call row and
its per-grant and per-iteration rows times their counts once, after the
drain loop.  The heap adds its own node moves and compares the same way,
the remainder heap's as its inserts would.  The drain pops once per
grant through ``MinHeap.del_min``.  This module owns the heap's key
format: every key, queued or a remainder, is the one int
``demand << USER_BITS | user``, which orders as the ``(demand, user)``
pair does, so each sift compares two ints.  Every grant row is a plain
``(iteration, user, granted, share, capacity_after)`` tuple: the garbage
collector untracks such a tuple of ints, never a tuple subclass.  The
drain adds each grant to the report's per-user allocations only; the
balances take those totals once per user after the loop.
"""

from .clock import _Record
from .costs import CostMeter
from .heap import MinHeap

# Users are 1..n and a scenario has n <= round_span <= epoch_span <=
# sim.MAX_BLOCKS = 2 * 10**6 < 2**21, so 21 bits hold any user id a run
# can have; a key is ``demand << USER_BITS | user``.
USER_BITS = 21
USER_MASK = (1 << USER_BITS) - 1


class DistributionReport(_Record):
    """Everything one distribution did: the per-iteration unit shares,
    one row per individual grant and the per-user totals.  A row is the
    tuple (iteration, user, granted, share, capacity_after), its
    iteration 1-based within the distribution."""

    __slots__ = ("epoch", "shares", "rows", "allocations", "capacity_before",
                 "capacity_after")

    def __init__(self, epoch: int, shares: list = None, rows: list = None,
                 allocations: dict = None, capacity_before: int = 0,
                 capacity_after: int = 0):
        self.epoch = epoch
        self.shares = [] if shares is None else shares
        self.rows = [] if rows is None else rows
        self.allocations = {} if allocations is None else allocations
        self.capacity_before = capacity_before
        self.capacity_after = capacity_after

    @property
    def iterations(self) -> int:
        return len(self.shares)

    def total_granted(self) -> int:
        return sum(self.allocations.values())


class CmfDistributor:
    """Serial state machine holding the demand heap, the capacity pool
    and the user balances."""

    def __init__(self, epoch_capacity: int, meter: CostMeter = None):
        if epoch_capacity < 1:
            raise ValueError("epoch_capacity must be positive")
        self.epoch_capacity = epoch_capacity
        self.capacity = 0
        self.injections = 0  # distributions, each of which topped up the pool
        self.balances: dict = {}
        self._meter = meter if meter is not None else CostMeter()
        self._queue = MinHeap(self._meter)
        # each demanding user's id, keyed by itself: the drain reads the
        # submitted int back, so a grant row holds no decoded copy
        self._demanded: dict = {}

    def register(self) -> None:
        m = self._meter
        m.units += m.paths["register"]  # account bookkeeping

    def submit_demand(self, user: int, amount: int) -> None:
        """Queue one demand for the next distribution.  A user may demand
        once per epoch; zero demands and user ids outside
        ``[0, 2**USER_BITS)`` are rejected outright."""
        if amount < 1:
            raise ValueError("empty demand")
        if not 0 <= user <= USER_MASK:
            raise ValueError(f"user id {user} outside [0, 2**{USER_BITS})")
        key = amount << USER_BITS | user  # a non-int raises here, uncharged
        m = self._meter
        if user in self._demanded:
            m.units += m.paths["submit_repeat"]
            raise ValueError("already demanded")
        self._demanded[user] = user
        m.units += m.paths["submit_accepted"]
        self._queue.insert(key)

    def distribute(self, epoch: int = 0) -> DistributionReport:
        """Run one full distribution; returns the report.  ``epoch`` only
        labels the report rows."""
        self.capacity += self.epoch_capacity
        self.injections += 1
        report = DistributionReport(epoch=epoch,
                                    capacity_before=self.capacity)

        # The drain pops keys in ascending (demand, user) order; subtracting
        # one share's ``cut`` keeps that order and user ids are distinct, so
        # ``rest`` is strictly ascending: the array its inserts into an
        # empty heap would build, charged as they are.
        heap, ids = self._queue, self._demanded
        add_row, allocations = report.rows.append, report.allocations
        c = self.capacity
        iteration = 0
        while len(heap) > 0 and c > 0:
            iteration += 1
            size = len(heap)
            share = 1 if c < size else c // size
            report.shares.append(share)
            cut = share << USER_BITS
            del_min = heap.del_min
            rest = []
            for _ in range(size):
                key = del_min()
                demand = key >> USER_BITS
                user = ids[key & USER_MASK]
                if demand > share:
                    granted = share
                    rest.append(key - cut)
                else:
                    granted = demand
                # clamped by c so the pool can never go negative
                if granted > c:
                    granted = c
                c -= granted
                add_row((iteration, user, granted, share, c))
                allocations[user] = allocations.get(user, 0) + granted
                if c == 0:
                    break
            heap = MinHeap.from_ascending(rest, self._meter)

        balances = self.balances
        for user, granted in allocations.items():
            balances[user] = balances.get(user, 0) + granted
        # depletion discards whatever is left in the heap
        m = self._meter
        self._queue = MinHeap(m)
        self._demanded.clear()
        self.capacity = c
        report.capacity_after = c
        paths = m.paths
        m.units += (paths["distribute"]
                    + iteration * paths["distribute_iteration"]
                    + len(report.rows) * paths["distribute_grant"])
        return report
