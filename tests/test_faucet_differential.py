"""Differential tests of the faucet's entry points against the ones they
replaced.

``ReferenceFaucet`` keeps ``update_state``, ``demand`` and ``claim`` as
they were before ``demand`` and ``claim`` checked the round themselves:
both called ``update_state`` first, which charged its row on its own.
The faucet now pays the same-round row inside the exit path's one
charge.  Seeded call sequences replay on both faucets, unweighted and
weighted, with the offset clocks of ``test_faucet``, over block gaps of
0, 1, a round, to the next round or epoch and multi-epoch jumps, with
unregistered users, zero and negative amounts, repeats and backward
blocks.  After every call the result, the faucet and account state and
the charged (reads, writes, heap_moves, ariths) must agree; a backward
block must raise ``ValueError`` on both and change nothing.  The
reference keeps its own ``_refresh_share``, which charged the share
refresh as a second row after the advance's; the faucet's
``update_state`` now charges each advance's total once.
"""

import copy
import random
from typing import NamedTuple

import pytest

from fairfaucet.clock import ClockParams, locate
from fairfaucet.faucet import AutonomousFaucet
from meter_counts import add_counts, counting_meter, counts


# The result records and rejection constants the faucet returned before
# its results became plain tuples, verbatim; a plain tuple compares equal
# to the record with the same fields.  ``locate`` returned a
# ``ClockPosition`` before it returned a plain pair.

class ClockPosition(NamedTuple):
    epoch: int
    round: int


class DemandResult(NamedTuple):
    accepted: bool
    reason: str = ""
    weight: int = 0


class ClaimResult(NamedTuple):
    granted: int = 0
    reason: str = ""
    share: int = 0
    floored: bool = False
    satisfied: bool = False


DEMAND_UNREGISTERED = DemandResult(False, "unregistered user")
DEMAND_EMPTY = DemandResult(False, "empty demand")
DEMAND_REPEAT = DemandResult(False, "already demanded this epoch")
CLAIM_UNREGISTERED = ClaimResult(0, "unregistered user")
CLAIM_NO_DEMAND = ClaimResult(0, "no demand from previous epoch")
CLAIM_DEPLETED = ClaimResult(0, "capacity depleted")
CLAIM_SATISFIED = ClaimResult(0, "demand already satisfied")
CLAIM_REPEAT = ClaimResult(0, "already claimed this round")


class ReferenceFaucet(AutonomousFaucet):
    """The entry points as they were, verbatim."""

    def update_state(self, block: int) -> None:
        """Refresh epoch/round from the block number.  An epoch advance
        tops up the capacity pool (once, regardless of how many epochs
        elapsed) and recomputes the unit share; a round advance recomputes
        the share only.  Otherwise a no-op."""
        if block < self._last_block:
            raise ValueError("blocks must be non-decreasing")
        self._last_block = block
        # blocks never go backwards, so epoch and round always equal
        # locate(clock, last block): a block before the end of the
        # current round is still in it
        if block < self._round_end:
            add_counts(self._meter, 2, 0, 4)
            return
        clock = self.clock
        pos = ClockPosition(*locate(clock, block))
        self._round_end = (clock.offset + pos.epoch * clock.epoch_span
                           + (pos.round + 1) * clock.round_span)
        if self.epoch < pos.epoch:
            self.epoch = pos.epoch
            self.round = pos.round
            self.capacity += self.epoch_capacity
            self.injections += 1
            add_counts(self._meter, 4, 4, 4)
        else:
            self.round = pos.round
            add_counts(self._meter, 2, 2, 4)
        self._refresh_share()

    def _refresh_share(self):
        total = self.weight_total[self.epoch % 2]
        add_counts(self._meter, 2, 0, 2)
        if total == 0:
            self.unit_share = 0
        else:
            self.unit_share = (self.capacity * self._scale) // total

    def demand(self, user: int, amount: int, block: int) -> DemandResult:
        """Register a demand for the next epoch.  One demand per user per
        epoch; repeats, zero amounts and unknown users are rejected
        without state changes."""
        self.update_state(block)
        m = self._meter
        i = (self.epoch + 1) % 2
        acct = self.users.get(user)
        if acct is None:
            add_counts(m, 1, 0, 1)
            return DEMAND_UNREGISTERED
        if amount < 1:
            add_counts(m, 1, 0, 1)
            return DEMAND_EMPTY
        if acct.demand_epoch[i] == self.epoch:
            add_counts(m, 2, 0, 1)
            return DEMAND_REPEAT

        acct.cumulative_demand += amount
        precision = self.precision
        weight = (1 if precision is None
                  else precision // acct.cumulative_demand)
        acct.pending[i] = amount
        acct.demand_epoch[i] = self.epoch
        acct.slot_weight[i] = weight
        if self.reset_epoch < self.epoch:
            # first accepted demand of the epoch starts a fresh total
            self.weight_total[i] = weight
            self.reset_epoch = self.epoch
            add_counts(m, 4, 6, 2)
        else:
            self.weight_total[i] += weight
            add_counts(m, 5, 5, 2)
        return DemandResult(True, "", weight)

    def claim(self, user: int, block: int) -> ClaimResult:
        """Claim this round's share of the demand registered last epoch.

        All failure paths are explicit no-ops with a reason.  A passing
        claim grants min(remaining demand, user share, capacity); the user
        share is the unit share scaled by the slot's snapshot weight, with
        a floor of one unit so a live demand always makes progress (the
        floor event is logged)."""
        self.update_state(block)
        m = self._meter
        i = self.epoch % 2
        acct = self.users.get(user)
        if acct is None:
            add_counts(m, 1, 0, 1)
            return CLAIM_UNREGISTERED
        if acct.demand_epoch[i] != self.epoch - 1:
            add_counts(m, 4, 0, 1)
            return CLAIM_NO_DEMAND
        if self.capacity == 0:
            add_counts(m, 4, 0, 1)
            return CLAIM_DEPLETED
        if acct.pending[i] == 0:
            add_counts(m, 4, 0, 1)
            return CLAIM_SATISFIED
        if (acct.last_claim_epoch == self.epoch
                and acct.last_claim_round == self.round):
            add_counts(m, 6, 0, 1)
            return CLAIM_REPEAT
        acct.last_claim_epoch = self.epoch
        acct.last_claim_round = self.round

        share = (self.unit_share * acct.slot_weight[i]) // self._scale
        floored = share < 1
        if floored:
            share = 1
        granted = min(acct.pending[i], share, self.capacity)
        acct.balance += granted
        acct.pending[i] -= granted
        self.capacity -= granted
        satisfied = acct.pending[i] == 0
        if satisfied:
            self.weight_total[i] -= acct.slot_weight[i]
            add_counts(m, 12, 6, 3)
        else:
            add_counts(m, 11, 5, 3)
        return ClaimResult(granted, "", share, floored, satisfied)


# -- replay ------------------------------------------------------------------

CLOCKS = [
    ClockParams(offset=7, epoch_span=12, round_span=3),
    ClockParams(offset=1000, epoch_span=10, round_span=5),
    ClockParams(offset=5, epoch_span=4, round_span=1),
    ClockParams(offset=3, epoch_span=6, round_span=6),
]
# a small precision floors shares and, past 1000 units of lifetime
# demand, gives weight 0
PRECISIONS = [None, 1000]
SEEDS = range(20)
CALLS = 120
USERS = 3


def state(faucet):
    """Everything the faucet holds but its meter."""
    return {k: v for k, v in vars(faucet).items() if k != "_meter"}


def outcome(faucet, op, args):
    """(result, charges) of one call; a ``ValueError`` gives the result
    ("raised", its message)."""
    meter = faucet._meter
    meter.units = 0
    try:
        res = getattr(faucet, op)(*args)
    except ValueError as exc:
        res = ("raised", str(exc))
    return res, counts(meter)


def next_block(rng, clock, block):
    """A block gap of 0 or 1, a round or up to the first block of the next
    round; now and then up to the next epoch or a jump over epochs."""
    span, rs = clock.epoch_span, clock.round_span
    since = block - clock.offset
    if rng.random() < 0.1:
        return block + rng.choice((span - since % span, span, 2 * span,
                                   3 * span + rs - 1))
    return block + rng.choice((0, 0, 1, 1, rs - 1, rs, rs - since % rs))


def calls(rng, clock):
    """A seeded call sequence: (op, args, backward) per call."""
    block = clock.offset
    users = USERS
    last = ("update_state", (block,))
    for _ in range(CALLS):
        roll = rng.random()
        if roll < 0.1:
            # strictly before the faucet's last block
            back = block - rng.randint(1, clock.round_span + 1)
            op = rng.choice(("demand", "claim", "update_state"))
            args = {"demand": (1, 5, back), "claim": (1, back),
                    "update_state": (back,)}[op]
            yield op, args, True
            continue
        if roll < 0.25:
            # the last demand or claim again, in the same block
            yield last + (False,)
            continue
        if roll >= 0.95:
            users += 1
            yield "register", (), False
            continue
        block = next_block(rng, clock, block)
        # user 0 and users past the last registered one are unregistered
        user = (rng.choice((0, users + 1)) if rng.random() < 0.15
                else rng.randint(1, users))
        if roll < 0.5:
            amount = rng.choice((0, -1)) if rng.random() < 0.1 else (
                rng.randint(1, 60))
            last = ("demand", (user, amount, block))
        elif roll < 0.9:
            last = ("claim", (user, block))
        else:
            last = ("update_state", (block,))
        yield last + (False,)


@pytest.mark.parametrize("precision", PRECISIONS,
                         ids=["unweighted", "reciprocal"])
@pytest.mark.parametrize("clock", CLOCKS,
                         ids=lambda c: f"offset{c.offset}")
def test_entry_points_match_the_reference(clock, precision):
    reached = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        capacity = rng.choice((1, 4, 30, 200))
        fast = AutonomousFaucet(clock, capacity, precision, counting_meter())
        ref = ReferenceFaucet(clock, capacity, precision, counting_meter())
        for faucet in (fast, ref):
            for _ in range(USERS):
                faucet.register()
        for step, (op, args, backward) in enumerate(calls(rng, clock)):
            before = copy.deepcopy(state(ref)) if backward else None
            got = outcome(fast, op, args)
            want = outcome(ref, op, args)
            where = (seed, step, op, args)
            assert got == want, where
            # the faucet returns a plain tuple where the reference
            # returned one of its records, equal field for field
            if isinstance(want[0], (DemandResult, ClaimResult)):
                assert type(got[0]) is tuple, where
            else:
                assert type(got[0]) is type(want[0]), where
            assert state(fast) == state(ref), where
            if backward:
                assert want[0][0] == "raised", where
                assert state(ref) == before, where
            if op in ("demand", "claim"):
                reached.add((op, want[0][1]))
    # the sequences reach every exit path of demand and claim
    assert reached == {
        ("demand", ""), ("demand", DEMAND_UNREGISTERED.reason),
        ("demand", DEMAND_EMPTY.reason), ("demand", DEMAND_REPEAT.reason),
        ("claim", ""), ("claim", CLAIM_UNREGISTERED.reason),
        ("claim", CLAIM_NO_DEMAND.reason), ("claim", CLAIM_DEPLETED.reason),
        ("claim", CLAIM_SATISFIED.reason), ("claim", CLAIM_REPEAT.reason),
        ("demand", "blocks must be non-decreasing"),
        ("claim", "blocks must be non-decreasing")}
