"""User-driven max-min faucet with parity-buffered demands (AMF/WAMF).

Demands registered during epoch E become claimable during epoch E+1, one
claim per round.  Per-user demand slots are double-buffered by epoch
parity so the demand being collected never overwrites the demand being
claimed.  Every public entry point first refreshes the epoch/round
counters from the block number; the unit share is recomputed only at
epoch and round boundaries, exactly as a contract would do it.

Each exit path adds its priced row of ``PATH_CHARGES`` (the README's
cost model) to the meter's ``units``, with no meter call; ``demand`` and
``claim`` also pay for the ``update_state`` they start with.  Almost
every transaction lands inside the current round, so ``demand`` and
``claim`` check that themselves: a block in the current round skips the
``update_state`` call, and its same-round row is added with the exit
path's row.  Any other block goes through ``update_state``.

The faucet's one weight setting is ``precision``.  Without one (AMF)
every weight is 1 at scale 1; with one (WAMF) a weight is the
fixed-point reciprocal floor(precision / cumulative demand), so
``precision`` must stay above any user's lifetime demand for weights to
remain non-zero.  The weight captured when a demand is registered is
stored with the slot and used for all additions to and subtractions
from the running weight totals, keeping those totals exact even when
the user's live weight changes in between.  Nothing outside reads the
slots: the referee derives each weight from the run's demands.

The faucet keeps no history of its own.  ``demand`` returns the plain
tuple (accepted, reason, weight) and ``claim`` (granted, reason, share,
floored, satisfied), which build and unpack faster than NamedTuples;
``reason`` is "" unless the call was a rejection or no-op, and each
fixed reason is one shared module-level constant.
"""

from .clock import ClockParams, _Record, locate
from .costs import CostMeter


class UserAccount(_Record):
    __slots__ = ("uid", "balance", "pending", "demand_epoch", "slot_weight",
                 "last_claim_epoch", "last_claim_round", "cumulative_demand")

    def __init__(self, uid: int, balance: int = 0, pending: list = None,
                 demand_epoch: list = None, slot_weight: list = None,
                 last_claim_epoch: int = -1, last_claim_round: int = -1,
                 cumulative_demand: int = 0):
        self.uid = uid
        self.balance = balance
        # parity-indexed circular buffers
        self.pending = [0, 0] if pending is None else pending
        # -2 for never: -1 would pass as a demand from "epoch 0 - 1"
        self.demand_epoch = [-2, -2] if demand_epoch is None else demand_epoch
        self.slot_weight = [0, 0] if slot_weight is None else slot_weight
        self.last_claim_epoch = last_claim_epoch
        self.last_claim_round = last_claim_round
        self.cumulative_demand = cumulative_demand


DEMAND_UNREGISTERED = (False, "unregistered user", 0)
DEMAND_EMPTY = (False, "empty demand", 0)
DEMAND_REPEAT = (False, "already demanded this epoch", 0)
CLAIM_UNREGISTERED = (0, "unregistered user", 0, False, False)
CLAIM_NO_DEMAND = (0, "no demand from previous epoch", 0, False, False)
CLAIM_DEPLETED = (0, "capacity depleted", 0, False, False)
CLAIM_SATISFIED = (0, "demand already satisfied", 0, False, False)
CLAIM_REPEAT = (0, "already claimed this round", 0, False, False)


class AutonomousFaucet:
    """Serial faucet state machine; all mutations happen inside simulated
    transactions applied in block order."""

    def __init__(self, clock: ClockParams, epoch_capacity: int,
                 precision: int = None, meter: CostMeter = None):
        if epoch_capacity < 1:
            raise ValueError("epoch_capacity must be positive")
        if precision is not None and precision < 1:
            raise ValueError("precision must be positive")
        self.clock = clock
        self.epoch_capacity = epoch_capacity
        self.precision = precision
        self.capacity = 0
        self.epoch = 0
        self.round = 0
        self.unit_share = 0
        self.weight_total = [0, 0]
        self.reset_epoch = -1
        self.users: dict = {}
        self.injections = 0  # epoch boundaries that topped up the pool
        self._meter = meter if meter is not None else CostMeter()
        self._last_block = clock.offset
        self._round_end = clock.offset + clock.round_span
        # unweighted mode degenerates to weight 1 at scale 1
        self._scale = 1 if precision is None else precision

    # -- bookkeeping ------------------------------------------------------

    def register(self) -> int:
        """Create a zero-initialized account; ids are assigned in call
        order starting at 1."""
        uid = len(self.users) + 1
        self.users[uid] = UserAccount(uid)
        m = self._meter
        m.units += m.paths["register"]
        return uid

    def final_balances(self) -> dict:
        return {uid: acct.balance for uid, acct in sorted(self.users.items())}

    # -- the three contract functions -------------------------------------

    def update_state(self, block: int) -> None:
        """Refresh epoch/round from the block number.  An epoch advance
        tops up the capacity pool (once, regardless of how many epochs
        elapsed) and recomputes the unit share; a round advance recomputes
        the share only.  Otherwise a no-op.  ``demand`` and ``claim`` take
        the same-round path themselves and must stay in step with it."""
        if block < self._last_block:
            raise ValueError("blocks must be non-decreasing")
        self._last_block = block
        # blocks never go backwards, so epoch and round always equal
        # locate(clock, last block): a block before the end of the
        # current round is still in it
        m = self._meter
        if block < self._round_end:
            m.units += m.paths["update_same_round"]
            return
        clock = self.clock
        epoch, rnd = locate(clock, block)
        self._round_end = (clock.offset + epoch * clock.epoch_span
                           + (rnd + 1) * clock.round_span)
        # each advance's row includes the share refresh below
        if self.epoch < epoch:
            self.epoch = epoch
            self.round = rnd
            self.capacity += self.epoch_capacity
            self.injections += 1
            m.units += m.paths["update_epoch_advance"]
        else:
            self.round = rnd
            m.units += m.paths["update_round_advance"]
        total = self.weight_total[self.epoch % 2]
        if total == 0:
            self.unit_share = 0
        else:
            self.unit_share = (self.capacity * self._scale) // total

    def demand(self, user: int, amount: int, block: int) -> tuple:
        """Register a demand for the next epoch.  One demand per user per
        epoch; repeats, zero amounts and unknown users are rejected
        without state changes."""
        # the same-round path of update_state, paid with the exit's row
        m = self._meter
        paths = m.paths
        if self._last_block <= block < self._round_end:
            self._last_block = block
            same = paths["update_same_round"]
        else:
            self.update_state(block)
            same = 0
        epoch = self.epoch
        i = (epoch + 1) % 2
        acct = self.users.get(user)
        if acct is None:
            m.units += same + paths["demand_rejected"]
            return DEMAND_UNREGISTERED
        if amount < 1:
            m.units += same + paths["demand_rejected"]
            return DEMAND_EMPTY
        if acct.demand_epoch[i] == epoch:
            m.units += same + paths["demand_repeat"]
            return DEMAND_REPEAT

        acct.cumulative_demand += amount
        precision = self.precision
        weight = (1 if precision is None
                  else precision // acct.cumulative_demand)
        acct.pending[i] = amount
        acct.demand_epoch[i] = epoch
        acct.slot_weight[i] = weight
        if self.reset_epoch < epoch:
            # first accepted demand of the epoch starts a fresh total
            self.weight_total[i] = weight
            self.reset_epoch = epoch
            m.units += same + paths["demand_first"]
        else:
            self.weight_total[i] += weight
            m.units += same + paths["demand_accepted"]
        return True, "", weight

    def claim(self, user: int, block: int) -> tuple:
        """Claim this round's share of the demand registered last epoch.

        All failure paths are explicit no-ops with a reason.  A passing
        claim grants min(remaining demand, user share, capacity); the user
        share is the unit share scaled by the slot's snapshot weight, with
        a floor of one unit so a live demand always makes progress (the
        result's ``floored`` field marks it)."""
        # the same-round path of update_state, paid with the exit's row
        m = self._meter
        paths = m.paths
        if self._last_block <= block < self._round_end:
            self._last_block = block
            same = paths["update_same_round"]
        else:
            self.update_state(block)
            same = 0
        epoch = self.epoch
        i = epoch % 2
        acct = self.users.get(user)
        if acct is None:
            m.units += same + paths["claim_unregistered"]
            return CLAIM_UNREGISTERED
        if acct.demand_epoch[i] != epoch - 1:
            m.units += same + paths["claim_no_op"]
            return CLAIM_NO_DEMAND
        capacity = self.capacity
        if capacity == 0:
            m.units += same + paths["claim_no_op"]
            return CLAIM_DEPLETED
        pending = acct.pending[i]
        if pending == 0:
            m.units += same + paths["claim_no_op"]
            return CLAIM_SATISFIED
        rnd = self.round
        if acct.last_claim_epoch == epoch and acct.last_claim_round == rnd:
            m.units += same + paths["claim_repeat"]
            return CLAIM_REPEAT
        acct.last_claim_epoch = epoch
        acct.last_claim_round = rnd

        weight = acct.slot_weight[i]
        share = (self.unit_share * weight) // self._scale
        floored = share < 1
        if floored:
            share = 1
        # min(pending, share, capacity)
        granted = pending if pending < share else share
        if capacity < granted:
            granted = capacity
        acct.balance += granted
        pending -= granted
        acct.pending[i] = pending
        self.capacity = capacity - granted
        satisfied = pending == 0
        if satisfied:
            self.weight_total[i] -= weight
            m.units += same + paths["claim_satisfied"]
        else:
            m.units += same + paths["claim_granted"]
        return granted, "", share, floored, satisfied
