"""Abstract per-transaction cost accounting.

Costs are counted in abstract units per primitive (storage reads/writes,
heap node moves, arithmetic, plus a flat per-transaction base) instead of
any chain-specific gas definition.  Only the relative magnitudes matter:
storage writes dwarf reads, reads and heap moves are comparable, and
arithmetic is nearly free.  A block budget caps what a single simulated
transaction may cost before it is flagged infeasible.

``PATH_CHARGES`` is the one table of the contracts' fixed exit paths,
each a (reads, writes, ariths) row of the README's cost model.  A
``CostMeter`` prices that table once, for its model, into ``paths``,
and keeps the two prices of the one variable amount, the heap's
compares (``compare``, one arith) and node moves (``move``).  Every
metered site adds its priced amount to ``units`` itself, with no method
call.  Integer pricing distributes over the sum, so a transaction's
units equal its counts priced at the end.

``cost_report`` sums a run's records as ``RunResult.records`` stores
them: a round's cost column at a time, and its idle blocks as a count.
"""

from .clock import _Record


class CostModel(_Record, frozen=True):
    __slots__ = ("storage_read", "storage_write", "heap_move",
                 "arithmetic_op", "tx_base", "block_budget")

    def __init__(self, storage_read: int = 800, storage_write: int = 5000,
                 heap_move: int = 800, arithmetic_op: int = 5,
                 tx_base: int = 21000, block_budget: int = 8_000_000):
        super().__init__(storage_read, storage_write, heap_move,
                         arithmetic_op, tx_base, block_budget)
        for name in self._fields:
            value = getattr(self, name)
            # bool is an int subclass, but JSON true is not a price
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        if block_budget <= tx_base:
            raise ValueError("block_budget must exceed tx_base")


# exit path -> (reads, writes, ariths); the README's cost model table
# names each row by its key
PATH_CHARGES = {
    "register": (0, 2, 0),
    "update_same_round": (2, 0, 4),
    "update_round_advance": (4, 2, 6),
    "update_epoch_advance": (6, 4, 6),
    "demand_rejected": (1, 0, 1),
    "demand_repeat": (2, 0, 1),
    "demand_first": (4, 6, 2),
    "demand_accepted": (5, 5, 2),
    "claim_unregistered": (1, 0, 1),
    "claim_no_op": (4, 0, 1),
    "claim_repeat": (6, 0, 1),
    "claim_granted": (11, 5, 3),
    "claim_satisfied": (12, 6, 3),
    "submit_empty": (0, 0, 0),
    "submit_repeat": (1, 0, 0),
    "submit_accepted": (1, 1, 0),
    "distribute": (3, 2, 1),
    "distribute_iteration": (0, 0, 2),
    "distribute_grant": (1, 1, 2),
}


class CostMeter:
    """A running total of cost units at one model's prices.  Exit paths
    add their row of ``paths`` to ``units`` themselves, and the heap its
    compares at ``compare`` and its moves at ``move``; the flat
    ``tx_base`` is the caller's to add to each ``total``."""

    __slots__ = ("paths", "units", "compare", "move")

    def __init__(self, model: CostModel = CostModel()):
        read, write = model.storage_read, model.storage_write
        self.compare = arith = model.arithmetic_op
        self.move = model.heap_move
        self.paths = {name: read * reads + write * writes + arith * ariths
                      for name, (reads, writes, ariths)
                      in PATH_CHARGES.items()}
        self.units = 0

    def total(self) -> int:
        """The units added since the last ``total``; zeroes them for the
        next transaction."""
        units = self.units
        self.units = 0
        return units


class ActionStats(_Record):
    __slots__ = ("count", "total")

    def __init__(self, count: int = 0, total: int = 0):
        self.count = count
        self.total = total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class CostSummary(_Record):
    __slots__ = ("by_action", "claim_by_round", "over_budget")

    def __init__(self, by_action: dict = None, claim_by_round: dict = None,
                 over_budget: int = 0):
        # kind -> ActionStats and round -> ActionStats
        self.by_action = {} if by_action is None else by_action
        self.claim_by_round = {} if claim_by_round is None else claim_by_round
        self.over_budget = over_budget

    def mean(self, kind: str) -> float:
        return self.by_action.get(kind, ActionStats()).mean

    def render(self) -> str:
        lines = []
        lines.append(f"{'action':>12} {'count':>8} {'total':>14} {'mean':>12}")
        for kind in sorted(self.by_action):
            st = self.by_action[kind]
            lines.append(f"{kind:>12} {st.count:>8} {st.total:>14} {st.mean:>12.1f}")
        if self.claim_by_round:
            lines.append("claim cost by round:")
            for rnd in sorted(self.claim_by_round):
                st = self.claim_by_round[rnd]
                lines.append(f"{'round ' + str(rnd + 1):>12} {st.count:>8} "
                             f"{st.total:>14} {st.mean:>12.1f}")
        lines.append(f"over-budget transactions: {self.over_budget}")
        return "\n".join(lines)


def cost_report(result) -> CostSummary:
    """Aggregate a run's records (``RunResult.records``) into mean/total
    cost per action kind and, for claims, per round, counting the blocks
    over the scenario's block budget.  A run of no blocks yields an empty
    summary."""
    summary = CostSummary()
    by_action, by_round = summary.by_action, summary.claim_by_round
    budget = result.scenario.cost_model.block_budget
    for rec in result.records:
        if rec.costs:
            count, total = len(rec.costs), sum(rec.costs)
            _add(by_action, rec.action, count, total)
            if rec.action == "claim":
                _add(by_round, rec.round, count, total)
            summary.over_budget += sum(
                stop - start
                for start, stop, over in rec.over_budget(budget) if over)
        if rec.idle:
            _add(by_action, "noop", rec.idle, rec.idle * rec.idle_cost)
    return summary


def _add(stats: dict, key, count: int, total: int):
    # a stats object only for a key not seen before, not per record
    st = stats.get(key)
    if st is None:
        st = stats[key] = ActionStats()
    st.count += count
    st.total += total
