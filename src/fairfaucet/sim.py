"""Deterministic instant-seal chain simulator.

Every transaction occupies its own block, so the block number doubles as
a transaction counter.  A scenario describes one experiment: the
algorithm variant, the user count, the epoch geometry, the demand stream
(seeded PRNG or scripted amounts) and the cost model.  Running a scenario
replays the canonical block schedule, which all three variants share:

  epoch 0:   one registration block per user, filler blocks, then one
             demand block per user in the last round;
  epoch e>0: one claim block per user in every round but the last
             (CMF instead runs a single authority distribute block at the
             epoch boundary), then one demand block per user in the last
             round.

``run_scenario`` walks that schedule one round at a time and knows only
its geometry.  A small adapter per design (autonomous for AMF/WAMF,
central for CMF) runs a round's transactions in its first blocks, in one
loop that also records each of them; the rest of the round is idle.  The
designs differ only in their claim rounds: AMF/WAMF users claim in each,
CMF's authority distributes in the first.  A run keeps one
``RoundRecord`` per stretch of a round, not one per block: the round's
position and action once, a column per varying field of its busy
blocks, and its idle blocks as a count, in ``RunResult.records``.  A
block's number and over_budget flag are derived, from the stretch's
first block and from its cost.  ``RunResult.trace`` and ``.receipts``
are one view, for outside readers, making a ``TraceRow`` per block as it
is iterated.  ``trace.csv`` and ``receipts.csv`` render the records run
by run: a run is a record's busy blocks on one side of the block budget,
whose shared fields each CSV formats once, or its idle blocks.
An idle block is a no-op that costs ``tx_base`` and leaves the pool as
it was.  An epoch summary's demands are the demand plan's, not the ones
the pool accepted, so ``verify`` catches a pool that wrongly rejects a
demand.  Equal summaries and equal costs within a run are one shared
object each.  Identical scenarios produce bit-identical records.
"""

import json
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .clock import ClockParams, _Record, locate
from .cmf import CmfDistributor
from .costs import CostMeter, CostModel
from .faucet import AutonomousFaucet

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

VARIANTS = ("CMF", "AMF", "WAMF")

AUTHORITY = 0  # actor id for distribute and filler transactions


class ScenarioError(ValueError):
    pass


def next_demand(state: int, lo: int, hi: int):
    """Advance the splitmix64 counter and draw an amount in [lo, hi).

    The generator is pinned bit-for-bit: counter increment by the 64-bit
    golden gamma, then the xor-shift/multiply finalizer.
    """
    if hi <= lo:
        raise ScenarioError("demand range is empty")
    if lo < 1:
        raise ScenarioError("demand range must start at 1 or above")
    state = (state + _GAMMA) & MASK64
    z = state
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return state, lo + (z % (hi - lo))


def _require_int(name, value):
    # bool is an int subclass, but JSON true is not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")


# The most blocks a run may ask for; it admits WAMF at n = 10**5 (1.6 *
# 10**6 blocks).  A run keeps its records, about 77 B per block, until it
# returns, plus a CSV's text while it renders: WAMF at n = 20000 (320,000
# blocks) keeps 25 MB (tracemalloc, after run_scenario), peaks at 76 MB
# RSS and takes about 0.95 s to run, verify and render (one process, one
# run on a shared host), so the limit costs about 155 MB of records and 6 s.
# Revisit it once records stream.
MAX_BLOCKS = 2_000_000


class Scenario(_Record, frozen=True):
    """Declarative experiment description.  Geometry left out (or None)
    takes the benchmark parameterization, which scales with n: capacity
    20n, epoch span 4n, round span n; at n = 0 it must be given.
    ``scripted_demands`` (one row per epoch, one entry per user, None
    meaning no demand) replaces the PRNG stream entirely when present;
    epochs beyond the scripted rows get no demands.  The constructor
    checks every value, and rejects a run of more than ``MAX_BLOCKS``
    blocks before any of it runs."""

    __slots__ = ("variant", "n", "epoch_capacity", "epoch_span",
                 "round_span", "demand_lo", "demand_hi", "epochs", "seed",
                 "precision", "cost_model", "scripted_demands")

    def __init__(self, variant: str, n: int, epoch_capacity: int = None,
                 epoch_span: int = None, round_span: int = None,
                 demand_lo: int = 10, demand_hi: int = 30, epochs: int = 4,
                 seed: int = 0, precision: int = 10 ** 9,
                 cost_model: CostModel = CostModel(),  # frozen, so shared
                 scripted_demands: tuple = None):
        _require_int("n", n)  # before the geometry that scales with it
        geometry = (epoch_capacity, epoch_span, round_span)
        if n == 0 and None in geometry:
            left_out = ", ".join(name for name, value in zip(
                self._fields[2:5], geometry) if value is None)
            raise ScenarioError(f"n = 0 scales the left-out {left_out} to 0; "
                                f"a run without users needs its geometry "
                                f"given")
        if epoch_capacity is None:
            epoch_capacity = 20 * n
        if epoch_span is None:
            epoch_span = 4 * n
        if round_span is None:
            round_span = n
        super().__init__(variant, n, epoch_capacity, epoch_span, round_span,
                         demand_lo, demand_hi, epochs, seed, precision,
                         cost_model, scripted_demands)
        if self.variant not in VARIANTS:
            raise ScenarioError(f"unknown variant {self.variant!r}")
        for name in self._fields[1:-2]:  # the counts, n to precision
            _require_int(name, getattr(self, name))
        if not isinstance(self.cost_model, CostModel):
            raise ScenarioError("cost_model must be a CostModel")
        if self.n < 0:
            raise ScenarioError("n must be >= 0")
        if self.epochs < 0:
            raise ScenarioError("epochs must be >= 0")
        if self.epoch_capacity < 1:
            raise ScenarioError("epoch_capacity must be positive")
        try:
            clock = ClockParams(0, self.epoch_span, self.round_span)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if clock.rounds_per_epoch < 2:
            raise ScenarioError("need at least two rounds per epoch "
                                "(claims plus a demand window)")
        if self.round_span < self.n:
            raise ScenarioError("round_span must be >= n so every user "
                                "gets a block per round")
        # at least one epoch's worth, as a run of no epochs still builds a
        # balance per user and n <= round_span <= epoch_span
        blocks = max(self.epochs, 1) * self.epoch_span
        if blocks > MAX_BLOCKS:
            raise ScenarioError(f"the run needs {blocks} blocks, more than "
                                f"the limit of {MAX_BLOCKS}")
        if self.demand_lo < 1 or self.demand_hi <= self.demand_lo:
            raise ScenarioError("demand range must satisfy 1 <= lo < hi")
        if not (0 <= self.seed <= MASK64):
            raise ScenarioError("seed must fit in 64 bits")
        if self.precision < 1:
            raise ScenarioError("precision must be positive")
        rows = self.scripted_demands
        if rows is not None:
            if (not isinstance(rows, (list, tuple))
                    or not all(isinstance(row, (list, tuple)) for row in rows)):
                raise ScenarioError("scripted_demands must be a list of rows")
            object.__setattr__(self, "scripted_demands",
                               tuple(map(tuple, rows)))
            for row in self.scripted_demands:
                if len(row) > self.n:
                    raise ScenarioError("scripted demand row longer than n")
                for a in row:
                    if a is not None and (isinstance(a, bool)
                                          or not isinstance(a, int) or a < 1):
                        raise ScenarioError("scripted demands must be "
                                            "positive integers or null")
        if self.variant == "WAMF" and self.precision <= self._worst_cumulative():
            raise ScenarioError("precision must exceed the worst-case "
                                "cumulative demand per user")

    def _worst_cumulative(self) -> int:
        if self.scripted_demands is not None:
            worst = 0
            rows = self.scripted_demands[:self.epochs]  # the rows that run
            for k in range(self.n):
                worst = max(worst, sum(row[k] or 0 for row in rows
                                       if k < len(row)))
            return worst
        return self.epochs * (self.demand_hi - 1)

    @property
    def clock(self) -> ClockParams:
        return ClockParams(0, self.epoch_span, self.round_span)

    def with_n(self, n: int):
        """Rescale to a different user count, rederiving the geometry that
        scales with it."""
        return self._replace(n=n, epoch_capacity=None, epoch_span=None,
                             round_span=None)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its JSON object, whose keys are the
    constructor's: omitted or null geometry takes the benchmark
    parameterization, and the constructor checks every value."""
    if not isinstance(data, dict):
        raise ScenarioError("a scenario must be a JSON object")
    unknown = data.keys() - Scenario._fields
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    if "variant" not in data or "n" not in data:
        raise ScenarioError("scenario requires 'variant' and 'n'")
    kwargs = dict(data)
    model = kwargs.pop("cost_model", None)
    if model is not None:
        if not isinstance(model, dict):
            raise ScenarioError("cost_model must be a JSON object")
        try:
            kwargs["cost_model"] = CostModel(**model)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad cost_model: {exc}") from exc
    return Scenario(**kwargs)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    # bad JSON, or an int or a nesting past CPython's limits
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
    return scenario_from_dict(data)


class TraceRow(NamedTuple):
    block: int
    epoch: int
    round: int
    actor: int
    action: str
    amount: int
    share: int
    capacity: int
    cost: int
    over_budget: bool
    summary: str = ""  # the outcome, as receipts.csv shows it
    # the action under its receipt name: register | demand | claim |
    # distribute | noop
    kind = property(itemgetter(4))


class RoundRecord(_Record):
    """A stretch of one round's blocks, from block ``first``: one busy
    block per entry of the columns, each a transaction of ``action``,
    then ``idle`` no-op blocks.  A busy block's over_budget is its cost
    above the block budget.  An idle block's row is ``AUTHORITY``'s no-op
    of amount 0 with the idle share, capacity and cost; the model keeps
    that cost below the budget."""

    # the columns hold ints but the summaries' strs; ``actors`` is
    # range(1, n + 1) when every user acts
    __slots__ = ("first", "epoch", "round", "action", "actors", "amounts",
                 "shares", "capacities", "costs", "summaries", "idle",
                 "idle_share", "idle_capacity", "idle_cost")

    def __init__(self, first: int, epoch: int, round: int, action: str,
                 actors, amounts, shares, capacities, costs, summaries,
                 idle: int = 0, idle_share: int = 0, idle_capacity: int = 0,
                 idle_cost: int = 0):
        super().__init__(first, epoch, round, action, actors, amounts,
                         shares, capacities, costs, summaries, idle,
                         idle_share, idle_capacity, idle_cost)

    def over_budget(self, budget: int):
        """The busy blocks in stretches on one side of ``budget``, as
        (start, stop, over_budget) column slices."""
        costs = self.costs
        if not costs:
            return ()
        if max(costs) <= budget:
            return ((0, len(costs), False),)
        stretches, start = [], 0
        for over, group in groupby(map(budget.__lt__, costs)):
            stop = start + len(list(group))
            stretches.append((start, stop, over))
            start = stop
        return stretches


class EpochSummary(_Record):
    """What one claim epoch distributed, plus the matching allocation
    problem (demands from the previous epoch and the capacity in force
    when claims began)."""

    __slots__ = ("epoch", "demands", "capacity_start", "granted",
                 "capacity_end")

    def __init__(self, epoch: int, demands: dict, capacity_start: int,
                 granted: dict = None, capacity_end: int = 0):
        self.epoch = epoch
        self.demands = demands
        self.capacity_start = capacity_start
        self.granted = {} if granted is None else granted
        self.capacity_end = capacity_end

    @property
    def unsatisfied(self) -> int:
        return sum(self.demands.values()) - sum(self.granted.values())

    @property
    def depleted(self) -> bool:
        return self.capacity_end == 0 and self.unsatisfied > 0

    @property
    def incomplete(self) -> bool:
        # a further claim round would have granted more
        return self.capacity_end > 0 and self.unsatisfied > 0


class TraceView:
    """A run's records read as ``TraceRow``s, one per block, each made as
    it is iterated: ``len`` and iteration only.  The package reads
    ``RunResult.records``."""

    __slots__ = ("records", "budget")

    def __init__(self, records: list, budget: int):
        self.records = records
        self.budget = budget

    def __len__(self) -> int:
        return sum(len(rec.costs) + rec.idle for rec in self.records)

    def __iter__(self):
        for rec in self.records:
            first, epoch, rnd, action = (rec.first, rec.epoch, rec.round,
                                         rec.action)
            for start, stop, over in rec.over_budget(self.budget):
                for i in range(start, stop):
                    yield TraceRow(first + i, epoch, rnd, rec.actors[i],
                                   action, rec.amounts[i], rec.shares[i],
                                   rec.capacities[i], rec.costs[i], over,
                                   rec.summaries[i])
            start = first + len(rec.costs)
            for block in range(start, start + rec.idle):
                yield TraceRow(block, epoch, rnd, AUTHORITY, "noop", 0,
                               rec.idle_share, rec.idle_capacity,
                               rec.idle_cost, False, "")


class RunResult(_Record):
    __slots__ = ("scenario", "records", "balances", "reports",
                 "epoch_summaries", "final_capacity", "injected")

    def __init__(self, scenario: Scenario, records: list, balances: dict,
                 reports: list, epoch_summaries: list, final_capacity: int,
                 injected: int):
        self.scenario = scenario
        self.records = records  # RoundRecords, in block order
        self.balances = balances
        self.reports = reports  # CMF distribution reports
        self.epoch_summaries = epoch_summaries
        self.final_capacity = final_capacity
        self.injected = injected

    @property
    def trace(self) -> TraceView:
        return TraceView(self.records, self.scenario.cost_model.block_budget)

    receipts = trace  # each block's row is also its receipt

    def conservation_ok(self) -> bool:
        return sum(self.balances.values()) + self.final_capacity == self.injected


def _demand_plan(sc: Scenario):
    """Amount each user demands in each epoch (None = no demand)."""
    plan = []
    if sc.scripted_demands is not None:
        for e in range(sc.epochs):
            row = sc.scripted_demands[e] if e < len(sc.scripted_demands) else ()
            plan.append([row[k] if k < len(row) else None
                         for k in range(sc.n)])
        return plan
    lo, hi = sc.demand_lo, sc.demand_hi
    state = sc.seed
    for _ in range(sc.epochs):
        row = []
        for _ in range(sc.n):
            state, amount = next_demand(state, lo, hi)
            row.append(amount)
        plan.append(row)
    return plan


# A variant adapter runs a scenario's transactions on its state machine
# (``pool``, which has a ``capacity``) and records them.  Each round
# method runs the round's busy blocks and returns how many it ran: per
# block, one contract call and one ``total`` for the transaction's cost,
# whose fields it appends to the columns of the round's record.  ``base``
# is the block before the round's first, so user u acts in block
# base + u, and ``at`` is the round's (epoch, round) position.  The
# adapter records grants in the per-epoch dicts; the pool counts its own
# top-ups, in ``injections``.  Equal summaries and equal costs come from
# per-run tables keyed by their values: each is made once and is one
# object.

class _Table(dict):
    """Value per key, made by ``make(key)`` the first time the key is
    looked up and shared by every later lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _stretches(amounts):
    """Users 1..n in stretches of those who demand and those who do not,
    in order: (demands, users) each, ``users`` a range."""
    n = len(amounts)
    cuts = []
    if None in amounts:  # only scripted demands leave a user out
        cuts = [u for u in range(1, n)
                if (amounts[u - 1] is None) is not (amounts[u] is None)]
    bounds = [0, *cuts, n]
    return [(amounts[lo] is not None, range(lo + 1, hi + 1))
            for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


class _Adapter:
    """The per-run state the round loops share: the records, the meter,
    the cost of a transaction by its metered units (``tx_base`` plus
    them), and what the run granted and reported; the register round and
    the no-op blocks, which both designs run alike; and the demand round,
    in stretches of users who demand and users who do not."""

    def __init__(self, sc):
        model = sc.cost_model
        self.n = sc.n
        self.meter = CostMeter(model)
        self.tx_base = model.tx_base
        self.costs = _Table(self.tx_base.__add__)
        # a no-op adds no units and costs tx_base itself, as idle blocks do
        self.costs[0] = self.tx_base
        self.records = []
        self.grants = [{} for _ in range(sc.epochs)]  # epoch -> user -> amount
        self.reports = []

    def record(self, first, at, action, actors, amounts, shares, capacities,
               costs, summaries):
        self.records.append(RoundRecord(first, *at, action, actors, amounts,
                                        shares, capacities, costs, summaries))

    def idle(self, first, at, count):
        """``count`` idle blocks from ``first``: they leave the pool as it
        was, with the share and capacity in force now."""
        self.records.append(RoundRecord(
            first, *at, "noop", (), (), (), (), (), (), count,
            self.idle_share(), self.pool.capacity, self.tx_base))

    def register(self, base, at):
        pool, register = self.pool, self.pool.register
        priced, cost_of = self.meter.total, self.costs
        users = range(1, self.n + 1)
        capacities, costs = [], []
        add_capacity, add_cost = capacities.append, costs.append
        for _ in users:
            register()  # both pools number users 1..n in call order
            add_capacity(pool.capacity)
            add_cost(cost_of[priced()])
        zeros = [0] * self.n
        self.record(base + 1, at, "register", users, zeros, zeros, capacities,
                    costs, [f"user={user}" for user in users])
        return self.n

    def demand(self, amounts, base, at):
        for demands, users in _stretches(amounts):
            (self.demands if demands else self.noops)(users, amounts, base, at)
        return self.n

    def noops(self, users, plan, base, at):
        """A no-op for each user in ``users``, who demand nothing: each
        takes its block and is priced as a transaction."""
        k = len(users)
        costs = [self.costs[self.meter.total()] for _ in users]
        self.record(base + users.start, at, "noop", (AUTHORITY,) * k, (0,) * k,
                    (self.idle_share(),) * k, (self.pool.capacity,) * k,
                    costs, ("",) * k)


class _Autonomous(_Adapter):
    """AMF/WAMF over ``AutonomousFaucet``: users claim their share
    themselves in every round of an epoch but the last."""

    def __init__(self, sc):
        super().__init__(sc)
        # only WAMF weighs demands; AMF's weights are all 1
        precision = sc.precision if sc.variant == "WAMF" else None
        self.pool = AutonomousFaucet(sc.clock, sc.epoch_capacity, precision,
                                     self.meter)
        self.rejected = _Table("rejected: %s".__mod__)
        self.accepted = {}  # weight -> amount -> text
        self.granted = _Table("granted=%d".__mod__)
        self.floored = _Table("granted=%d floor1".__mod__)
        self.no_op = _Table("no-op: %s".__mod__)

    def balances(self) -> dict:
        return self.pool.final_balances()

    def idle_share(self):
        return self.pool.unit_share

    def demands(self, users, plan, base, at):
        pool, demand, accepted = self.pool, self.pool.demand, self.accepted
        priced, cost_of = self.meter.total, self.costs
        amounts, capacities, costs, summaries = [], [], [], []
        add_amount, add_capacity, add_cost, add_summary = (
            amounts.append, capacities.append, costs.append, summaries.append)
        for user in users:
            amount = plan[user - 1]
            ok, reason, weight = demand(user, amount, base + user)
            if ok:
                # plain nested dicts: a tuple key per text or a table
                # object per weight would add GC-tracked objects that
                # live as long as the run
                texts = accepted.get(weight)
                if texts is None:
                    texts = accepted[weight] = {}
                summary = texts.get(amount)
                if summary is None:
                    summary = texts[amount] = (f"amount={amount} "
                                               f"weight={weight}")
            else:
                amount, summary = 0, self.rejected[reason]
            add_amount(amount)
            add_capacity(pool.capacity)
            add_cost(cost_of[priced()])
            add_summary(summary)
        self.record(base + users.start, at, "demand", users, amounts,
                    [0] * len(users), capacities, costs, summaries)

    def claim_round(self, base, at):
        pool, claim, grants = self.pool, self.pool.claim, self.grants[at[0]]
        granted_text, floored_text, no_op = (self.granted, self.floored,
                                             self.no_op)
        priced, cost_of = self.meter.total, self.costs
        users = range(1, self.n + 1)
        amounts, shares, capacities, costs, summaries = [], [], [], [], []
        add_amount, add_share, add_capacity, add_cost, add_summary = (
            amounts.append, shares.append, capacities.append, costs.append,
            summaries.append)
        for user in users:
            granted, reason, share, floored, _ = claim(user, base + user)
            if granted:
                grants[user] = grants.get(user, 0) + granted
                summary = (floored_text if floored else granted_text)[granted]
            else:
                summary = no_op[reason]
            add_amount(granted)
            add_share(share)
            add_capacity(pool.capacity)
            add_cost(cost_of[priced()])
            add_summary(summary)
        self.record(base + 1, at, "claim", users, amounts, shares, capacities,
                    costs, summaries)
        return self.n


class _Central(_Adapter):
    """CMF over ``CmfDistributor``: the authority distributes in the first
    block of every epoch after the first; users never claim."""

    def __init__(self, sc):
        super().__init__(sc)
        self.pool = CmfDistributor(sc.epoch_capacity, self.meter)
        self.accepted = _Table("amount=%d".__mod__)
        self.distributed = _Table("granted=%d iterations=%d".__mod__)

    def balances(self) -> dict:
        return {u: self.pool.balances.get(u, 0) for u in range(1, self.n + 1)}

    def idle_share(self):
        return 0

    def demands(self, users, plan, base, at):
        pool, submit, accepted = (self.pool, self.pool.submit_demand,
                                  self.accepted)
        priced, cost_of = self.meter.total, self.costs
        amounts = plan[users.start - 1:users.stop - 1]
        capacities, costs, summaries = [], [], []
        add_capacity, add_cost, add_summary = (
            capacities.append, costs.append, summaries.append)
        for user, amount in zip(users, amounts):
            submit(user, amount)
            add_capacity(pool.capacity)
            add_cost(cost_of[priced()])
            add_summary(accepted[amount])
        self.record(base + users.start, at, "demand", users, amounts,
                    [0] * len(users), capacities, costs, summaries)

    def claim_round(self, base, at):
        epoch, rnd = at
        if rnd > 0:  # the first round's distribute served the epoch
            return 0
        report = self.pool.distribute(epoch=epoch)
        self.reports.append(report)
        self.grants[epoch] = report.allocations  # uncopied
        total = report.total_granted()
        self.record(base + 1, at, "distribute", (AUTHORITY,), (total,), (0,),
                    (self.pool.capacity,), (self.costs[self.meter.total()],),
                    (self.distributed[total, report.iterations],))
        return 1


def run_scenario(sc: Scenario) -> RunResult:
    """Execute a scenario round by round.  Returns the records of every
    block, the final balances and per-epoch summaries suitable for oracle
    verification."""
    clock = sc.clock
    adapter = (_Central if sc.variant == "CMF" else _Autonomous)(sc)
    pool, grants = adapter.pool, adapter.grants
    plan = _demand_plan(sc)
    rounds = clock.rounds_per_epoch
    summaries = []
    injections = capacity_end = 0

    for epoch in range(sc.epochs):
        for rnd in range(rounds):
            round_start = epoch * sc.epoch_span + rnd * sc.round_span
            at = locate(clock, round_start)
            base = round_start - 1
            # the round's transaction runs in its first ``busy`` blocks
            if epoch == 0 and rnd == 0:
                busy = adapter.register(base, at)
            elif rnd == rounds - 1:
                busy = adapter.demand(plan[epoch], base, at)
            elif epoch > 0:
                busy = adapter.claim_round(base, at)
            else:  # nothing was demanded before epoch 0
                busy = 0
            if busy < sc.round_span:
                adapter.idle(round_start + busy, at, sc.round_span - busy)
        # an epoch with a top-up is a claim epoch: CMF tops up in its
        # distribute block even without users, AMF only on a transaction
        if pool.injections > injections:
            demands = {user: amount
                       for user, amount in enumerate(plan[epoch - 1], 1)
                       if amount is not None}
            summaries.append(EpochSummary(
                epoch=epoch, demands=demands,
                capacity_start=capacity_end + sc.epoch_capacity,
                granted=grants[epoch], capacity_end=pool.capacity))
        injections = pool.injections
        capacity_end = pool.capacity

    return RunResult(scenario=sc, records=adapter.records,
                     balances=adapter.balances(), reports=adapter.reports,
                     epoch_summaries=summaries, final_capacity=pool.capacity,
                     injected=injections * sc.epoch_capacity)


# -- CSV rendering ---------------------------------------------------------
#
# Each CSV is a stream of chunks: the header line, then its rows CHUNK at
# a time, each chunk one string.  ``fairfaucet run`` writes the chunks of
# ``trace_chunks`` and its siblings as they come; ``trace_csv`` and its
# siblings join them, and peak at about twice the text's length.
#
# trace.csv and receipts.csv render run by run.  A run is a stretch of
# rows that share fields: a record's busy blocks on one side of the block
# budget, or its idle blocks.  Those go into the run's row format as
# text, once per run, so each row formats only its own fields, which the
# run holds as columns: the blocks as a range, then for busy blocks the
# record's columns, sliced to the run.  ``_chunks`` cuts the runs into
# chunks and formats GROUP rows per % call, from GROUP copies of the row
# format and every GROUP-th entry of each column; a piece's last rows,
# fewer than GROUP, take one call each.  balances.csv and
# distributions.csv format each row whole: a CMF report's grant rows
# already hold the file's fields after the epoch, in order.
# %s writes an int as %d does, only faster.

CHUNK = 1024  # rows per chunk
GROUP = 8  # rows per % call

# a layout takes a run's epoch, round, action and over_budget (as 0 or
# 1); %%s stays %s, for a row's own fields: its block, then the columns
_TRACE = ("%%s,%s,%s,%%s,%s,%%s,%%s,%%s,%%s,%d\n",
          attrgetter("actors", "amounts", "shares", "capacities", "costs"))
_RECEIPT = ("%%s,%s,%s,%s,%%s,%%s,%d,%%s\n",
            attrgetter("actors", "costs", "summaries"))


def _chunks(runs):
    """Join the rows of ``runs``, each a row format and the columns of its
    rows' arguments to it, into chunks of CHUNK rows, the last chunk
    fewer."""
    text, room = [], CHUNK  # room: the rows the chunk has yet to take
    for line, columns in runs:
        group = (line * GROUP).__mod__
        start, size = 0, len(columns[0])
        while start < size:
            stop = min(start + room, size)
            full = stop - (stop - start) % GROUP
            text.extend(map(group, zip(*[
                column[start + j:full:GROUP]
                for j in range(GROUP) for column in columns])))
            text.extend(map(line.__mod__,
                            zip(*[column[full:stop] for column in columns])))
            room -= stop - start
            start = stop
            if not room:
                yield "".join(text)
                text, room = [], CHUNK
    if text:
        yield "".join(text)


def _record_runs(result, layout, own):
    """The runs of a result's records, in block order, for a file whose
    row format is ``layout`` and whose own fields are the block and the
    ``own`` columns."""
    budget = result.scenario.cost_model.block_budget
    for rec in result.records:
        first, columns = rec.first, own(rec)
        shared = rec.epoch, rec.round, rec.action.replace("%", "%%")
        for start, stop, over in rec.over_budget(budget):
            part = (columns if stop - start == len(rec.costs)
                    else [column[start:stop] for column in columns])
            yield (layout % (*shared, over),
                   (range(first + start, first + stop), *part))
        if rec.idle:
            # the idle row's fields under the columns' names
            row = rec._replace(actors=AUTHORITY, amounts=0,
                               shares=rec.idle_share,
                               capacities=rec.idle_capacity,
                               costs=rec.idle_cost, summaries="")
            line = layout % (rec.epoch, rec.round, "noop", False)
            start = first + len(rec.costs)
            yield line % ("%s", *own(row)), (range(start, start + rec.idle),)


def _row_chunks(line, rows):
    """``rows``, each formatted whole by ``line``, CHUNK at a time."""
    row = line.__mod__
    for i in range(0, len(rows), CHUNK):
        yield "".join(map(row, rows[i:i + CHUNK]))


def trace_chunks(result: RunResult):
    yield "block,epoch,round,actor,action,amount,share,capacity,cost,over_budget\n"
    yield from _chunks(_record_runs(result, *_TRACE))


def receipts_chunks(result: RunResult):
    yield "block,epoch,round,action,actor,cost,over_budget,summary\n"
    yield from _chunks(_record_runs(result, *_RECEIPT))


def balances_chunks(result: RunResult):
    yield "user,balance\n"
    yield from _row_chunks("%s,%s\n", sorted(result.balances.items()))


def distributions_chunks(result: RunResult):
    yield "epoch,iteration,user,allocated,share,remaining_capacity\n"
    for report in result.reports:
        # grant rows are (iteration, user, allocated, share, remaining)
        yield from _row_chunks(f"{report.epoch},%s,%s,%s,%s,%s\n",
                               report.rows)


def trace_csv(result: RunResult) -> str:
    return "".join(trace_chunks(result))


def receipts_csv(result: RunResult) -> str:
    return "".join(receipts_chunks(result))


def balances_csv(result: RunResult) -> str:
    return "".join(balances_chunks(result))


def distributions_csv(result: RunResult) -> str:
    return "".join(distributions_chunks(result))
