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
CMF's authority distributes in the first.  Every block is recorded as
one plain tuple in ``TraceRow``'s field order, which also carries the
receipt's summary: the garbage collector untracks a tuple of ints, strs
and bools once it has seen it, never a tuple subclass, and a run keeps
every record until it returns.  The package reads them as stored, in
``RunResult.rows``; ``RunResult.trace`` and ``.receipts`` are one view,
for outside readers, making a ``TraceRow`` per record as it is iterated.
``trace.csv`` and ``receipts.csv`` render the same records run by run:
a run is a stretch of records with equal epoch, round, action and
over_budget, whose four fields each CSV formats once per run.
An idle block is a no-op that costs ``tx_base`` and leaves the pool as
it was.  An epoch summary's demands are the demand plan's, not the ones
the pool accepted, so ``verify`` catches a pool that wrongly rejects a
demand.  Equal summaries and equal costs within a run are one shared
object each.  Identical scenarios produce bit-identical records.
"""

import json
from itertools import chain, groupby
from operator import itemgetter
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
# 10**6 blocks).  A run keeps a record of about 230 B per block until it
# returns, plus a CSV's text while it renders: WAMF at n = 20000 (320,000
# blocks) keeps 73 MB (tracemalloc, after run_scenario), peaks at 136 MB
# RSS and takes about 1.0 s to run, verify and render (the README's
# Performance table), so the limit costs about 460 MB of records and 6 s.
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
    """A run's records read as ``TraceRow``s, each made as it is iterated:
    ``len`` and iteration only.  The package reads ``RunResult.rows``."""

    __slots__ = ("rows",)

    def __init__(self, rows: list):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(TraceRow._make, self.rows)


class RunResult(_Record):
    __slots__ = ("scenario", "rows", "balances", "reports",
                 "epoch_summaries", "final_capacity", "injected")

    def __init__(self, scenario: Scenario, rows: list, balances: dict,
                 reports: list, epoch_summaries: list, final_capacity: int,
                 injected: int):
        self.scenario = scenario
        self.rows = rows  # one tuple per block, in TraceRow's field order
        self.balances = balances
        self.reports = reports  # CMF distribution reports
        self.epoch_summaries = epoch_summaries
        self.final_capacity = final_capacity
        self.injected = injected

    @property
    def trace(self) -> TraceView:
        return TraceView(self.rows)

    receipts = trace  # each record is its block's receipt

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
# method runs the round's busy blocks in one loop and returns how many it
# ran: per block, one contract call, one ``total`` for the transaction's
# cost, and one tuple in ``TraceRow``'s field order appended with
# ``add_row``.  ``base`` is the block before the round's first, so user u
# acts in block base + u, and ``at`` is the round's (epoch, round)
# position.  The adapter records grants in the per-epoch dicts; the pool
# counts its own top-ups, in ``injections``.  Equal summaries and equal
# costs come from per-run tables keyed by their values: each is made once
# and is one object.

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


class _Adapter:
    """The per-run state the round loops share: the records and their one
    append, the meter, the block budget, the cost of a transaction by its
    metered units (``tx_base`` plus them), and what the run granted and
    reported; and the register round, which both designs run alike."""

    def __init__(self, sc):
        model = sc.cost_model
        self.n = sc.n
        self.meter = CostMeter(model)
        self.tx_base = model.tx_base
        self.budget = model.block_budget
        self.costs = _Table(self.tx_base.__add__)
        # a no-op adds no units and costs tx_base itself, as idle rows do
        self.costs[0] = self.tx_base
        self.rows = []
        self.add_row = self.rows.append
        self.grants = [{} for _ in range(sc.epochs)]  # epoch -> user -> amount
        self.reports = []

    def register(self, base, at):
        at_epoch, at_round = at
        pool, register = self.pool, self.pool.register
        priced, costs, budget, add_row = (self.meter.total, self.costs,
                                          self.budget, self.add_row)
        for user in range(1, self.n + 1):
            register()  # both pools number users 1..n in call order
            cost = costs[priced()]
            add_row((base + user, at_epoch, at_round, user, "register", 0, 0,
                     pool.capacity, cost, cost > budget, f"user={user}"))
        return self.n


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

    def demand(self, amounts, base, at):
        at_epoch, at_round = at
        pool, demand, accepted = self.pool, self.pool.demand, self.accepted
        priced, costs, budget, add_row = (self.meter.total, self.costs,
                                          self.budget, self.add_row)
        for user in range(1, self.n + 1):
            block = base + user
            amount = amounts[user - 1]
            if amount is None:
                actor, action, amount, share, summary = self.noop()
            else:
                actor, action, share = user, "demand", 0
                ok, reason, weight = demand(user, amount, block)
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
            cost = costs[priced()]
            add_row((block, at_epoch, at_round, actor, action, amount, share,
                     pool.capacity, cost, cost > budget, summary))
        return self.n

    def claim_round(self, base, at):
        at_epoch, at_round = at
        pool, claim, grants = self.pool, self.pool.claim, self.grants[at_epoch]
        granted_text, floored_text, no_op = (self.granted, self.floored,
                                             self.no_op)
        priced, costs, budget, add_row = (self.meter.total, self.costs,
                                          self.budget, self.add_row)
        for user in range(1, self.n + 1):
            block = base + user
            granted, reason, share, floored, _ = claim(user, block)
            if granted:
                grants[user] = grants.get(user, 0) + granted
                summary = (floored_text if floored else granted_text)[granted]
            else:
                summary = no_op[reason]
            cost = costs[priced()]
            add_row((block, at_epoch, at_round, user, "claim", granted, share,
                     pool.capacity, cost, cost > budget, summary))
        return self.n

    def noop(self):
        return AUTHORITY, "noop", 0, self.pool.unit_share, ""


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

    def demand(self, amounts, base, at):
        at_epoch, at_round = at
        pool, submit, accepted = (self.pool, self.pool.submit_demand,
                                  self.accepted)
        priced, costs, budget, add_row = (self.meter.total, self.costs,
                                          self.budget, self.add_row)
        for user in range(1, self.n + 1):
            amount = amounts[user - 1]
            if amount is None:
                actor, action, amount, share, summary = self.noop()
            else:
                submit(user, amount)
                actor, action, share, summary = (user, "demand", 0,
                                                 accepted[amount])
            cost = costs[priced()]
            add_row((base + user, at_epoch, at_round, actor, action, amount,
                     share, pool.capacity, cost, cost > budget, summary))
        return self.n

    def claim_round(self, base, at):
        epoch, rnd = at
        if rnd > 0:  # the first round's distribute served the epoch
            return 0
        report = self.pool.distribute(epoch=epoch)
        self.reports.append(report)
        self.grants[epoch] = report.allocations  # uncopied
        total = report.total_granted()
        cost = self.costs[self.meter.total()]
        self.add_row((base + 1, *at, AUTHORITY, "distribute", total, 0,
                      self.pool.capacity, cost, cost > self.budget,
                      self.distributed[total, report.iterations]))
        return 1

    def noop(self):
        return AUTHORITY, "noop", 0, 0, ""


def run_scenario(sc: Scenario) -> RunResult:
    """Execute a scenario round by round.  Returns one record per block,
    the final balances and per-epoch summaries suitable for oracle
    verification."""
    clock = sc.clock
    adapter = (_Central if sc.variant == "CMF" else _Autonomous)(sc)
    pool, grants = adapter.pool, adapter.grants
    plan = _demand_plan(sc)
    rounds = clock.rounds_per_epoch
    tx_base = adapter.tx_base
    summaries = []
    injections = capacity_end = 0

    for epoch in range(sc.epochs):
        for rnd in range(rounds):
            round_start = epoch * sc.epoch_span + rnd * sc.round_span
            at = locate(clock, round_start)
            pos_epoch, pos_round = at
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
            # the idle rest of the round leaves the pool as it was; the
            # model keeps tx_base below the block budget
            idle = range(round_start + busy, round_start + sc.round_span)
            actor, action, amount, share, summary = adapter.noop()
            capacity = pool.capacity
            adapter.rows.extend([(b, pos_epoch, pos_round, actor, action,
                                  amount, share, capacity, tx_base, False,
                                  summary) for b in idle])
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

    return RunResult(scenario=sc, rows=adapter.rows,
                     balances=adapter.balances(), reports=adapter.reports,
                     epoch_summaries=summaries, final_capacity=pool.capacity,
                     injected=injections * sc.epoch_capacity)


# -- CSV rendering ---------------------------------------------------------
#
# Each CSV is a stream of chunks: the header line, then its rows CHUNK at
# a time, each chunk one string.  ``fairfaucet run`` writes the chunks of
# ``trace_chunks`` and its siblings as they come; ``trace_csv`` and its
# siblings join them, and peak at about twice the text's length.  A run is
# a stretch of a chunk's rows that share fields: epoch, round, action and
# over_budget for a round's records, iteration and share for a CMF
# report's grant rows.  Those go into the run's row format as text, once
# per run, so each row formats only its own fields.  %s writes an int as
# %d does, only faster.

CHUNK = 1024  # rows per chunk
# rows per %, so that a piece's objects stay under the 512-byte small-object
# limit and leave no holes in the heap
PIECE = 8

_ROUND = itemgetter(1, 2, 4, 9)  # epoch, round, action, over_budget
# a layout takes a run's shared fields, over_budget as 0 or 1; %%s stays %s
_TRACE_OWN = itemgetter(0, 3, 5, 6, 7, 8)  # block, actor, amount .. cost
_TRACE_LAYOUT = "%%s,%s,%s,%%s,%s,%%s,%%s,%%s,%%s,%d\n"
_RECEIPT_OWN = itemgetter(0, 3, 8, 10)  # block, actor, cost, summary
_RECEIPT_LAYOUT = "%%s,%s,%s,%s,%%s,%%s,%d,%%s\n"


def _runs(rows, key, own, layout):
    """Yield ``rows`` as text, a string per CHUNK rows, each run's ``key``
    fields written by ``layout`` and each row's ``own`` fields after."""
    for i in range(0, len(rows), CHUNK):
        text = []
        for shared, run in groupby(rows[i:i + CHUNK], key):
            line = layout % tuple(f.replace("%", "%%") if type(f) is str
                                  else f for f in shared)
            run = list(run)
            cut = len(run) - len(run) % PIECE
            fields = chain.from_iterable(map(own, run[:cut]))
            width = PIECE * len(own(run[0]))
            # zip takes the fields of PIECE rows at a time
            text.extend(map((line * PIECE).__mod__, zip(*[fields] * width)))
            rest = tuple(chain.from_iterable(map(own, run[cut:])))
            text.append(line * (len(run) - cut) % rest)
        yield "".join(text)


def trace_chunks(result: RunResult):
    yield "block,epoch,round,actor,action,amount,share,capacity,cost,over_budget\n"
    yield from _runs(result.rows, _ROUND, _TRACE_OWN, _TRACE_LAYOUT)


def receipts_chunks(result: RunResult):
    yield "block,epoch,round,action,actor,cost,over_budget,summary\n"
    yield from _runs(result.rows, _ROUND, _RECEIPT_OWN, _RECEIPT_LAYOUT)


def balances_chunks(result: RunResult):
    yield "user,balance\n"
    rows = sorted(result.balances.items())
    for i in range(0, len(rows), CHUNK):
        yield "".join(map("%s,%s\n".__mod__, rows[i:i + CHUNK]))


def distributions_chunks(result: RunResult):
    yield "epoch,iteration,user,allocated,share,remaining_capacity\n"
    for report in result.reports:
        # grant rows are (iteration, user, allocated, share, remaining)
        yield from _runs(report.rows, itemgetter(0, 3), itemgetter(1, 2, 4),
                         f"{report.epoch},%s,%%s,%%s,%s,%%s\n")


def trace_csv(result: RunResult) -> str:
    return "".join(trace_chunks(result))


def receipts_csv(result: RunResult) -> str:
    return "".join(receipts_chunks(result))


def balances_csv(result: RunResult) -> str:
    return "".join(balances_chunks(result))


def distributions_csv(result: RunResult) -> str:
    return "".join(distributions_chunks(result))
