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

``run_scenario`` walks that schedule one round at a time: the geometry
fixes each round's one kind of transaction and how many of its first
blocks run it; a small adapter per design (autonomous for AMF/WAMF,
central for CMF) hands back the round's block step that runs those, and
the rest of the round is idle.  Every block is recorded as one
``TraceRow``, which also carries the receipt's summary; ``trace.csv`` and
``receipts.csv`` are two renderings of the same records.  An idle block
is a no-op that costs ``tx_base`` and leaves the pool as it was.  Equal
summaries and equal costs within a run are one shared object each.
Identical scenarios produce bit-identical records.
"""

import json
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
# blocks) keeps 74 MB, peaks at 128 MB and takes 1.7 s to run, verify and
# render, so the limit costs about 460 MB of records and 11 s.  Revisit
# it once records stream.
MAX_BLOCKS = 2_000_000


class Scenario(_Record, frozen=True):
    """Declarative experiment description.  Geometry left out (or None)
    takes the benchmark parameterization, which scales with n: capacity
    20n, epoch span 4n, round span n.  ``scripted_demands`` (one row per
    epoch, one entry per user, None meaning no demand) replaces the PRNG
    stream entirely when present; epochs beyond the scripted rows get no
    demands.  The constructor checks every value, and rejects a run of
    more than ``MAX_BLOCKS`` blocks before any of it runs."""

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
    problem (demands from the previous epoch, their weights or None if
    unweighted, and the capacity in force when claims began)."""

    __slots__ = ("epoch", "demands", "weights", "capacity_start", "granted",
                 "capacity_end")

    def __init__(self, epoch: int, demands: dict, weights: dict,
                 capacity_start: int, granted: dict = None,
                 capacity_end: int = 0):
        self.epoch = epoch
        self.demands = demands
        self.weights = weights
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


class RunResult(_Record):
    __slots__ = ("scenario", "trace", "balances", "reports",
                 "epoch_summaries", "final_capacity", "injected")

    def __init__(self, scenario: Scenario, trace: list, balances: dict,
                 reports: list, epoch_summaries: list, final_capacity: int,
                 injected: int):
        self.scenario = scenario
        self.trace = trace  # one TraceRow per block
        self.balances = balances
        self.reports = reports  # CMF distribution reports
        self.epoch_summaries = epoch_summaries
        self.final_capacity = final_capacity
        self.injected = injected

    @property
    def receipts(self) -> list:  # each trace row is its block's receipt
        return self.trace

    def conservation_ok(self) -> bool:
        return sum(self.balances.values()) + self.final_capacity == self.injected

    def over_budget_receipts(self):
        return [r for r in self.receipts if r.over_budget]


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


# A variant adapter runs transactions on its state machine (``pool``,
# which has a ``capacity``).  Each round method takes the round's context
# and returns the block step: a plain closure, one inlined call per block,
# that returns (actor, action, amount, share, summary).  ``base`` is the
# block before the round's first, so user ``block - base`` acts.  The
# adapter records accepted demands and grants in the per-epoch dicts and
# counts the pool's top-ups.  Equal summaries come from per-run tables
# keyed by their values: each text is formatted once and is one object.

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


class _Autonomous:
    """AMF/WAMF over ``AutonomousFaucet``: users claim their share
    themselves in every round of an epoch but the last."""

    central = False

    def __init__(self, sc, meter, demands, grants):
        # only WAMF weighs demands; AMF's weights are all 1
        precision = sc.precision if sc.variant == "WAMF" else None
        self.pool = AutonomousFaucet(sc.clock, sc.epoch_capacity, precision,
                                     meter)
        # ``claim`` is handed its epoch's grants dict once per round
        self.demands = demands
        self.reports = []
        self.rejected = _Table("rejected: %s".__mod__)
        self.accepted = {}  # weight -> amount -> text
        self.granted = _Table("granted=%d".__mod__)
        self.floored = _Table("granted=%d floor1".__mod__)
        self.no_op = _Table("no-op: %s".__mod__)

    @property
    def injections(self) -> int:
        return self.pool.injections

    def balances(self) -> dict:
        return self.pool.final_balances()

    def weights(self, epoch):
        """The weights the claims of ``epoch`` used, None if unweighted."""
        return self.pool.claim_weights(epoch, self.demands[epoch - 1])

    def register(self, base):
        def step(block):
            uid = self.pool.register()
            return uid, "register", 0, 0, f"user={uid}"
        return step

    def demand(self, epoch, amounts, base):
        demand, demands = self.pool.demand, self.demands[epoch]
        accepted = self.accepted

        def step(block):
            user = block - base
            amount = amounts[user - 1]
            if amount is None:
                return self.noop()
            ok, reason, weight = demand(user, amount, block)
            if not ok:
                return user, "demand", 0, 0, self.rejected[reason]
            demands[user] = amount
            # plain nested dicts: a tuple key per text or a table object per
            # weight would add GC-tracked objects that live as long as the run
            texts = accepted.get(weight)
            if texts is None:
                texts = accepted[weight] = {}
            summary = texts.get(amount)
            if summary is None:
                summary = texts[amount] = f"amount={amount} weight={weight}"
            return user, "demand", amount, 0, summary
        return step

    def claim(self, grants, base):
        claim, no_op = self.pool.claim, self.no_op
        granted_text, floored_text = self.granted, self.floored

        def step(block):
            user = block - base
            granted, reason, share, floored, _ = claim(user, block)
            if granted:
                grants[user] = grants.get(user, 0) + granted
                summary = (floored_text if floored else granted_text)[granted]
            else:
                summary = no_op[reason]
            return user, "claim", granted, share, summary
        return step

    def noop(self):
        return AUTHORITY, "noop", 0, self.pool.unit_share, ""


class _Central:
    """CMF over ``CmfDistributor``: the authority distributes in the first
    block of every epoch after the first; users never claim."""

    central = True

    def __init__(self, sc, meter, demands, grants):
        self.pool = CmfDistributor(sc.epoch_capacity, meter)
        self.n = sc.n
        self.demands, self.grants = demands, grants
        self.reports = []
        self.accepted = _Table("amount=%d".__mod__)
        self.distributed = _Table("granted=%d iterations=%d".__mod__)

    @property
    def injections(self) -> int:
        return len(self.reports)

    def balances(self) -> dict:
        return {u: self.pool.balances.get(u, 0) for u in range(1, self.n + 1)}

    def weights(self, epoch):
        return None

    def register(self, base):
        def step(block):
            user = block - base
            self.pool.register(user)
            return user, "register", 0, 0, f"user={user}"
        return step

    def demand(self, epoch, amounts, base):
        submit, demands = self.pool.submit_demand, self.demands[epoch]
        accepted = self.accepted

        def step(block):
            user = block - base
            amount = amounts[user - 1]
            if amount is None:
                return self.noop()
            submit(user, amount)
            demands[user] = amount
            return user, "demand", amount, 0, accepted[amount]
        return step

    def distribute(self, epoch):
        def step(block):
            report = self.pool.distribute(epoch=epoch)
            self.reports.append(report)
            self.grants[epoch] = report.allocations  # uncopied
            total = report.total_granted()
            return (AUTHORITY, "distribute", total, 0,
                    self.distributed[total, report.iterations])
        return step

    def noop(self):
        return AUTHORITY, "noop", 0, 0, ""


def run_scenario(sc: Scenario) -> RunResult:
    """Execute a scenario round by round.  Returns one record per block,
    the final balances and per-epoch summaries suitable for oracle
    verification."""
    clock = sc.clock
    model = sc.cost_model
    budget = model.block_budget
    tx_base = model.tx_base
    meter = CostMeter()
    priced = meter.total
    # one int object per distinct cost; idle blocks cost tx_base itself
    shared_cost = {tx_base: tx_base}.setdefault
    demands = [{} for _ in range(sc.epochs)]  # epoch -> user -> amount
    grants = [{} for _ in range(sc.epochs)]
    variant = _Central if sc.variant == "CMF" else _Autonomous
    adapter = variant(sc, meter, demands, grants)
    pool = adapter.pool
    central = adapter.central
    plan = _demand_plan(sc)
    n = sc.n
    rounds = clock.rounds_per_epoch
    trace = []
    add_row = trace.append
    # tuple.__new__ builds a record at half its NamedTuple constructor's cost
    new = tuple.__new__
    summaries = []
    injections = capacity_end = 0

    for epoch in range(sc.epochs):
        for rnd in range(rounds):
            round_start = epoch * sc.epoch_span + rnd * sc.round_span
            pos_epoch, pos_round = locate(clock, round_start)
            base = round_start - 1
            # the round's transaction runs in its first ``busy`` blocks
            if epoch == 0 and rnd == 0:
                step, busy = adapter.register(base), n
            elif rnd == rounds - 1:
                step, busy = adapter.demand(epoch, plan[epoch], base), n
            elif epoch == 0 or (central and rnd > 0):
                step, busy = None, 0
            elif central:
                step, busy = adapter.distribute(epoch), 1
            else:
                step, busy = adapter.claim(grants[epoch], base), n
            for block in range(round_start, round_start + busy):
                actor, action, amount, share, summary = step(block)
                cost = priced(model) + tx_base
                cost = shared_cost(cost, cost)
                over = cost > budget
                add_row(new(TraceRow, (block, pos_epoch, pos_round, actor,
                                       action, amount, share, pool.capacity,
                                       cost, over, summary)))
            # the idle rest of the round leaves the pool as it was; the
            # model keeps tx_base below the block budget
            idle = range(round_start + busy, round_start + sc.round_span)
            actor, action, amount, share, summary = adapter.noop()
            capacity = pool.capacity
            trace.extend([new(TraceRow, (b, pos_epoch, pos_round, actor,
                                         action, amount, share, capacity,
                                         tx_base, False, summary))
                          for b in idle])
        # an epoch with a top-up is a claim epoch: CMF tops up in its
        # distribute block even without users, AMF only on a transaction
        if adapter.injections > injections:
            summaries.append(EpochSummary(
                epoch=epoch, demands=demands[epoch - 1],
                weights=adapter.weights(epoch),
                capacity_start=capacity_end + sc.epoch_capacity,
                granted=grants[epoch], capacity_end=pool.capacity))
        injections = adapter.injections
        capacity_end = pool.capacity

    return RunResult(scenario=sc, trace=trace, balances=adapter.balances(),
                     reports=adapter.reports, epoch_summaries=summaries,
                     final_capacity=pool.capacity,
                     injected=injections * sc.epoch_capacity)


# -- CSV rendering ---------------------------------------------------------
#
# Each CSV is produced as a stream of chunks: the header line, then the
# rows formatted CHUNK at a time, each chunk one string.  ``trace_chunks``
# and its siblings yield those chunks, so ``fairfaucet run`` writes a file
# without ever holding all of it; ``trace_csv`` and its siblings join the
# same chunks into the whole text.  Rendering a CSV this way peaks at about
# twice its length (the chunks plus their join) instead of a string per
# line plus two copies of the text.

CHUNK = 1024  # rows per chunk

TRACE_HEADER = "block,epoch,round,actor,action,amount,share,capacity,cost,over_budget"

# Rows are tuples, so each renders with one format.  %s writes an int as
# %d does, only faster; the over_budget flag keeps %d, which writes it as 0
# or 1 where %s would write False/True.  A trace row's fields are in
# trace.csv's column order, then the summary, which %.0s writes as nothing.
_TRACE_ROW = "%s,%s,%s,%s,%s,%s,%s,%s,%s,%d%.0s"
_RECEIPT_ROW = "%s,%s,%s,%s,%s,%s,%d,%s"
# receipts.csv's columns of a trace row: block, epoch, round, action,
# actor, cost, over_budget, summary
_RECEIPT_COLUMNS = itemgetter(0, 1, 2, 4, 3, 8, 9, 10)


def _rows(fmt: str, rows, columns=None):
    """Yield the sequence ``rows``, or ``columns`` of each row, formatted
    by ``fmt``, one string per CHUNK rows, every row ending in a newline."""
    line = (fmt + "\n").__mod__
    for i in range(0, len(rows), CHUNK):
        chunk = rows[i:i + CHUNK]
        if columns is not None:
            chunk = map(columns, chunk)
        yield "".join(map(line, chunk))


def trace_chunks(result: RunResult):
    yield TRACE_HEADER + "\n"
    yield from _rows(_TRACE_ROW, result.trace)


def receipts_chunks(result: RunResult):
    yield "block,epoch,round,action,actor,cost,over_budget,summary\n"
    yield from _rows(_RECEIPT_ROW, result.trace, _RECEIPT_COLUMNS)


def balances_chunks(result: RunResult):
    yield "user,balance\n"
    yield from _rows("%d,%d", sorted(result.balances.items()))


def distributions_chunks(result: RunResult):
    yield "epoch,iteration,user,allocated,share,remaining_capacity\n"
    for report in result.reports:
        # the epoch, then GrantRow's fields
        yield from _rows(f"{report.epoch},%d,%d,%d,%d,%d", report.rows)


def trace_csv(result: RunResult) -> str:
    return "".join(trace_chunks(result))


def receipts_csv(result: RunResult) -> str:
    return "".join(receipts_chunks(result))


def balances_csv(result: RunResult) -> str:
    return "".join(balances_chunks(result))


def distributions_csv(result: RunResult) -> str:
    return "".join(distributions_chunks(result))
