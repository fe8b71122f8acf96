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

``run_scenario`` walks that schedule once; a small adapter per design
(autonomous for AMF/WAMF, central for CMF) runs each slot's transaction,
and the loop records it as one trace row and one receipt.  Identical
scenarios produce bit-identical traces and receipts.
"""

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .clock import ClockParams, locate
from .cmf import CmfDistributor
from .costs import CostMeter, CostModel, TxReceipt
from .faucet import AutonomousFaucet, WeightPolicy

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


def _geometry(n: int) -> dict:
    """The n-coupled part of the benchmark parameterization: capacity 20n,
    epoch span 4n, round span n."""
    return dict(epoch_capacity=20 * n, epoch_span=4 * n, round_span=n)


@dataclass(frozen=True)
class Scenario:
    """Declarative experiment description.  ``scripted_demands`` (one row
    per epoch, one entry per user, None meaning no demand) replaces the
    PRNG stream entirely when present; epochs beyond the scripted rows
    get no demands."""

    variant: str
    n: int
    epoch_capacity: int
    epoch_span: int
    round_span: int
    demand_lo: int = 10
    demand_hi: int = 30
    epochs: int = 4
    seed: int = 0
    precision: int = 10 ** 9
    cost_model: CostModel = field(default_factory=CostModel)
    scripted_demands: tuple = None

    @classmethod
    def benchmark_defaults(cls, variant: str, n: int, **overrides):
        """The benchmark parameterization: the n-coupled geometry of
        ``_geometry`` and demands from [10, 30)."""
        params = dict(variant=variant, n=n, **_geometry(n))
        params.update(overrides)
        return cls(**params)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ScenarioError(f"unknown variant {self.variant!r}")
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
        if self.demand_lo < 1 or self.demand_hi <= self.demand_lo:
            raise ScenarioError("demand range must satisfy 1 <= lo < hi")
        if not (0 <= self.seed <= MASK64):
            raise ScenarioError("seed must fit in 64 bits")
        if self.precision < 1:
            raise ScenarioError("precision must be positive")
        if self.scripted_demands is not None:
            object.__setattr__(self, "scripted_demands",
                               tuple(tuple(row) for row in self.scripted_demands))
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
            for k in range(self.n):
                worst = max(worst, sum(row[k] or 0 for row in self.scripted_demands
                                       if k < len(row)))
            return worst
        return self.epochs * (self.demand_hi - 1)

    @property
    def clock(self) -> ClockParams:
        return ClockParams(0, self.epoch_span, self.round_span)

    def with_n(self, n: int):
        """Rescale to a different user count, rederiving the n-coupled
        geometry."""
        return replace(self, n=n, **_geometry(n))


def scenario_to_dict(sc: Scenario) -> dict:
    out = {
        "variant": sc.variant, "n": sc.n,
        "epoch_capacity": sc.epoch_capacity,
        "epoch_span": sc.epoch_span, "round_span": sc.round_span,
        "demand_lo": sc.demand_lo, "demand_hi": sc.demand_hi,
        "epochs": sc.epochs, "seed": sc.seed, "precision": sc.precision,
        "cost_model": {
            "storage_read": sc.cost_model.storage_read,
            "storage_write": sc.cost_model.storage_write,
            "heap_move": sc.cost_model.heap_move,
            "arithmetic_op": sc.cost_model.arithmetic_op,
            "tx_base": sc.cost_model.tx_base,
            "block_budget": sc.cost_model.block_budget,
        },
    }
    if sc.scripted_demands is not None:
        out["scripted_demands"] = [list(row) for row in sc.scripted_demands]
    return out


_SCENARIO_KEYS = {"variant", "n", "epoch_capacity", "epoch_span",
                  "round_span", "demand_lo", "demand_hi", "epochs", "seed",
                  "precision", "cost_model", "scripted_demands"}


_INT_KEYS = ("n", "epoch_capacity", "epoch_span", "round_span", "demand_lo",
             "demand_hi", "epochs", "seed", "precision")


def _require_int(name, value):
    # bool is an int subclass, but JSON true is not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("a scenario must be a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    if "variant" not in data or "n" not in data:
        raise ScenarioError("scenario requires 'variant' and 'n'")
    for key in _INT_KEYS:
        if key in data:
            _require_int(key, data[key])
    kwargs = {**_geometry(data["n"]), **data}
    model = kwargs.pop("cost_model", None)
    if model is not None:
        if not isinstance(model, dict):
            raise ScenarioError("cost_model must be a JSON object")
        for key, value in model.items():
            _require_int(f"cost_model.{key}", value)
        try:
            kwargs["cost_model"] = CostModel(**model)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad cost_model: {exc}") from exc
    scripted = kwargs.get("scripted_demands")
    if scripted is not None:
        if (not isinstance(scripted, (list, tuple))
                or not all(isinstance(row, (list, tuple)) for row in scripted)):
            raise ScenarioError("scripted_demands must be a list of rows")
        kwargs["scripted_demands"] = tuple(tuple(row) for row in scripted)
    try:
        return Scenario(**kwargs)
    except TypeError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
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


@dataclass
class EpochSummary:
    """What one claim epoch distributed, plus the matching allocation
    problem (demands from the previous epoch and the capacity in force
    when claims began)."""

    epoch: int
    demands: dict
    weights: dict
    capacity_start: int
    granted: dict = field(default_factory=dict)
    capacity_end: int = 0

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


@dataclass
class RunResult:
    scenario: Scenario
    trace: list
    receipts: list
    balances: dict
    reports: list            # CMF distribution reports
    epoch_summaries: list
    findings: list
    final_capacity: int
    injected: int

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
    state = sc.seed
    for _ in range(sc.epochs):
        row = []
        for _ in range(sc.n):
            state, amount = next_demand(state, sc.demand_lo, sc.demand_hi)
            row.append(amount)
        plan.append(row)
    return plan


# A variant adapter runs one transaction on its state machine (``pool``,
# which has a ``capacity``) and returns (actor, action, amount, share,
# summary).  It records accepted demands, their weights and the grants in
# the schedule's per-epoch dicts, and counts the pool's top-ups.

class _Autonomous:
    """AMF/WAMF over ``AutonomousFaucet``: users claim their share
    themselves in every round of an epoch but the last."""

    central = False

    def __init__(self, sc, meter, demands, weights, grants):
        policy = (WeightPolicy.reciprocal(sc.precision)
                  if sc.variant == "WAMF" else WeightPolicy.unweighted())
        self.pool = AutonomousFaucet(sc.clock, sc.epoch_capacity, policy,
                                     meter)
        self.demands, self.weights, self.grants = demands, weights, grants
        self.reports = []

    @property
    def injections(self) -> int:
        return self.pool.injections

    def balances(self) -> dict:
        return self.pool.final_balances()

    def register(self, user):
        uid = self.pool.register()
        return uid, "register", 0, 0, f"user={uid}"

    def demand(self, epoch, block, user, amount):
        res = self.pool.demand(user, amount, block)
        if not res.accepted:
            return user, "demand", 0, 0, f"rejected: {res.reason}"
        self.demands[epoch][user] = amount
        self.weights[epoch][user] = res.weight
        return (user, "demand", amount, 0,
                f"amount={amount} weight={res.weight}")

    def claim(self, epoch, block, user):
        res = self.pool.claim(user, block)
        if res.granted:
            grants = self.grants[epoch]
            grants[user] = grants.get(user, 0) + res.granted
            summary = f"granted={res.granted}"
            if res.floored:
                summary += " floor1"
        else:
            summary = f"no-op: {res.reason}"
        return user, "claim", res.granted, res.share, summary

    def noop(self):
        return AUTHORITY, "noop", 0, self.pool.unit_share, ""


class _Central:
    """CMF over ``CmfDistributor``: the authority distributes in the first
    block of every epoch after the first; users never claim."""

    central = True

    def __init__(self, sc, meter, demands, weights, grants):
        self.pool = CmfDistributor(sc.epoch_capacity, meter)
        self.meter = meter
        self.n = sc.n
        self.demands, self.weights, self.grants = demands, weights, grants
        self.reports = []

    @property
    def injections(self) -> int:
        return len(self.reports)

    def balances(self) -> dict:
        return {u: self.pool.balances.get(u, 0) for u in range(1, self.n + 1)}

    def register(self, user):
        self.meter.write(2)  # account bookkeeping
        return user, "register", 0, 0, f"user={user}"

    def demand(self, epoch, block, user, amount):
        self.pool.submit_demand(user, amount)
        self.demands[epoch][user] = amount
        self.weights[epoch][user] = 1
        return user, "demand", amount, 0, f"amount={amount}"

    def distribute(self, epoch):
        report = self.pool.distribute(epoch=epoch)
        self.reports.append(report)
        self.grants[epoch].update(report.allocations)
        total = report.total_granted()
        return (AUTHORITY, "distribute", total, 0,
                f"granted={total} iterations={report.iterations}")

    def noop(self):
        return AUTHORITY, "noop", 0, 0, ""


def run_scenario(sc: Scenario) -> RunResult:
    """Execute a scenario block by block.  Returns the full trace, the
    per-transaction receipts, the final balances and per-epoch summaries
    suitable for oracle verification."""
    clock = sc.clock
    model = sc.cost_model
    budget = model.block_budget
    meter = CostMeter()
    demands = [{} for _ in range(sc.epochs)]  # epoch -> user -> amount
    weights = [{} for _ in range(sc.epochs)]
    grants = [{} for _ in range(sc.epochs)]
    variant = _Central if sc.variant == "CMF" else _Autonomous
    adapter = variant(sc, meter, demands, weights, grants)
    pool = adapter.pool
    central = adapter.central
    plan = _demand_plan(sc)
    n = sc.n
    rounds = clock.rounds_per_epoch
    trace = []
    receipts = []
    summaries = []
    findings = []
    injections = capacity_end = 0

    for epoch in range(sc.epochs):
        amounts = plan[epoch]
        for rnd in range(rounds):
            round_start = epoch * sc.epoch_span + rnd * sc.round_span
            pos_epoch, pos_round, _ = locate(clock, round_start)
            last = rnd == rounds - 1
            for offset in range(sc.round_span):
                block = round_start + offset
                meter.reset()
                meter.base()
                if epoch == 0 and rnd == 0 and offset < n:
                    tx = adapter.register(offset + 1)
                elif central and epoch and rnd == 0 and offset == 0:
                    tx = adapter.distribute(epoch)
                elif last and offset < n and amounts[offset] is not None:
                    tx = adapter.demand(epoch, block, offset + 1,
                                        amounts[offset])
                elif not central and epoch and not last and offset < n:
                    tx = adapter.claim(epoch, block, offset + 1)
                else:
                    tx = adapter.noop()
                actor, action, amount, share, summary = tx
                cost = meter.total(model)
                over = cost > budget
                trace.append(TraceRow(block, pos_epoch, pos_round, actor,
                                      action, amount, share, pool.capacity,
                                      cost, over))
                receipts.append(TxReceipt(block, pos_epoch, pos_round, action,
                                          actor, cost, over, summary))
        # an epoch with a top-up is a claim epoch: CMF tops up in its
        # distribute block even without users, AMF only on a transaction
        if adapter.injections > injections:
            closed = EpochSummary(epoch=epoch, demands=demands[epoch - 1],
                                  weights=weights[epoch - 1],
                                  capacity_start=(capacity_end
                                                  + sc.epoch_capacity),
                                  granted=grants[epoch],
                                  capacity_end=pool.capacity)
            summaries.append(closed)
            if closed.incomplete:
                findings.append(
                    f"epoch {epoch}: distribution incomplete after "
                    f"{rounds - 1} claim rounds (a further round was needed)")
        injections = adapter.injections
        capacity_end = pool.capacity

    return RunResult(scenario=sc, trace=trace, receipts=receipts,
                     balances=adapter.balances(),
                     reports=adapter.reports, epoch_summaries=summaries,
                     findings=findings, final_capacity=pool.capacity,
                     injected=injections * sc.epoch_capacity)


def worked_example_scenarios() -> dict:
    """The two worked-table scenarios used as golden fixtures: a 3-user
    scripted AMF run over five epochs and the matching single-distribution
    CMF run.  Both are fully scripted, so seeds are irrelevant."""
    amf = Scenario(variant="AMF", n=3, epoch_capacity=30, epoch_span=12,
                   round_span=3, epochs=5, seed=1,
                   scripted_demands=((4, 11, 15), (11, 3, 8), (7, 8, 12),
                                     (17, 13, 5)))
    cmf = Scenario(variant="CMF", n=3, epoch_capacity=30, epoch_span=12,
                   round_span=3, epochs=2, seed=1,
                   scripted_demands=((4, 11, 15),))
    return {"amf_worked_example": amf, "cmf_worked_example": cmf}


# -- CSV rendering ---------------------------------------------------------

TRACE_HEADER = "block,epoch,round,actor,action,amount,share,capacity,cost,over_budget"

# Rows are tuples whose fields are in column order, so each renders with
# one format; %d writes the over_budget flag as 0 or 1.
_TRACE_ROW = "%d,%d,%d,%d,%s,%d,%d,%d,%d,%d"
_RECEIPT_ROW = "%d,%d,%d,%s,%d,%d,%d,%s"


def trace_csv(result: RunResult) -> str:
    lines = [TRACE_HEADER]
    lines.extend(_TRACE_ROW % r for r in result.trace)
    return "\n".join(lines) + "\n"


def receipts_csv(result: RunResult) -> str:
    lines = ["block,epoch,round,action,actor,cost,over_budget,summary"]
    lines.extend(_RECEIPT_ROW % r for r in result.receipts)
    return "\n".join(lines) + "\n"


def balances_csv(result: RunResult) -> str:
    lines = ["user,balance"]
    for user in sorted(result.balances):
        lines.append(f"{user},{result.balances[user]}")
    return "\n".join(lines) + "\n"


def distributions_csv(result: RunResult) -> str:
    lines = ["epoch,iteration,user,allocated,share,remaining_capacity"]
    for report in result.reports:
        for row in report.csv_rows():
            lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
