"""Differential tests of the round-at-a-time schedule against the
block-by-block loop it replaced.

``reference_run_scenario`` is ``run_scenario`` as it was before each
round's transaction was picked once from the geometry: it resets the
meter and counts ``tx_base`` on every block, picks the block's
transaction with one ``elif`` chain, and records every no-op on its own.
``_ReferenceAutonomous`` and ``_ReferenceCentral`` are the adapters it
drove, ``ReferenceMeter`` the meter API it used and ``TxReceipt`` the
separate receipt record it kept next to each trace row.  Both loops run
the same contracts and must agree on every trace row, receipt, balance,
distribution report and epoch summary, on a seeded grid of small
geometries, scripted demands with gaps, and default and non-default
prices.  The new loop's records, read through ``RunResult.trace`` one
row per block, are compared field by field with the reference's trace
rows and, through their receipt columns, with the reference's receipts;
the reference's rows become records through the tests' ``run_result``.  The reference keeps its own finding lines,
which must equal the ones ``fairfaucet run`` renders from the new loop's
epoch summaries.
"""

import random
from operator import attrgetter
from typing import NamedTuple

import pytest

from fairfaucet import cli
from fairfaucet.clock import locate
from fairfaucet.cmf import CmfDistributor
from fairfaucet.costs import CostMeter, CostModel
from fairfaucet.faucet import AutonomousFaucet
from fairfaucet.sim import (AUTHORITY, EpochSummary, RoundRecord, Scenario,
                            TraceRow, _demand_plan, run_scenario)
from round_records import run_result


class TxReceipt(NamedTuple):
    block: int
    epoch: int
    round: int
    kind: str  # register | demand | claim | distribute | noop
    actor: int
    cost: int
    over_budget: bool
    summary: str = ""


class ReferenceMeter(CostMeter):
    """The meter as the reference loop used it: ``reset`` and ``base``
    before each block, and a ``total`` that includes ``tx_base`` and
    zeroes nothing."""

    __slots__ = ("bases",)

    def reset(self):
        self.units = 0
        self.bases = 0

    def base(self):
        self.bases += 1

    def total(self, model: CostModel) -> int:
        return self.units + self.bases * model.tx_base


class _ReferenceAutonomous:
    """AMF/WAMF over ``AutonomousFaucet``: users claim their share
    themselves in every round of an epoch but the last."""

    central = False

    def __init__(self, sc, meter, demands, weights, grants):
        precision = sc.precision if sc.variant == "WAMF" else None
        self.pool = AutonomousFaucet(sc.clock, sc.epoch_capacity, precision,
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
        accepted, reason, weight = self.pool.demand(user, amount, block)
        if not accepted:
            return user, "demand", 0, 0, f"rejected: {reason}"
        self.demands[epoch][user] = amount
        self.weights[epoch][user] = weight
        return (user, "demand", amount, 0,
                f"amount={amount} weight={weight}")

    def claim(self, epoch, block, user):
        granted, reason, share, floored, _ = self.pool.claim(user, block)
        if granted:
            grants = self.grants[epoch]
            grants[user] = grants.get(user, 0) + granted
            summary = f"granted={granted}"
            if floored:
                summary += " floor1"
        else:
            summary = f"no-op: {reason}"
        return user, "claim", granted, share, summary

    def noop(self):
        return AUTHORITY, "noop", 0, self.pool.unit_share, ""


class _ReferenceCentral:
    """CMF over ``CmfDistributor``: the authority distributes in the first
    block of every epoch after the first; users never claim."""

    central = True

    def __init__(self, sc, meter, demands, weights, grants):
        self.pool = CmfDistributor(sc.epoch_capacity, meter)
        self.n = sc.n
        self.demands, self.weights, self.grants = demands, weights, grants
        self.reports = []

    @property
    def injections(self) -> int:
        return len(self.reports)

    def balances(self) -> dict:
        return {u: self.pool.balances.get(u, 0) for u in range(1, self.n + 1)}

    def register(self, user):
        self.pool.register()
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


def reference_run_scenario(sc: Scenario) -> tuple:
    """The result without receipts or findings, the receipts, and the
    findings."""
    clock = sc.clock
    model = sc.cost_model
    budget = model.block_budget
    meter = ReferenceMeter(model)
    demands = [{} for _ in range(sc.epochs)]  # epoch -> user -> amount
    weights = [{} for _ in range(sc.epochs)]
    grants = [{} for _ in range(sc.epochs)]
    variant = (_ReferenceCentral if sc.variant == "CMF"
               else _ReferenceAutonomous)
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
            pos_epoch, pos_round = locate(clock, round_start)
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

    result = run_result(sc, trace, adapter.balances(), adapter.reports,
                        summaries, pool.capacity,
                        injections * sc.epoch_capacity)
    return result, receipts, findings


# five distinct prices; each scenario draws one of these budgets, so
# some distributes and claims exceed it and others do not
PRICED = dict(storage_read=700, storage_write=4300, heap_move=900,
              arithmetic_op=7, tx_base=19000)
BUDGETS = (19001, 40000, 60000, 8_000_000)


def grid(variant, n, priced):
    """Seeded scenarios with n users: every round span from n to n + 3
    (at least 1), 2 to 5 rounds per epoch, 0 to 4 epochs, and demands
    from the PRNG or scripted rows that are short, missing or hold None."""
    rng = random.Random(f"{variant} {n} {priced}")
    for round_span in range(max(n, 1), n + 4):
        for rounds in range(2, 6):
            epochs = rng.randrange(5)
            scripted = None
            if rng.random() < 0.6:
                scripted = tuple(
                    tuple(rng.choice((None, rng.randrange(1, 30)))
                          for _ in range(rng.randrange(n + 1)))
                    for _ in range(rng.randrange(epochs + 1)))
            model = (CostModel(**PRICED, block_budget=rng.choice(BUDGETS))
                     if priced else CostModel())
            yield Scenario(variant=variant, n=n,
                           epoch_capacity=rng.randrange(1, 40),
                           epoch_span=rounds * round_span,
                           round_span=round_span, epochs=epochs,
                           seed=rng.randrange(1 << 64), demand_hi=40,
                           cost_model=model, scripted_demands=scripted)


CASES = [(variant, n, priced) for variant in ("AMF", "WAMF", "CMF")
         for n in range(5) for priced in (False, True)]


# a record's receipt columns, in TxReceipt's field order
RECEIPT_FIELDS = attrgetter(*TxReceipt._fields)


def typed(rows) -> list:
    """Each row's values paired with their types, so a bool flag differs
    from an int."""
    return [tuple((type(v), v) for v in row) for row in rows]


@pytest.mark.parametrize("variant,n,priced", CASES)
def test_schedule_matches_the_block_by_block_loop(variant, n, priced):
    for sc in grid(variant, n, priced):
        got = run_scenario(sc)
        want, receipts, want_findings = reference_run_scenario(sc)
        assert all(type(r) is RoundRecord for r in got.records), sc
        assert (typed(r[:-1] for r in got.trace)
                == typed(r[:-1] for r in want.trace)), sc
        assert (typed(map(RECEIPT_FIELDS, got.receipts))
                == typed(receipts)), sc
        assert got.balances == want.balances, sc
        assert got.reports == want.reports, sc
        assert got.epoch_summaries == want.epoch_summaries, sc
        assert cli.findings(got) == want_findings, sc
        assert ((got.final_capacity, got.injected)
                == (want.final_capacity, want.injected)), sc


def test_grid_reaches_every_kind_of_block():
    seen = set()
    for case in CASES:
        for sc in grid(*case):
            result, _, _ = reference_run_scenario(sc)
            rounds = sc.epoch_span // sc.round_span
            for row in result.trace:
                offset = row.block % sc.round_span
                last = row.round == rounds - 1
                seen.add((row.action, row.over_budget))
                if row.action == "noop" and last and offset < sc.n:
                    seen.add("noop in a demand slot")
                if row.action == "noop" and row.epoch and not last:
                    seen.add("noop in a claim epoch")
                if row.action == "noop" and offset >= sc.n and offset:
                    seen.add("noop after a busy slot")
            if any(s.incomplete for s in result.epoch_summaries):
                seen.add("incomplete epoch finding")
            if any(s.depleted for s in result.epoch_summaries):
                seen.add("depleted epoch")
            if sc.epochs == 0:
                seen.add("no epochs")
    assert seen >= {
        ("register", False), ("demand", False), ("demand", True),
        ("claim", False), ("claim", True), ("distribute", False),
        ("distribute", True), ("noop", False),
        "noop in a demand slot", "noop in a claim epoch",
        "noop after a busy slot", "incomplete epoch finding",
        "depleted epoch", "no epochs"}
