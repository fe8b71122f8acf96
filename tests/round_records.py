"""A run's records built from rows, for tests that write the rows of a
run by hand or keep them from a reference loop.

``run_result`` groups rows in ``TraceRow``'s field order, in block
order, into the ``RoundRecord``s that ``RunResult.records`` holds: one
record per stretch of rows with equal epoch, round and action, every row
a busy block.  A record derives each block from its first and each
over_budget flag from its cost, so the rows' blocks must be consecutive
within a stretch and each row's flag must be its cost above the
scenario's block budget; the helper checks both, so a row the records
cannot hold fails the test that built it.
"""

from itertools import groupby
from operator import attrgetter

from fairfaucet.sim import RoundRecord, RunResult, TraceRow

COLUMNS = attrgetter("actor", "amount", "share", "capacity", "cost",
                     "summary")


def round_records(rows, budget: int) -> list:
    records = []
    for (epoch, rnd, action), stretch in groupby(
            map(TraceRow._make, rows), attrgetter("epoch", "round",
                                                  "action")):
        stretch = list(stretch)
        first = stretch[0].block
        assert [r.block for r in stretch] == list(
            range(first, first + len(stretch))), "blocks not consecutive"
        assert all(r.over_budget == (r.cost > budget) for r in stretch), (
            "an over_budget flag is not the cost above the budget")
        records.append(RoundRecord(first, epoch, rnd, action,
                                   *map(list, zip(*map(COLUMNS, stretch)))))
    return records


def run_result(scenario, rows, balances=None, reports=(),
               epoch_summaries=(), final_capacity=0,
               injected=0) -> RunResult:
    return RunResult(
        scenario=scenario,
        records=round_records(rows, scenario.cost_model.block_budget),
        balances={} if balances is None else balances, reports=list(reports),
        epoch_summaries=list(epoch_summaries), final_capacity=final_capacity,
        injected=injected)
