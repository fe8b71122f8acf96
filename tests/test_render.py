"""Chunked CSV rendering and the per-run tables that share repeated
receipt values.

The renderers below the reference marker are the line-list renderers the
chunked ones replaced.  They are kept as they were, except that the trace
and receipt lines name each field they write, since one record per block
now feeds both CSVs.  Every renderer must return exactly their text on
synthetic results around the chunk boundaries, on runs of rows with the
same shared fields longer than two chunks, on runs around GROUP and
CHUNK rows long that start at and between chunk boundaries, and on runs
of every variant that span several chunks (``test_render_property`` adds
random traces).
A ``tracemalloc`` bound pins the memory the change saves, the identity
tests pin the sharing, and the CLI test checks that ``fairfaucet run``
writes the renderers' bytes.
"""

import json
import tracemalloc
from itertools import groupby
from operator import itemgetter

import pytest

from fairfaucet.cli import main
from fairfaucet.cmf import DistributionReport
from fairfaucet.costs import CostModel
from fairfaucet.sim import (CHUNK, GROUP, RoundRecord, RunResult, Scenario,
                            TraceRow, balances_csv, distributions_csv,
                            receipts_chunks, receipts_csv, run_scenario,
                            trace_chunks, trace_csv)
from round_records import run_result

# -- reference: the renderers before chunking ---------------------------------

TRACE_HEADER = "block,epoch,round,actor,action,amount,share,capacity,cost,over_budget"


def reference_trace_csv(result: RunResult) -> str:
    lines = [TRACE_HEADER]
    # %d writes the over_budget flag as 0 or 1
    lines.extend("%d,%d,%d,%d,%s,%d,%d,%d,%d,%d" % (
        r.block, r.epoch, r.round, r.actor, r.action, r.amount, r.share,
        r.capacity, r.cost, r.over_budget) for r in result.trace)
    return "\n".join(lines) + "\n"


def reference_receipts_csv(result: RunResult) -> str:
    lines = ["block,epoch,round,action,actor,cost,over_budget,summary"]
    lines.extend("%d,%d,%d,%s,%d,%d,%d,%s" % (
        r.block, r.epoch, r.round, r.kind, r.actor, r.cost, r.over_budget,
        r.summary) for r in result.receipts)
    return "\n".join(lines) + "\n"


def reference_balances_csv(result: RunResult) -> str:
    lines = ["user,balance"]
    for user in sorted(result.balances):
        lines.append(f"{user},{result.balances[user]}")
    return "\n".join(lines) + "\n"


def reference_distributions_csv(result: RunResult) -> str:
    lines = ["epoch,iteration,user,allocated,share,remaining_capacity"]
    for report in result.reports:
        row = f"{report.epoch},%d,%d,%d,%d,%d"  # then the grant row's fields
        lines.extend(row % r for r in report.rows)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------

PAIRS = [(trace_csv, reference_trace_csv),
         (receipts_csv, reference_receipts_csv),
         (balances_csv, reference_balances_csv),
         (distributions_csv, reference_distributions_csv)]

ACTIONS = ("register", "demand", "claim", "distribute", "noop")


def budgeted(budget: int) -> Scenario:
    """A scenario whose block budget is ``budget``, for hand-made rows."""
    return Scenario("AMF", 1, cost_model=CostModel(block_budget=budget))


# about one synthetic row in nine costs more than this
BUDGET = 110000


def synthetic(rows: int) -> RunResult:
    """A result with ``rows`` block rows, balances and grant rows (the
    grants split over an empty report and two others), with values that
    vary by row."""
    trace, grants = [], []
    for k in range(rows):
        action = ACTIONS[k % len(ACTIONS)]
        cost = 21000 + (k * 7919) % 100003
        trace.append(TraceRow(k, k // 40, k % 4, k % 13, action, k % 29,
                              k % 5, 10 ** 6 - k, cost, cost > BUDGET,
                              f"granted={k % 29}" if k % 3 else ""))
        grants.append((1 + k // 50, k % 97 + 1, k % 17, k % 23,
                       10 ** 5 - k))
    reports = [DistributionReport(epoch=1),
               DistributionReport(epoch=2, rows=grants[:rows // 3]),
               DistributionReport(epoch=3, rows=grants[rows // 3:])]
    # balances inserted in descending order, so rendering must sort them
    balances = {u: (u * 31) % 1000 for u in range(rows, 0, -1)}
    return run_result(budgeted(BUDGET), trace, balances, reports)


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                  3 * CHUNK + 7])
@pytest.mark.parametrize("render,reference", PAIRS,
                         ids=lambda f: getattr(f, "__name__", ""))
def test_renderers_match_reference_on_synthetic_results(rows, render,
                                                        reference):
    result = synthetic(rows)
    assert render(result) == reference(result)


def longest_run(trace) -> int:
    """Most consecutive records with equal epoch, round, action and
    over_budget, the fields a run of rows shares."""
    runs = groupby(trace, itemgetter(1, 2, 4, 9))
    return max((len(list(run)) for _, run in runs), default=0)


def test_renderers_match_reference_on_a_run_longer_than_two_chunks():
    """One round of 2 * CHUNK + 6 claims within the block budget, then 39
    over it: the first run crosses two chunk boundaries.  The grant rows
    are a run of 2 * CHUNK + 4 rows and one of 9."""
    size = 2 * CHUNK + 5
    trace = [TraceRow(k, 3, 1, k + 1, "claim", 20, 20, 10 ** 6 - 20 * k,
                      21000 + k % 3 + 40000 * (k > size), k > size,
                      "granted=20")
             for k in range(size + 40)]
    grants = [(1, k, 20, 20, 10 ** 6 - 20 * k) for k in range(1, size)]
    grants += [(2, k, 3, 3, 5) for k in range(size, size + 9)]
    result = run_result(budgeted(60000), trace, {1: 20},
                        [DistributionReport(epoch=4, rows=grants)])
    assert longest_run(trace) > 2 * CHUNK
    for render, reference in PAIRS:
        assert render(result) == reference(result), render.__name__


def test_renderers_match_reference_on_a_long_idle_round():
    """50 users in rounds of 2200 blocks: each round's no-op tail is one
    run of 2150 rows, over two chunks long."""
    result = run_scenario(Scenario("AMF", 50, round_span=2200,
                                   epoch_span=4400, epochs=2, seed=3))
    assert longest_run(result.trace) > 2 * CHUNK
    for render, reference in PAIRS:
        assert render(result) == reference(result), render.__name__


def busy_record(first: int, rnd: int, action: str, costs: list):
    """A record of one busy block per cost, from block ``first``, whose
    other columns vary by row."""
    k = len(costs)
    return RoundRecord(first, 2, rnd, action, range(first, first + k),
                       [i % 29 for i in range(k)], [i % 5 for i in range(k)],
                       [10 ** 6 - i for i in range(k)], costs,
                       [f"granted={i % 29}" for i in range(k)])


def kernel_result(lead: int, length: int, kind: str) -> RunResult:
    """``lead`` busy rows, then runs of ``length`` rows of ``kind``, then
    two busy rows.  A "busy" kind is one run within the block budget, a
    "split" one a record of three runs that the over_budget flag parts
    (within, over, within) and an "idle" one a record's idle blocks."""
    records = []
    if lead:
        records.append(busy_record(0, 0, "register",
                                   [21000 + i % 7 for i in range(lead)]))
    if kind == "idle":
        records.append(RoundRecord(lead, 2, 1, "noop", (), (), (), (), (),
                                   (), length, 3, 10 ** 5, 21000))
        size = length
    else:
        size = length if kind == "busy" else 3 * length
        records.append(busy_record(lead, 1, "claim", [
            21000 + i % 7 + BUDGET * (length <= i < 2 * length)
            for i in range(size)]))
    records.append(busy_record(lead + size, 3, "demand", [21000, 21001]))
    return RunResult(budgeted(BUDGET), records, {}, [], [], 0, 0)


@pytest.mark.parametrize("lead", [0, CHUNK, 3, CHUNK - 3],
                         ids=["first", "at-boundary", "mid-chunk",
                              "across-boundary"])
@pytest.mark.parametrize("kind", ["busy", "split", "idle"])
@pytest.mark.parametrize("length", [1, GROUP - 1, GROUP, GROUP + 1,
                                    2 * GROUP + 1, CHUNK - 1,
                                    CHUNK + GROUP - 1])
def test_kernel_matches_reference_at_group_and_chunk_edges(lead, kind,
                                                          length):
    """Runs around GROUP and CHUNK rows long, starting at a chunk boundary
    and within a chunk, render as the reference does, and every chunk but
    the last holds exactly CHUNK rows, so ``fairfaucet run`` writes the
    same pieces."""
    result = kernel_result(lead, length, kind)
    if kind == "split":
        assert [(stop - start, over) for start, stop, over in result.records[
            -2].over_budget(BUDGET)] == [(length, False), (length, True),
                                         (length, False)]
    for chunks, reference in [(trace_chunks, reference_trace_csv),
                              (receipts_chunks, reference_receipts_csv)]:
        header, *body = chunks(result)
        assert header + "".join(body) == reference(result), chunks.__name__
        rows = [chunk.count("\n") for chunk in body]
        assert rows[:-1] == [CHUNK] * (len(rows) - 1), chunks.__name__
        assert 0 < rows[-1] <= CHUNK, chunks.__name__


# one run per variant, from keys that a scenario file takes as they are;
# each trace spans at least two chunks, and the CMF demands from [1, 100)
# give it more than one chunk of grant rows
KEYS = {
    "AMF": dict(variant="AMF", n=150, seed=4),
    "WAMF": dict(variant="WAMF", n=150, seed=4),
    "CMF": dict(variant="CMF", n=200, seed=4, demand_lo=1, demand_hi=100),
}
RUNS = {variant: Scenario(**keys) for variant, keys in KEYS.items()}


@pytest.fixture(scope="module")
def runs():
    return {variant: run_scenario(sc) for variant, sc in RUNS.items()}


@pytest.mark.parametrize("variant", sorted(RUNS))
def test_renderers_match_reference_on_runs(runs, variant):
    result = runs[variant]
    assert len(result.trace) >= 2 * CHUNK
    if variant == "CMF":
        assert sum(len(rep.rows) for rep in result.reports) > CHUNK
    for render, reference in PAIRS:
        assert render(result) == reference(result), render.__name__


@pytest.mark.parametrize("render,result", [
    (trace_csv, "AMF"), (receipts_csv, "AMF"), (distributions_csv, "CMF")],
    ids=["trace_csv", "receipts_csv", "distributions_csv"])
def test_rendering_peak_memory_is_bounded_by_the_text(render, result,
                                                      long_runs):
    """The line-list renderers peaked at 4.3 to 4.6 times the length of the
    text they returned (a string per line, the join and a copy with the
    final newline); the chunked ones hold the chunks and their join, about
    twice the length."""
    result = long_runs[result]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = render(result)
        peak = tracemalloc.get_traced_memory()[1] - before
        assert peak < 2.5 * len(text), peak / len(text)
        del text
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_runs():
    """An AMF run of at least 8 chunks of records and a CMF run of at
    least 8 chunks of grant rows (a report's rows are chunked on their
    own)."""
    amf = run_scenario(Scenario("AMF", 600, seed=2))
    assert len(amf.trace) >= 8 * CHUNK
    cmf = run_scenario(Scenario("CMF", 1200, seed=2, demand_lo=1,
                                demand_hi=100))
    assert sum(-(-len(report.rows) // CHUNK) for report in cmf.reports) >= 8
    return {"AMF": amf, "CMF": cmf}


@pytest.mark.parametrize("variant", sorted(RUNS))
def test_equal_summaries_and_costs_are_one_object(runs, variant):
    result = runs[variant]
    summaries, costs = {}, {}
    for receipt in result.receipts:
        assert summaries.setdefault(receipt.summary,
                                    receipt.summary) is receipt.summary
        assert costs.setdefault(receipt.cost, receipt.cost) is receipt.cost
    for row in result.trace:
        assert costs.setdefault(row.cost, row.cost) is row.cost
    # the runs do repeat values, so the identities above are not vacuous
    assert len(summaries) < len(result.receipts) / 2
    assert len(costs) < len(result.receipts) / 10


@pytest.mark.parametrize("variant", ["AMF", "WAMF", "CMF"])
def test_cli_run_writes_the_renderers_bytes(runs, variant, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(KEYS[variant]))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    result = runs[variant]
    expected = {"trace.csv": trace_csv(result),
                "receipts.csv": receipts_csv(result),
                "balances.csv": balances_csv(result)}
    if variant == "CMF":
        expected["distributions.csv"] = distributions_csv(result)
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode(), name
