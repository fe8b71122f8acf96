from pathlib import Path

import pytest

from fairfaucet import costs
from fairfaucet.costs import (PATH_CHARGES, ActionStats, CostMeter, CostModel,
                             cost_report)
from fairfaucet.heap import MinHeap
from fairfaucet.sim import Scenario, load_scenario, run_scenario
from round_records import run_result


def test_model_validation():
    with pytest.raises(ValueError, match="block_budget"):
        CostModel(tx_base=100, block_budget=100)
    with pytest.raises(ValueError, match="storage_read"):
        CostModel(storage_read=-1)


def test_meter_totals_follow_the_model():
    model = CostModel(storage_read=10, storage_write=100, heap_move=7,
                      arithmetic_op=1, tx_base=1000, block_budget=5000)
    meter = CostMeter(model)
    # three ascending keys adopted: 2 compares at arithmetic_op and 3
    # moves at heap_move, two prices this model keeps apart
    heap = MinHeap.from_ascending([1, 2, 3], meter)
    # tx_base is the caller's to add; total zeroes what it priced
    assert meter.total() == 2 * 1 + 3 * 7
    assert meter.total() == 0
    heap.del_min()  # 1 compare and 2 moves
    meter.units += meter.paths["claim_granted"]
    assert meter.total() == 1 + 2 * 7 + (110 + 500 + 3)
    assert meter.total() == 0


def test_meter_prices_every_path_row_at_its_model():
    model = CostModel(storage_read=10, storage_write=100, heap_move=7,
                      arithmetic_op=1, tx_base=1000, block_budget=5000)
    assert CostMeter(model).paths == {
        name: 10 * reads + 100 * writes + ariths
        for name, (reads, writes, ariths) in PATH_CHARGES.items()}
    # the default model's prices
    assert CostMeter().paths["claim_satisfied"] == 12 * 800 + 6 * 5000 + 3 * 5


def readme_cost_table() -> list:
    """The rows of the README's "Cost model" table: (key, (reads, writes,
    ariths)), in table order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Cost model\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 6 or not cells[2].isdigit():
            continue  # prose, the header or the separator
        rows.append((cells[5].strip("`"), tuple(map(int, cells[2:5]))))
    return rows


def test_readme_cost_table_is_path_charges():
    rows = readme_cost_table()
    keys = [key for key, _ in rows]
    assert len(keys) == len(set(keys)), keys
    # every README row is its table entry, and every entry has a row
    assert dict(rows) == PATH_CHARGES


def test_report_aggregates_by_action_and_round():
    # a budget of 60 units puts the demand, at 70, over it
    result = run_result(Scenario("AMF", 2, cost_model=CostModel(
        tx_base=20, block_budget=60)), [
        (0, 1, 0, 1, "claim", 3, 3, 27, 100, True, "granted=3"),
        (1, 1, 0, 2, "claim", 3, 3, 24, 200, True, "granted=3"),
        (2, 1, 1, 1, "claim", 0, 0, 24, 50, False, "no-op"),
        (3, 1, 3, 1, "demand", 9, 0, 24, 70, True, "amount=9"),
    ])
    summary = cost_report(result)
    assert summary.by_action["claim"].count == 3
    assert summary.by_action["claim"].total == 350
    assert summary.claim_by_round[0].mean == 150
    assert summary.claim_by_round[1].count == 1
    assert summary.by_action["demand"].total == 70
    assert summary.over_budget == 3
    assert "over-budget transactions: 3" in summary.render()


def test_report_builds_one_stats_object_per_key(monkeypatch):
    # the summary of a run is its records summed per kind and claim round;
    # a stats object is built the first time its key is seen, not per record
    result = run_scenario(Scenario("AMF", 12, seed=4, epochs=3))
    receipts = list(result.receipts)
    by_action, by_round = {}, {}
    for r in receipts:
        count, total = by_action.get(r.kind, (0, 0))
        by_action[r.kind] = (count + 1, total + r.cost)
        if r.kind == "claim":
            count, total = by_round.get(r.round, (0, 0))
            by_round[r.round] = (count + 1, total + r.cost)
    built = []

    class Counted(ActionStats):
        __slots__ = ()

        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(costs, "ActionStats", Counted)
    summary = cost_report(result)
    assert {k: (s.count, s.total)
            for k, s in summary.by_action.items()} == by_action
    assert {k: (s.count, s.total)
            for k, s in summary.claim_by_round.items()} == by_round
    assert summary.over_budget == sum(r.over_budget for r in receipts)
    assert len(built) == len(by_action) + len(by_round) < len(receipts)


def test_a_run_of_no_blocks_makes_an_empty_summary():
    summary = cost_report(run_scenario(Scenario("AMF", 4, epochs=0)))
    assert summary.by_action == {}
    assert summary.claim_by_round == {}
    assert summary.mean("claim") == 0.0


def test_over_budget_flag_reflects_budget():
    tight = CostModel(block_budget=22000)  # barely above tx_base
    sc = Scenario("AMF", 4, seed=5, epochs=2, cost_model=tight)
    result = run_scenario(sc)
    assert any(row.over_budget for row in result.trace), (
        "claims must exceed it")
    for row in result.trace:
        assert row.over_budget == (row.cost > tight.block_budget)
    noops = [r for r in result.receipts if r.kind == "noop"]
    assert all(not r.over_budget for r in noops)


def test_claim_means_nearly_constant_in_user_count():
    means = {}
    for n in (10, 500):
        sc = Scenario("AMF", n, seed=42, epochs=4)
        means[n] = cost_report(run_scenario(sc)).mean("claim")
    assert max(means.values()) <= 1.10 * min(means.values()), means


def test_budget_threshold_separates_cmf_from_amf():
    # with the default model there is a user count beyond which the
    # central distribute no longer fits in a block while claims always do
    threshold = None
    for n in (50, 100, 200, 400, 800):
        sc = Scenario("CMF", n, seed=9, epochs=3)
        result = run_scenario(sc)
        if any(r.kind == "distribute" and r.over_budget
               for r in result.receipts):
            threshold = n
            break
    assert threshold is not None
    amf = run_scenario(Scenario("AMF", threshold, seed=9, epochs=3))
    assert not [r for r in amf.receipts
                if r.kind == "claim" and r.over_budget]


def test_first_transaction_of_an_epoch_carries_the_update_cost():
    sc = Scenario("AMF", 8, seed=2, epochs=3)
    result = run_scenario(sc)
    claims = [r for r in result.receipts if r.kind == "claim" and r.epoch == 1]
    first_of_round = {}
    for r in claims:
        first_of_round.setdefault(r.round, r)
    # the epoch-boundary claim also pays for the capacity top-up writes
    later_round_zero = [r for r in claims
                        if r.round == 0 and r is not first_of_round[0]]
    assert first_of_round[0].cost > max(r.cost for r in later_round_zero)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# cost_report(...).by_action as kind -> (count, total units), and the
# over-budget count, for every committed scenario plus one CMF run at the
# benchmark geometry with 200 users, so heap charges are pinned at a size
# where sift paths run several levels deep
METERING = {
    "amf_budget_split": ({"claim": (480, 19968430), "demand": (200, 10405050),
                          "noop": (80, 1680000),
                          "register": (40, 1240000)}, 166),
    "amf_n10": ({"claim": (90, 3708890), "demand": (40, 2128440),
                 "noop": (20, 420000), "register": (10, 310000)}, 0),
    "amf_worked_example": ({"claim": (36, 1705390), "demand": (12, 682800),
                            "noop": (9, 189000), "register": (3, 93000)}, 0),
    "cmf_n10": ({"demand": (40, 1124275), "distribute": (3, 368810),
                 "noop": (107, 2247000), "register": (10, 310000)}, 0),
    "cmf_worked_example": ({"demand": (3, 82810), "distribute": (1, 76305),
                            "noop": (17, 357000), "register": (3, 93000)},
                           0),
    "depletion_fcfs": ({"claim": (6, 293210), "demand": (2, 119070),
                        "noop": (6, 126000), "register": (2, 62000)}, 0),
    "rounds_exhausted": ({"claim": (12, 643420), "demand": (4, 222330),
                          "noop": (12, 252000), "register": (4, 124000)}, 0),
    "wamf_n10": ({"claim": (90, 3831330), "demand": (40, 2128440),
                  "noop": (20, 420000), "register": (10, 310000)}, 0),
    "cmf_benchmark_n200_seed5": (
        {"demand": (800, 22748020), "distribute": (3, 11129185),
         "noop": (2197, 46137000), "register": (200, 6200000)}, 0),
}


@pytest.mark.parametrize("name",
                         sorted(p.stem for p in SCENARIOS.glob("*.json"))
                         + ["cmf_benchmark_n200_seed5"])
def test_metering_is_pinned(name):
    if name == "cmf_benchmark_n200_seed5":
        sc = Scenario("CMF", 200, seed=5)
    else:
        sc = load_scenario(SCENARIOS / f"{name}.json")
    summary = cost_report(run_scenario(sc))
    by_action = {kind: (st.count, st.total)
                 for kind, st in summary.by_action.items()}
    assert (by_action, summary.over_budget) == METERING[name]
