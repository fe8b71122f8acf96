from pathlib import Path

import pytest

from fairfaucet.costs import ActionStats, CostMeter, CostModel, cost_report
from fairfaucet.sim import Scenario, TraceRow, load_scenario, run_scenario


def test_model_validation():
    with pytest.raises(ValueError, match="block_budget"):
        CostModel(tx_base=100, block_budget=100)
    with pytest.raises(ValueError, match="storage_read"):
        CostModel(storage_read=-1)


def test_meter_totals_follow_the_model():
    meter = CostMeter()
    meter.charge(reads=3, writes=2, ariths=10, heap_moves=4)
    model = CostModel(storage_read=10, storage_write=100, heap_move=7,
                      arithmetic_op=1, tx_base=1000, block_budget=5000)
    # tx_base is the caller's to add; total zeroes what it priced
    assert meter.total(model) == 30 + 200 + 28 + 10
    assert meter.total(model) == 0
    meter.charge(reads=1, heap_moves=1)
    meter.reset()
    assert meter.total(model) == 0


def test_report_aggregates_by_action_and_round():
    receipts = [
        TraceRow(0, 1, 0, 1, "claim", 3, 3, 27, 100, False, "granted=3"),
        TraceRow(1, 1, 0, 2, "claim", 3, 3, 24, 200, False, "granted=3"),
        TraceRow(2, 1, 1, 1, "claim", 0, 0, 24, 50, False, "no-op"),
        TraceRow(3, 1, 3, 1, "demand", 9, 0, 24, 70, True, "amount=9"),
    ]
    summary = cost_report(receipts)
    assert summary.by_action["claim"].count == 3
    assert summary.by_action["claim"].total == 350
    assert summary.claim_by_round[0].mean == 150
    assert summary.claim_by_round[1].count == 1
    assert summary.by_action["demand"].total == 70
    assert summary.over_budget == 1
    assert "over-budget transactions: 1" in summary.render()


def test_empty_receipts_make_an_empty_summary():
    summary = cost_report([])
    assert summary.by_action == {}
    assert summary.claim_by_round == {}
    assert summary.mean("claim") == 0.0


def test_over_budget_flag_reflects_budget():
    tight = CostModel(block_budget=22000)  # barely above tx_base
    sc = Scenario("AMF", 4, seed=5, epochs=2, cost_model=tight)
    result = run_scenario(sc)
    flagged = result.over_budget_receipts()
    assert flagged, "claims must exceed a tight budget"
    for receipt in result.receipts:
        assert receipt.over_budget == (receipt.cost > tight.block_budget)
    noops = [r for r in result.receipts if r.kind == "noop"]
    assert all(not r.over_budget for r in noops)


def test_claim_means_nearly_constant_in_user_count():
    means = {}
    for n in (10, 500):
        sc = Scenario("AMF", n, seed=42, epochs=4)
        means[n] = cost_report(run_scenario(sc).receipts).mean("claim")
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
    summary = cost_report(run_scenario(sc).receipts)
    by_action = {kind: (st.count, st.total)
                 for kind, st in summary.by_action.items()}
    assert (by_action, summary.over_budget) == METERING[name]
