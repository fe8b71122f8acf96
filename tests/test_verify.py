from pathlib import Path

import pytest

from fairfaucet.cli import findings
from fairfaucet.oracle import AllocationProblem, waterfill
from fairfaucet.sim import (EpochSummary, RunResult, Scenario, load_scenario,
                            run_scenario)
from fairfaucet.verify import (EXHAUSTED, MATCHED, MISMATCH, NO_DEMANDS,
                               TOTALS_ONLY, EpochCheck, VerifyReport,
                               verify_run)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_worked_example_run_verifies_cleanly():
    result = run_scenario(load_scenario(SCENARIOS / "amf_worked_example.json"))
    report = verify_run(result)
    assert report.ok
    assert [c.note for c in report.checks] == [MATCHED] * 4
    assert all(c.ok for c in report.checks)


def test_cmf_run_verifies_cleanly():
    result = run_scenario(load_scenario(SCENARIOS / "cmf_worked_example.json"))
    report = verify_run(result)
    assert report.ok
    assert report.checks == [EpochCheck(1, True)]


def test_depletion_round_is_served_in_arrival_order():
    # u1 demands 9, u2 demands 3, pool of 5: the last unit goes to the
    # earliest claimant (u1) while the oracle hands it to the smallest
    # remaining demand (u2)
    sc = Scenario(variant="AMF", n=2, epoch_capacity=5, epoch_span=8,
                  round_span=2, epochs=2, scripted_demands=((9, 3),))
    result = run_scenario(sc)
    summary = result.epoch_summaries[0]
    assert summary.depleted
    assert summary.granted == {1: 3, 2: 2}
    oracle = waterfill(AllocationProblem(demands={1: 9, 2: 3}, capacity=5))
    assert oracle == {1: 2, 2: 3}
    report = verify_run(result)
    assert report.ok
    assert report.checks == [EpochCheck(1, True, TOTALS_ONLY)]


def test_a_grant_above_demand_fails_a_depleted_epoch():
    # the totals still match the oracle's, so only bound 1 catches it
    result = run_scenario(load_scenario(SCENARIOS / "depletion_fcfs.json"))
    summary = result.epoch_summaries[0]
    assert summary.demands == {1: 9, 2: 3}
    summary.granted = {2: 5}
    report = verify_run(result)
    assert not report.ok
    assert report.first_diff == (1, 2, 5, 3)


def test_grants_that_miss_the_capacity_spent_fail_without_a_user():
    result = run_scenario(load_scenario(SCENARIOS / "amf_worked_example.json"))
    assert verify_run(result).ok
    summary = result.epoch_summaries[0]
    summary.capacity_end += 1
    assert verify_run(result).checks[0] == EpochCheck(
        1, False, MISMATCH, (1, None, 30, 29))


def test_exhausted_rounds_are_a_finding_not_a_failure():
    # constructed so the third round still leaves one unit and two live
    # demands: 41 = 1 + 11 + 15 + 15 - 1, shares 10/3/1 across the rounds
    sc = Scenario(variant="AMF", n=4, epoch_capacity=41, epoch_span=16,
                  round_span=4, epochs=2,
                  scripted_demands=((1, 11, 15, 15),))
    result = run_scenario(sc)
    summary = result.epoch_summaries[0]
    assert summary.incomplete
    assert summary.capacity_end == 1
    assert summary.granted == {1: 1, 2: 11, 3: 14, 4: 14}
    assert findings(result) == [
        "epoch 1: distribution incomplete after 3 claim rounds "
        "(a further round was needed)"]
    report = verify_run(result)
    assert report.ok
    assert report.checks == [EpochCheck(1, True, EXHAUSTED)]


def test_tampered_grants_fail_verification():
    result = run_scenario(load_scenario(SCENARIOS / "amf_worked_example.json"))
    result.epoch_summaries[0].granted[1] += 1
    report = verify_run(result)
    assert not report.ok
    epoch, user, got, want = report.first_diff
    assert (epoch, user) == (1, 1)
    assert got == want + 1


def test_wamf_runs_verify_against_the_weighted_oracle():
    for seed in (1, 2, 3):
        sc = Scenario("WAMF", 15, seed=seed, epochs=3)
        result = run_scenario(sc)
        assert result.conservation_ok()
        report = verify_run(result)
        assert report.ok, report.first_diff


def test_changed_weight_fails_the_per_user_comparison():
    # epoch 1 is depleted, yet its grants match the weighted oracle user
    # by user; doubling user 3's weight moves the oracle's answer, so the
    # epoch falls back to the totals-only check that depletion allows
    # (both sides hand out the whole pool, so the totals still agree)
    sc = Scenario("WAMF", 3, seed=1, epochs=3, demand_lo=10, demand_hi=60)
    result = run_scenario(sc)
    summary = result.epoch_summaries[0]
    assert summary.epoch == 1 and summary.depleted
    assert verify_run(result).checks[0] == EpochCheck(1, True)
    summary.weights[3] *= 2
    report = verify_run(result)
    assert report.checks[0] == EpochCheck(
        1, True, "depletion round served in arrival order")


def test_grant_to_a_user_without_demand_fails_verification():
    sc = Scenario(variant="AMF", n=3, epoch_capacity=30, epoch_span=12,
                  round_span=3, epochs=3, scripted_demands=((4, None, 15),))
    result = run_scenario(sc)
    assert verify_run(result).ok
    first, second = result.epoch_summaries
    assert 2 not in first.demands and second.demands == {}
    first.granted[2] = 7
    report = verify_run(result)
    assert not report.ok
    assert report.first_diff == (1, 2, 7, 0)
    assert report.checks[0].note == "allocation mismatch"
    # an epoch without demands is checked for grants too
    del first.granted[2]
    second.granted[3] = 1
    report = verify_run(result)
    assert not report.ok
    assert report.first_diff == (2, 3, 1, 0)
    assert report.checks[1] == EpochCheck(2, False, MISMATCH, (2, 3, 1, 0))
    # without the stray grant the epoch has no problem to compare
    del second.granted[3]
    assert verify_run(result).checks[1] == EpochCheck(2, True, NO_DEMANDS)


def test_a_grant_of_nothing_matches_the_oracles_zero():
    # the grants leave out user 3, whom the oracle lists with 0, so the
    # grants differ from the oracle's dict but match its allocation
    summary = EpochSummary(epoch=1, demands={1: 5, 2: 5, 3: 5}, weights=None,
                           capacity_start=2, granted={1: 1, 2: 1},
                           capacity_end=0)
    result = RunResult(scenario=None, trace=[], balances={}, reports=[],
                       epoch_summaries=[summary], final_capacity=0,
                       injected=0)
    want = waterfill(AllocationProblem(demands={1: 5, 2: 5, 3: 5},
                                       capacity=2))
    assert want == {1: 1, 2: 1, 3: 0} != summary.granted
    report = verify_run(result)
    assert report.ok
    assert report.checks == [EpochCheck(1, True)]
    assert report.checks[0].note == ""
    # one unit to user 3 is a mismatch, also under depletion: the totals
    # no longer agree
    summary.granted[3] = 1
    report = verify_run(result)
    assert not report.ok
    assert report.first_diff == (1, 3, 1, 0)


def test_ok_and_first_diff_are_read_from_the_checks():
    report = VerifyReport()
    assert report.ok and report.first_diff is None
    report.checks += [EpochCheck(1, True, NO_DEMANDS),
                      EpochCheck(2, True, TOTALS_ONLY)]
    assert report.ok and report.first_diff is None
    report.checks += [EpochCheck(3, False, MISMATCH, (3, 1, 2, 1)),
                      EpochCheck(4, False, MISMATCH, (4, 2, 0, 5))]
    assert not report.ok
    assert report.first_diff == (3, 1, 2, 1)


def test_the_check_kinds_keep_their_strings():
    # the benchmark harness counts epochs by these strings
    assert (MATCHED, MISMATCH, TOTALS_ONLY, NO_DEMANDS, EXHAUSTED) == (
        "", "allocation mismatch", "depletion round served in arrival order",
        "no demands", "rounds exhausted before completion")


def depleted_wamf_run():
    # capacity 10 per user: every epoch depletes, the first matches the
    # weighted oracle user by user and the others by totals only
    return run_scenario(Scenario(
        "WAMF", 20, seed=4, epochs=4, epoch_capacity=200))


def depletion_fcfs_run():
    return run_scenario(load_scenario(SCENARIOS / "depletion_fcfs.json"))


def dict_items(result):
    return [[list(d.items()) if d is not None else None
             for d in (s.demands, s.weights, s.granted)]
            for s in result.epoch_summaries]


@pytest.mark.parametrize("build", [depleted_wamf_run, depletion_fcfs_run])
def test_verify_leaves_the_summaries_dicts_unchanged(build):
    # the oracle's problem holds the summary's own dicts
    result = build()
    before = dict_items(result)
    assert verify_run(result).ok
    assert dict_items(result) == before


@pytest.mark.parametrize("build", [depleted_wamf_run, depletion_fcfs_run])
def test_verify_does_not_depend_on_the_order_of_the_dicts(build):
    # verify hands the summary's dicts to the oracle unsorted, so the
    # insertion order of the demands and weights must not matter; the
    # second pass adds a unit to one grant, so that the epoch fails
    for tamper in (False, True):
        result = build()
        assert all(s.depleted for s in result.epoch_summaries)
        if tamper:
            granted = result.epoch_summaries[0].granted
            granted[max(granted)] += 1
        want = verify_run(result)
        assert want.ok is not tamper
        for s in result.epoch_summaries:
            s.demands = dict(reversed(s.demands.items()))
            if s.weights is not None:
                s.weights = dict(reversed(s.weights.items()))
        got = verify_run(result)
        assert got.checks == want.checks
        assert got.first_diff == want.first_diff


def test_the_depleted_wamf_run_compares_both_ways():
    notes = [c.note for c in verify_run(depleted_wamf_run()).checks]
    assert notes == [MATCHED, TOTALS_ONLY, TOTALS_ONLY]
