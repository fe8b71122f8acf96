from pathlib import Path

import pytest

from fairfaucet.cli import findings
from fairfaucet.oracle import AllocationProblem, waterfill
from fairfaucet.sim import (EpochSummary, RunResult, Scenario, load_scenario,
                            run_scenario)
from fairfaucet.verify import (MATCHED, MISMATCH, NO_DEMANDS, EpochCheck,
                               VerifyReport, verify_run)

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
    # remaining demand (u2); the replay of the claim rounds agrees with
    # the run
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
    assert report.checks == [EpochCheck(1, True)]


def test_the_water_fills_answer_fails_a_depletion_round():
    # one unit moved from user 1 to user 2 keeps every bound and gives
    # the oracle's {1: 2, 2: 3}, but the claim rounds grant {1: 3, 2: 2}
    result = run_scenario(load_scenario(SCENARIOS / "depletion_fcfs.json"))
    summary = result.epoch_summaries[0]
    summary.granted[1] -= 1
    summary.granted[2] += 1
    report = verify_run(result)
    assert not report.ok
    assert report.checks == [EpochCheck(1, False, MISMATCH, (1, 1, 2, 3))]


def depleted_cmf_run():
    # pool of 20 for demands 3, 9, 12, 8: a share of 5 satisfies user 1,
    # and the last 2 units go one each to users 4 and 2
    result = run_scenario(Scenario("CMF", 4, epoch_capacity=20, epochs=2,
                                   scripted_demands=((3, 9, 12, 8),)))
    summary = result.epoch_summaries[0]
    assert summary.depleted
    assert summary.granted == {1: 3, 4: 6, 2: 6, 3: 5}
    assert verify_run(result).checks == [EpochCheck(1, True)]
    # verify tells CMF from the run's reports, not from its scenario
    result.scenario = None
    return result, summary


def test_a_depleted_cmf_epoch_is_compared_user_by_user():
    # one unit moved from user 2 to user 3 keeps every bound and the
    # totals; the drain is the water-fill, so no arrival order excuses it
    result, summary = depleted_cmf_run()
    summary.granted[2] -= 1
    summary.granted[3] += 1
    report = verify_run(result)
    assert not report.ok
    assert report.checks == [EpochCheck(1, False, MISMATCH, (1, 2, 5, 6))]


def test_a_cmf_epoch_with_capacity_left_is_compared_user_by_user():
    # one unit kept back from user 3: the grants still sum to the capacity
    # spent, yet a CMF distribute has no claim rounds to run out of
    result, summary = depleted_cmf_run()
    summary.granted[3] -= 1
    summary.capacity_end += 1
    assert summary.incomplete
    report = verify_run(result)
    assert not report.ok
    assert report.checks == [EpochCheck(1, False, MISMATCH, (1, 3, 4, 5))]


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
    assert report.checks == [EpochCheck(1, True)]


def test_exhausted_rounds_are_compared_user_by_user():
    # one unit moved from user 3 to user 4 keeps every bound and leaves
    # the same unit unspent, but the third round granted users 3 and 4
    # one unit each
    result = run_scenario(load_scenario(SCENARIOS / "rounds_exhausted.json"))
    summary = result.epoch_summaries[0]
    assert summary.incomplete
    assert summary.granted == {1: 1, 2: 11, 3: 14, 4: 14}
    summary.granted[3] -= 1
    summary.granted[4] += 1
    report = verify_run(result)
    assert not report.ok
    assert report.checks == [EpochCheck(1, False, MISMATCH, (1, 3, 13, 14))]


def test_tampered_grants_fail_verification():
    result = run_scenario(load_scenario(SCENARIOS / "amf_worked_example.json"))
    result.epoch_summaries[0].granted[1] += 1
    report = verify_run(result)
    assert not report.ok
    epoch, user, got, want = report.first_diff
    assert (epoch, user) == (1, 1)
    assert got == want + 1


def test_wamf_runs_verify_on_the_water_fill_and_the_replay():
    # capacity 280 against a mean total demand of 300: an epoch whose
    # grants meet every demand goes to the water-fill, and a depleted one
    # to the replay with weights derived from the run's demands
    routes = set()
    for seed in (1, 2, 3):
        sc = Scenario("WAMF", 15, seed=seed, epochs=4, epoch_capacity=280)
        result = run_scenario(sc)
        assert result.conservation_ok()
        report = verify_run(result)
        assert report.ok, report.first_diff
        for s in result.epoch_summaries:
            if s.demands and s.granted == s.demands:
                routes.add("water-fill")
            elif s.depleted:
                routes.add("replay")
    assert routes == {"water-fill", "replay"}


def test_a_changed_earlier_demand_fails_a_later_depleted_epoch():
    # verify derives epoch 2's weights from the demands of epochs 0 and
    # 1; doubling user 3's demand of epoch 0 lowers its weight, and the
    # replayed rounds of epoch 2, whose own demands and grants are
    # untouched, no longer match the run
    sc = Scenario("WAMF", 3, seed=1, epochs=3, demand_lo=10, demand_hi=60)
    result = run_scenario(sc)
    first, second = result.epoch_summaries
    assert second.epoch == 2 and second.depleted
    assert verify_run(result).checks[1] == EpochCheck(2, True)
    first.demands[3] *= 2
    report = verify_run(result)
    assert report.checks[1] == EpochCheck(2, False, MISMATCH, (2, 1, 24, 28))


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
    # the grants leave out user 3, whom the oracle lists with 0; the
    # claim rounds grant one floored unit each to users 1 and 2 and
    # nothing to user 3
    summary = EpochSummary(epoch=1, demands={1: 5, 2: 5, 3: 5},
                           capacity_start=2, granted={1: 1, 2: 1},
                           capacity_end=0)
    result = RunResult(scenario=Scenario("AMF", 3, epoch_capacity=2),
                       records=[], balances={}, reports=[],
                       epoch_summaries=[summary], final_capacity=0,
                       injected=0)
    want = waterfill(AllocationProblem(demands={1: 5, 2: 5, 3: 5},
                                       capacity=2))
    assert want == {1: 1, 2: 1, 3: 0} != summary.granted
    report = verify_run(result)
    assert report.ok
    assert report.checks == [EpochCheck(1, True)]
    assert report.checks[0].note == ""
    # one unit to user 3 is a mismatch
    summary.granted[3] = 1
    report = verify_run(result)
    assert not report.ok
    assert report.first_diff == (1, 3, 1, 0)


def test_ok_and_first_diff_are_read_from_the_checks():
    report = VerifyReport()
    assert report.ok and report.first_diff is None
    report.checks += [EpochCheck(1, True, NO_DEMANDS), EpochCheck(2, True)]
    assert report.ok and report.first_diff is None
    report.checks += [EpochCheck(3, False, MISMATCH, (3, 1, 2, 1)),
                      EpochCheck(4, False, MISMATCH, (4, 2, 0, 5))]
    assert not report.ok
    assert report.first_diff == (3, 1, 2, 1)


def test_the_check_kinds_keep_their_strings():
    # the benchmark harness counts epochs by these strings
    assert (MATCHED, MISMATCH, NO_DEMANDS) == (
        "", "allocation mismatch", "no demands")


def depleted_wamf_run():
    # capacity 10 per user: every epoch depletes, so verify replays the
    # claim rounds of each
    return run_scenario(Scenario(
        "WAMF", 20, seed=4, epochs=4, epoch_capacity=200))


def depletion_fcfs_run():
    return run_scenario(load_scenario(SCENARIOS / "depletion_fcfs.json"))


def dict_items(result):
    return [[list(d.items()) for d in (s.demands, s.granted)]
            for s in result.epoch_summaries]


@pytest.mark.parametrize("build", [depleted_wamf_run, depletion_fcfs_run])
def test_verify_leaves_the_summaries_dicts_unchanged(build):
    # the oracle's problem and the replay read the summary's own dicts
    result = build()
    before = dict_items(result)
    assert verify_run(result).ok
    assert dict_items(result) == before


@pytest.mark.parametrize("build", [depleted_wamf_run, depletion_fcfs_run])
def test_verify_does_not_depend_on_the_order_of_the_dicts(build):
    # the insertion order of the demands and grants must not matter: the
    # replay sorts the demands by user id; the second pass adds a unit to
    # one grant, so that the epoch fails
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
            s.granted = dict(reversed(s.granted.items()))
        got = verify_run(result)
        assert got.checks == want.checks
        assert got.first_diff == want.first_diff


def test_the_depleted_wamf_run_is_compared_user_by_user():
    notes = [c.note for c in verify_run(depleted_wamf_run()).checks]
    assert notes == [MATCHED] * 3
