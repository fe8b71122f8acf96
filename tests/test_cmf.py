import gc
import random
from types import SimpleNamespace

import pytest

from fairfaucet.cmf import USER_BITS, USER_MASK, CmfDistributor
from fairfaucet.heap import MinHeap
from fairfaucet.oracle import AllocationProblem, waterfill
from fairfaucet.sim import (MAX_BLOCKS, Scenario, distributions_csv,
                            run_scenario)
from fairfaucet.verify import verify_run
from meter_counts import counting_meter


def distribute(demands, capacity):
    dist = CmfDistributor(capacity)
    for user, amount in enumerate(demands, 1):
        dist.submit_demand(user, amount)
    return dist, dist.distribute(epoch=1)


def grant_matrix(report, users):
    """Per-iteration grants for the given user order, zeros filled in;
    the layout of a distribution table."""
    grants = [{} for _ in range(report.iterations)]
    for iteration, user, granted, _, _ in report.rows:
        grants[iteration - 1][user] = granted
    return [[row.get(u, 0) for u in users] for row in grants]


def test_worked_table_is_reproduced_exactly():
    dist, report = distribute([4, 11, 15], 30)
    assert report.shares == [10, 3, 2]
    assert grant_matrix(report, [1, 2, 3]) == [[4, 10, 10], [0, 1, 3], [0, 0, 2]]
    assert report.allocations == {1: 4, 2: 11, 3: 15}
    assert report.capacity_before == 30
    assert report.capacity_after == 0
    assert dist.balances == {1: 4, 2: 11, 3: 15}


def test_worked_table_csv_rows():
    _, report = distribute([4, 11, 15], 30)
    header, *lines = distributions_csv(
        SimpleNamespace(reports=[report])).splitlines()
    assert header == "epoch,iteration,user,allocated,share,remaining_capacity"
    assert [tuple(map(int, line.split(","))) for line in lines] == [
        (1, 1, 1, 4, 10, 26),
        (1, 1, 2, 10, 10, 16),
        (1, 1, 3, 10, 10, 6),
        (1, 2, 2, 1, 3, 5),
        (1, 2, 3, 3, 3, 2),
        (1, 3, 3, 2, 2, 0),
    ]


def test_underdemanders_leave_leftover_capacity():
    dist, report = distribute([5, 5, 5], 30)
    assert report.iterations == 1
    assert report.allocations == {1: 5, 2: 5, 3: 5}
    assert dist.capacity == 15  # carried to the next epoch


def test_symmetric_depletion():
    dist, report = distribute([10, 10, 10], 15)
    assert report.shares == [5]
    assert report.allocations == {1: 5, 2: 5, 3: 5}
    assert dist.capacity == 0


def test_rejects_empty_and_duplicate_demands():
    dist = CmfDistributor(30)
    with pytest.raises(ValueError, match="empty demand"):
        dist.submit_demand(1, 0)
    dist.submit_demand(1, 5)
    with pytest.raises(ValueError, match="already demanded"):
        dist.submit_demand(1, 7)
    # a new epoch starts after distribution, so the user may demand again
    dist.distribute()
    dist.submit_demand(1, 7)


def recorded_pops(monkeypatch):
    """The keys every ``MinHeap.del_min`` pops from now on, in order."""
    popped = []
    del_min = MinHeap.del_min

    def recording_del_min(heap):
        key = del_min(heap)
        popped.append(key)
        return key

    monkeypatch.setattr(MinHeap, "del_min", recording_del_min)
    return popped


def decoded(keys):
    return [(key >> USER_BITS, key & USER_MASK) for key in keys]


def test_heap_keys_are_packed_ints(monkeypatch):
    # A heap key is one int, demand << USER_BITS | user: a sift compares
    # two ints, not two tuples, and an int is never GC-tracked.
    popped = recorded_pops(monkeypatch)
    dist = CmfDistributor(30)
    for user, amount in enumerate([4, 11, 15], 1):
        dist.submit_demand(user, amount)
    queued = dist._queue._nodes
    assert sorted(decoded(queued)) == [(4, 1), (11, 2), (15, 3)]
    assert all(type(key) is int for key in queued)
    report = dist.distribute()
    # three iterations: the last two pop remainders built by the drain
    assert report.iterations == 3
    assert decoded(popped) == [(4, 1), (11, 2), (15, 3), (1, 2), (5, 3),
                               (2, 3)]
    assert all(type(key) is int and not gc.is_tracked(key)
               for key in popped)


def test_grant_rows_hold_the_submitted_user_ints():
    # a decoded user id is a fresh int; each row keeps the one submitted,
    # so a grant row adds no int of its own
    users = [1000 + k for k in range(3)]  # above the small-int cache
    dist = CmfDistributor(30)
    for user, amount in zip(users, [4, 11, 15]):
        dist.submit_demand(user, amount)
    report = dist.distribute()
    assert len(report.rows) == 6
    assert all(any(row[1] is user for user in users) for row in report.rows)


def test_user_bits_hold_every_user_id_a_run_can_have():
    # users are 1..n with n <= round_span <= epoch_span <= MAX_BLOCKS
    assert MAX_BLOCKS <= USER_MASK


@pytest.mark.parametrize("demands", [
    {9: 5, 2: 5, 7: 5, 4: 5, 3: 1},                      # tied demands
    {1: 2 ** 33 + 7, 2: 3, 3: 2 ** 33 + 7, 4: 2 ** 32},   # above 2**32
    {MAX_BLOCKS: 6, 1: 6, MAX_BLOCKS - 1: 2 ** 40, 5: 1},  # largest id
], ids=["ties", "above 2**32", "largest user id"])
def test_drain_order_is_sorted_demand_user_order(monkeypatch, demands):
    popped = recorded_pops(monkeypatch)
    dist = CmfDistributor(sum(demands.values()))
    for user, amount in demands.items():
        dist.submit_demand(user, amount)
    report = dist.distribute()
    # the first iteration pops every queued key once
    expected = sorted((amount, user) for user, amount in demands.items())
    assert decoded(popped[:len(demands)]) == expected
    assert [row[1] for row in report.rows[:len(demands)]] == [
        user for _, user in expected]
    assert report.allocations == demands
    assert dist.capacity == 0


def test_scripted_demand_above_2_32_runs_and_verifies():
    big = 2 ** 33 + 5
    sc = Scenario("CMF", 3, epoch_capacity=big + 20, epoch_span=6,
                  round_span=3, epochs=2, scripted_demands=((big, 9, 9),))
    result = run_scenario(sc)
    report = result.reports[0]
    assert [row[1] for row in report.rows if row[0] == 1] == [2, 3, 1]
    assert report.allocations == {1: big, 2: 9, 3: 9}
    assert verify_run(result).ok and result.conservation_ok()


@pytest.mark.parametrize("user, amount, error", [
    (-1, 5, ValueError), (1 << USER_BITS, 5, ValueError),
    ((1 << USER_BITS) + 1, 5, ValueError),
    (1.0, 5, TypeError), (1, 5.0, TypeError),     # no int key to queue
])
def test_bad_demand_is_rejected_without_a_charge(user, amount, error):
    meter = counting_meter()
    dist = CmfDistributor(30, meter)
    with pytest.raises(error):
        dist.submit_demand(user, amount)
    assert meter.units == 0
    assert len(dist._queue) == 0
    assert dist._demanded == {}


def test_grant_rows_are_exact_tuples_the_collector_untracks():
    # A grant row must be a plain tuple of ints: the garbage collector
    # untracks such a tuple once it has seen it, never a NamedTuple or
    # other subclass instance, and a job keeps every row until it ends.
    _, report = distribute([4, 11, 15], 30)
    assert report.rows[0] == (1, 1, 4, 10, 26)
    assert all(type(row) is tuple for row in report.rows)
    gc.collect()
    assert not any(gc.is_tracked(row) for row in report.rows)


def test_distribute_with_no_demands_still_accrues_capacity():
    dist = CmfDistributor(20)
    report = dist.distribute()
    assert report.iterations == 0
    assert report.allocations == {}
    assert (dist.capacity, dist.injections) == (20, 1)
    dist.distribute()  # each distribute counts its top-up
    assert (dist.capacity, dist.injections) == (40, 2)


def test_unsatisfied_demands_are_discarded_on_depletion():
    dist, report = distribute([10, 10], 5)
    assert dist.capacity == 0
    assert sum(report.allocations.values()) == 5
    assert len(dist._queue) == 0
    # next epoch starts from a clean slate
    dist.submit_demand(1, 3)
    second = dist.distribute()
    assert second.allocations == {1: 3}


def random_instance(rng):
    n = rng.randrange(1, 201)
    demands = [rng.randrange(1, 51) for _ in range(n)]
    capacity = rng.randrange(1, sum(demands) + 25)
    return demands, capacity


def test_matches_water_filling_oracle_on_randomized_instances():
    rng = random.Random(2024)
    for _ in range(120):
        demands, capacity = random_instance(rng)
        _, report = distribute(demands, capacity)
        oracle = waterfill(AllocationProblem(
            demands=dict(enumerate(demands, 1)), capacity=capacity))
        got = {u: report.allocations.get(u, 0) for u in oracle}
        assert got == oracle, (demands, capacity)


def test_conservation_demand_cap_and_share_positivity():
    rng = random.Random(77)
    for _ in range(150):
        demands, capacity = random_instance(rng)
        dist, report = distribute(demands, capacity)
        granted = sum(report.allocations.values())
        assert granted == report.capacity_before - report.capacity_after
        assert dist.capacity >= 0
        for user, amount in enumerate(demands, 1):
            assert report.allocations.get(user, 0) <= amount
        assert all(s >= 1 for s in report.shares)


def test_outer_iterations_bounded_by_distinct_demand_values():
    rng = random.Random(31)
    for _ in range(150):
        demands, capacity = random_instance(rng)
        _, report = distribute(demands, capacity)
        assert report.iterations <= len(set(demands)) + 1
