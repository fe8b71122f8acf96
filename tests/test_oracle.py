import random

import pytest

from fairfaucet.oracle import AllocationProblem, waterfill
from maxmin_reference import (is_maxmin_fair, leximin_brute_force,
                              sorted_levels)


def problem(demands, capacity, weights=None):
    return AllocationProblem(
        demands=dict(enumerate(demands, 1)), capacity=capacity,
        weights=None if weights is None else dict(enumerate(weights, 1)))


def test_fully_satisfiable_table_case():
    assert waterfill(problem([4, 11, 15], 30)) == {1: 4, 2: 11, 3: 15}


def test_single_overdemander_takes_everything():
    assert waterfill(problem([9], 4)) == {1: 4}


def test_weighted_split_matches_brute_force():
    p = problem([10, 10], 12, weights=(2, 1))
    alloc = waterfill(p)
    assert alloc == {1: 8, 2: 4}
    best_vec, _ = leximin_brute_force(p)
    assert sorted_levels(p, alloc) == best_vec


def test_capacity_surplus_returns_demands_exactly():
    rng = random.Random(3)
    for _ in range(50):
        demands = [rng.randrange(1, 40) for _ in range(rng.randrange(1, 8))]
        p = problem(demands, sum(demands) + rng.randrange(0, 20))
        assert waterfill(p) == dict(enumerate(demands, 1))


def test_waterfill_exhausts_capacity_when_scarce():
    rng = random.Random(4)
    for _ in range(100):
        demands = [rng.randrange(1, 30) for _ in range(rng.randrange(1, 10))]
        cap = rng.randrange(0, max(sum(demands) - 1, 1))
        alloc = waterfill(problem(demands, cap))
        assert sum(alloc.values()) == min(cap, sum(demands))


def test_unweighted_output_is_leximin_optimal():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randrange(1, 5)
        demands = [rng.randrange(1, 13) for _ in range(n)]
        cap = rng.randrange(0, 41)
        p = problem(demands, cap)
        alloc = waterfill(p)
        best_vec, _ = leximin_brute_force(p)
        assert sorted_levels(p, alloc) == best_vec, (demands, cap, alloc)


def test_waterfill_always_passes_fairness_check():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randrange(1, 8)
        demands = [rng.randrange(1, 40) for _ in range(n)]
        weights = None
        if rng.random() < 0.5:
            weights = tuple(rng.randrange(1, 6) for _ in range(n))
        cap = rng.randrange(0, 70)
        p = problem(demands, cap, weights)
        alloc = waterfill(p)
        ok, witness = is_maxmin_fair(p, alloc)
        assert ok, (demands, cap, weights, alloc, witness)


def test_fairness_checker_examples():
    p = problem([4, 11, 15], 30)
    assert is_maxmin_fair(p, {1: 4, 2: 11, 3: 15}) == (True, None)
    p2 = problem([10, 10], 10)
    ok, witness = is_maxmin_fair(p2, {1: 9, 2: 1})
    assert not ok
    assert witness == (2, 1)
    assert is_maxmin_fair(p2, {1: 5, 2: 5}) == (True, None)


def test_fairness_checker_flags_idle_capacity():
    p = problem([10, 10], 10)
    ok, witness = is_maxmin_fair(p, {1: 4, 2: 4})
    assert not ok
    assert witness[1] is None


def test_fairness_checker_rejects_infeasible_input():
    p = problem([5, 5], 6)
    with pytest.raises(ValueError, match="exceeds demand"):
        is_maxmin_fair(p, {1: 6, 2: 0})
    with pytest.raises(ValueError, match="exceeds capacity"):
        is_maxmin_fair(p, {1: 5, 2: 5})
    with pytest.raises(ValueError, match="negative"):
        is_maxmin_fair(p, {1: -1, 2: 0})


def test_waterfill_tie_break_is_by_id_whatever_the_input_order():
    # 7 units over three equal demands: two each, then the last unit to
    # the lowest id, wherever that user sits in the demands
    for demands in ({3: 5, 1: 5, 2: 5}, {2: 5, 3: 5, 1: 5}):
        assert waterfill(AllocationProblem(demands, 7)) == {1: 3, 2: 2, 3: 2}
        weighted = AllocationProblem(demands, 7, dict.fromkeys(demands, 2))
        assert waterfill(weighted) == {1: 3, 2: 2, 3: 2}


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unweighted", "weighted"])
def test_waterfill_does_not_depend_on_the_order_of_the_ids(weighted):
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randrange(1, 30)
        ids = rng.sample(range(1000), n)
        # few distinct demands and weights, so equal levels are common
        demands = [rng.randrange(1, 6) for _ in range(n)]
        weights = [rng.randrange(1, 3) for _ in range(n)] if weighted else None
        cap = rng.randrange(0, sum(demands))
        rows = list(zip(ids, demands, weights or [None] * n))
        alloc = None
        for _ in range(3):
            rng.shuffle(rows)
            p = AllocationProblem(
                {u: d for u, d, _ in rows}, cap,
                {u: w for u, _, w in rows} if weighted else None)
            got = waterfill(p)
            assert is_maxmin_fair(p, got) == (True, None)
            assert alloc is None or got == alloc, (rows, cap)
            alloc = got


def test_problem_validation():
    with pytest.raises(ValueError, match=">= 1"):
        AllocationProblem(demands={1: 0}, capacity=10)
    with pytest.raises(ValueError, match="align"):
        AllocationProblem(demands={1: 5}, capacity=10, weights={1: 1, 2: 2})
    with pytest.raises(ValueError, match="positive"):
        AllocationProblem(demands={1: 5}, capacity=10, weights={1: 0})
    for bad in (0, -3):
        with pytest.raises(ValueError, match="demands must be >= 1"):
            AllocationProblem({1: 5, 2: bad}, 10)
    # the demands are checked before the capacity
    with pytest.raises(ValueError, match="demands must be >= 1"):
        AllocationProblem({1: 0}, -1)
    with pytest.raises(ValueError, match="capacity must be >= 0"):
        AllocationProblem({1: 5}, -1)
    # weights name exactly the demanders: none missing, none extra, none
    # in place of another
    for weights in ({}, {1: 1}, {1: 1, 2: 1, 3: 1}, {1: 1, 3: 1}):
        with pytest.raises(ValueError, match="weights must align"):
            AllocationProblem({1: 5, 2: 5}, 10, weights=weights)
    # alignment is checked before positivity
    with pytest.raises(ValueError, match="weights must align"):
        AllocationProblem({1: 5}, 10, weights={1: 0, 2: 0})
    for weights in ({1: 1, 2: 0}, {1: -1, 2: 2}):
        with pytest.raises(ValueError, match="weights must be positive"):
            AllocationProblem({1: 5, 2: 5}, 10, weights=weights)
    # every amount is an int: a float capacity let waterfill grant more
    # than it, a float weight broke the integer level keys, and a bool
    # passed for 1
    for bad in (2.5, 5.0, True):
        with pytest.raises(ValueError, match="demands must be integers"):
            AllocationProblem({1: 5, 2: bad}, 10)
        with pytest.raises(ValueError, match="capacity must be an integer"):
            AllocationProblem({1: 5}, bad)
        with pytest.raises(ValueError, match="weights must be integers"):
            AllocationProblem({1: 5, 2: 5}, 10, weights={1: bad, 2: 1})
    for capacity in (False, None, "2"):
        with pytest.raises(ValueError, match="capacity must be an integer"):
            AllocationProblem({1: 5}, capacity)
    # an empty problem is valid, weighted or not, and allocates nothing
    for weights in (None, {}):
        empty = AllocationProblem({}, 0, weights)
        assert waterfill(empty) == {}
        assert is_maxmin_fair(empty, {}) == (True, None)


def test_the_oracle_leaves_the_problems_dicts_unchanged():
    rng = random.Random(14)
    for _ in range(60):
        # ids out of order, so a sort or a rebuild shows
        ids = rng.sample(range(1, 9), rng.randrange(1, 5))
        demands = {u: rng.randrange(1, 9) for u in ids}
        weights = None
        if rng.random() < 0.5:
            weights = {u: rng.randrange(1, 4) for u in ids}
        p = AllocationProblem(
            demands, rng.randrange(0, sum(demands.values()) + 3), weights)
        before = (list(demands.items()),
                  None if weights is None else list(weights.items()))
        alloc = waterfill(p)
        is_maxmin_fair(p, alloc)
        _, best = leximin_brute_force(p)
        sorted_levels(p, best)
        # the allocation is a dict of its own, even when it grants every
        # demand in full
        for u in alloc:
            alloc[u] = 0
        # the same items in the same insertion order
        assert (list(demands.items()),
                None if weights is None else list(weights.items())) == before
        assert p.demands is demands and p.weights is weights
