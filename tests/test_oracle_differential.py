"""Differential tests: the oracle against its earlier, slower form.

``reference_weighted_waterfill``, ``reference_unweighted_waterfill`` and
``reference_is_maxmin_fair`` are the pre-rewrite implementations, kept
verbatim (one unit of remainder at a time; a fresh sort of the active
users on every pass; every recipient against every donor) as the
behaviour the faster oracle must reproduce.
"""

import math
import random
from fractions import Fraction

from fairfaucet.oracle import AllocationProblem, waterfill
from maxmin_reference import is_maxmin_fair, weight_of


def reference_weighted_waterfill(problem: AllocationProblem) -> dict:
    demands = dict(problem.demands)
    users = sorted(demands)
    weight = {u: weight_of(problem, u) for u in users}
    c = problem.capacity
    if c >= sum(demands.values()):
        return dict(demands)

    # continuous solve: users cap out in order of demand/weight while the
    # common level rises until the capacity is exactly consumed
    order = sorted(users, key=lambda u: (Fraction(demands[u], weight[u]), u))
    active_weight = sum(weight.values())
    level = Fraction(0)
    budget = Fraction(c)
    for u in order:
        cap_level = Fraction(demands[u], weight[u])
        needed = (cap_level - level) * active_weight
        if needed > budget:
            break
        budget -= needed
        level = cap_level
        active_weight -= weight[u]
    level += Fraction(budget, active_weight)

    alloc = {u: min(demands[u],
                    (weight[u] * level.numerator) // level.denominator)
             for u in users}
    leftover = c - sum(alloc.values())
    while leftover > 0:
        needy = [u for u in users if alloc[u] < demands[u]]
        if not needy:
            break
        lowest = min(needy, key=lambda v: (Fraction(alloc[v], weight[v]), v))
        alloc[lowest] += 1
        leftover -= 1
    return alloc


def reference_unweighted_waterfill(problem: AllocationProblem) -> dict:
    remaining = {u: a for u, a in problem.demands.items()}
    alloc = {u: 0 for u in problem.demands}
    c = problem.capacity
    while c > 0:
        active = sorted((u for u in remaining if remaining[u] > 0),
                        key=lambda u: (remaining[u], u))
        if not active:
            break
        share = 1 if c < len(active) else c // len(active)
        for u in active:
            if c == 0:
                break
            grant = min(share, remaining[u], c)
            alloc[u] += grant
            remaining[u] -= grant
            c -= grant
    return alloc


def reference_is_maxmin_fair(problem: AllocationProblem, alloc: dict):
    demands = dict(problem.demands)
    for u, a in alloc.items():
        if u not in demands:
            raise ValueError(f"allocation for unknown user {u}")
        if a < 0:
            raise ValueError(f"negative allocation for user {u}")
        if a > demands[u]:
            raise ValueError(f"allocation exceeds demand for user {u}")
    total = sum(alloc.values())
    if total > problem.capacity:
        raise ValueError("allocation exceeds capacity")

    unsatisfied = [u for u in demands if alloc.get(u, 0) < demands[u]]
    if problem.capacity - total >= 1 and unsatisfied:
        return False, (min(unsatisfied), None)
    for u in unsatisfied:
        wu = weight_of(problem, u)
        for v in demands:
            if v == u or alloc.get(v, 0) < 1:
                continue
            wv = weight_of(problem, v)
            # donor still at or above the recipient after moving one unit
            if (alloc[v] - 1) * wu >= (alloc.get(u, 0) + 1) * wv:
                return False, (u, v)
    return True, None


def random_problem(rng: random.Random, weighted: bool) -> AllocationProblem:
    """One instance drawn from a mix of shapes: small or large demands,
    tied levels (demands that are multiples of their weights), WAMF-sized
    fixed-point weights, and capacities from empty through surplus."""
    n = rng.randrange(1, 25)
    shape = rng.choice(("small", "wide", "tied", "wamf"))
    if shape == "small":
        demands = [rng.randrange(1, 6) for _ in range(n)]
        weights = [rng.randrange(1, 4) for _ in range(n)]
    elif shape == "wide":
        demands = [rng.randrange(1, 200) for _ in range(n)]
        weights = [rng.randrange(1, 50) for _ in range(n)]
    elif shape == "tied":
        weights = [rng.choice((1, 2, 4)) for _ in range(n)]
        demands = [w * rng.randrange(1, 6) for w in weights]
    else:
        demands = [rng.randrange(10, 30) for _ in range(n)]
        lifetime = [d + rng.randrange(0, 90) for d in demands]
        weights = [10 ** 9 // t for t in lifetime]
    total = sum(demands)
    capacity = rng.choice((rng.randrange(0, total + 1),
                           rng.randrange(total // 2, total + 1),
                           total - 1, total, total + rng.randrange(1, 10)))
    return AllocationProblem(
        demands=dict(enumerate(demands, 1)), capacity=max(capacity, 0),
        weights=dict(enumerate(weights, 1)) if weighted else None)


def one_unit_moves(rng: random.Random, problem, alloc, count):
    """Allocations that differ from ``alloc`` by one unit moved from one
    user to another, keeping every user within its demand."""
    demands = dict(problem.demands)
    donors = [v for v in demands if alloc[v] >= 1]
    takers = [u for u in demands if alloc[u] < demands[u]]
    moves = []
    for _ in range(count):
        if not donors or not takers:
            break
        v, u = rng.choice(donors), rng.choice(takers)
        if u == v:
            continue
        moved = dict(alloc)
        moved[v] -= 1
        moved[u] += 1
        moves.append(moved)
    return moves


def test_weighted_waterfill_matches_the_reference():
    rng = random.Random(31)
    for _ in range(600):
        p = random_problem(rng, weighted=True)
        assert waterfill(p) == reference_weighted_waterfill(p), p


def unweighted(demands, capacity, rng=None):
    """An unweighted problem over ``demands``, user ids shuffled by
    ``rng`` so id order and demand order differ."""
    ids = list(range(1, len(demands) + 1))
    if rng is not None:
        rng.shuffle(ids)
    return AllocationProblem(demands=dict(zip(ids, demands)),
                             capacity=capacity)


def assert_unweighted_matches(p):
    got = waterfill(p)
    assert got == reference_unweighted_waterfill(p), p
    # same keys in the same order, so iteration over the result is too
    assert list(got) == list(p.demands)


def test_unweighted_waterfill_matches_the_reference():
    rng = random.Random(35)
    for _ in range(600):
        assert_unweighted_matches(random_problem(rng, weighted=False))


def test_unweighted_waterfill_matches_the_reference_on_edge_shapes():
    rng = random.Random(36)
    checked = 0
    for _ in range(150):
        n = rng.randrange(1, 40)
        mixed = [rng.randrange(1, 60) for _ in range(n)]
        equal = [rng.randrange(1, 9)] * n  # every tie broken by id
        for demands in (mixed, equal):
            total = sum(demands)
            for capacity in (0, 1, rng.randrange(1, n + 1), n - 1, n, n + 1,
                             rng.randrange(0, total + 1), total - 1, total,
                             total + rng.randrange(1, 50)):
                if capacity >= 0:
                    assert_unweighted_matches(
                        unweighted(demands, capacity, rng))
                    checked += 1
    assert_unweighted_matches(unweighted([], 0))
    assert_unweighted_matches(unweighted([], 7))
    assert checked > 2500


def test_unweighted_waterfill_matches_the_reference_at_5000_users():
    rng = random.Random(37)
    demands = [rng.randrange(1, 100) for _ in range(5000)]
    p = unweighted(demands, sum(demands) // 3, rng)
    assert_unweighted_matches(p)
    assert sum(waterfill(p).values()) == p.capacity


def full_passes(demands, capacity):
    """How many passes of ``capacity`` // active units the unweighted
    fill makes over ``demands`` before the capacity runs out or drops
    below the active count."""
    active, level, c, passes = list(demands), 0, capacity, 0
    while active and c >= len(active):
        share = c // len(active)
        c -= sum(min(share, d - level) for d in active)
        level += share
        active = [d for d in active if d > level]
        passes += 1
    return passes, c


def test_unweighted_capacity_below_the_user_count_makes_no_full_pass():
    rng = random.Random(39)
    for n in (1, 2, 5, 17, 60):
        demands = [rng.randrange(1, 20) for _ in range(n)]
        for capacity in range(n):
            assert full_passes(demands, capacity) == (0, capacity)
            assert_unweighted_matches(unweighted(demands, capacity, rng))


def test_unweighted_capacity_that_runs_out_at_the_end_of_a_full_pass():
    # 14 units: a share of 3 satisfies the 2 and leaves 3 for the three
    # active users, whose second pass spends them exactly
    assert full_passes([2, 5, 5, 5], 14) == (2, 0)
    p = AllocationProblem(demands={4: 5, 1: 2, 3: 5, 2: 5}, capacity=14)
    assert waterfill(p) == {4: 4, 1: 2, 3: 4, 2: 4}
    assert_unweighted_matches(p)
    rng = random.Random(40)
    checked = 0
    for _ in range(80):
        demands = [rng.randrange(1, 30) for _ in range(rng.randrange(1, 30))]
        for capacity in range(sum(demands)):
            if full_passes(demands, capacity)[1] == 0:
                assert_unweighted_matches(unweighted(demands, capacity, rng))
                checked += 1
    assert checked > 1000


def one_user_per_pass(n, capacity):
    """Demands on which each full pass of the unweighted fill satisfies
    exactly one user, the smallest active one, with half a share to
    spare, until the last user takes all that is left: n full passes,
    one short of the n + 1 bound."""
    demands, level, c = [], 0, capacity
    for m in range(n, 1, -1):
        share = c // m
        demands.append(level + share - share // 2)
        c -= share * m - share // 2
        level += share
    return demands + [level + c + 1]


def test_unweighted_profile_that_needs_many_passes():
    rng = random.Random(41)
    # demands 1..n near the total: each pass satisfies the few smallest
    # of the users still active
    demands = list(range(1, 301))
    total = sum(demands)
    for capacity in (total - 1, total - 7, total - 300, total - 900):
        assert full_passes(demands, capacity)[0] >= 5
        assert_unweighted_matches(unweighted(demands, capacity, rng))
    # one user per pass, in ids shuffled against the demand order
    for n in (2, 5, 40):
        capacity = 3 ** n * math.factorial(n)
        demands = one_user_per_pass(n, capacity)
        assert sum(demands) > capacity
        assert full_passes(demands, capacity) == (n, 0)
        assert_unweighted_matches(unweighted(demands, capacity, rng))


def test_unweighted_equal_demands_split_at_the_one_unit_boundary():
    # a share of 2 each leaves 2 units for 4 users: the lowest ids win
    p = AllocationProblem(demands={9: 5, 3: 5, 7: 5, 1: 5}, capacity=10)
    assert waterfill(p) == {9: 2, 3: 3, 7: 2, 1: 3}
    assert_unweighted_matches(p)
    # the same below a satisfied user, whose units drop out first
    p = AllocationProblem(demands={8: 6, 5: 1, 6: 6, 2: 6}, capacity=9)
    assert waterfill(p) == {8: 2, 5: 1, 6: 3, 2: 3}
    assert_unweighted_matches(p)


def test_unweighted_allocation_keys_follow_the_demands_order():
    # satisfied, one-unit and level users interleaved in the dict
    demands = {50: 1, 10: 9, 40: 2, 20: 9, 30: 9, 60: 9}
    p = AllocationProblem(demands=demands, capacity=14)
    got = waterfill(p)
    assert got == {50: 1, 10: 3, 40: 2, 20: 3, 30: 3, 60: 2}
    assert list(got) == list(demands)
    assert_unweighted_matches(p)


def test_waterfill_matches_the_reference_on_wamf_sized_depleted_problems():
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randrange(20, 100)
        demands = [rng.randrange(10, 30) for _ in range(n)]
        weights = [10 ** 9 // (d + rng.randrange(0, 60)) for d in demands]
        p = AllocationProblem(demands=dict(enumerate(demands, 1)),
                              capacity=rng.randrange(1, sum(demands)),
                              weights=dict(enumerate(weights, 1)))
        assert waterfill(p) == reference_weighted_waterfill(p)


def test_maxmin_verdict_matches_the_reference():
    rng = random.Random(33)
    checked = 0
    for _ in range(500):
        p = random_problem(rng, weighted=rng.random() < 0.5)
        alloc = waterfill(p)
        for candidate in [alloc] + one_unit_moves(rng, p, alloc, 4):
            ok, witness = is_maxmin_fair(p, candidate)
            want_ok, want_witness = reference_is_maxmin_fair(p, candidate)
            assert ok == want_ok, (p, candidate)
            if ok:
                assert witness is None
            elif want_witness[1] is None:
                assert witness == want_witness
            else:
                u, v = witness
                wu, wv = weight_of(p, u), weight_of(p, v)
                assert u != v and candidate[u] < dict(p.demands)[u]
                assert (candidate[v] - 1) * wu >= (candidate[u] + 1) * wv
            checked += 1
    assert checked > 1000


def test_witness_is_lowest_recipient_and_highest_donor():
    p = AllocationProblem(demands={1: 10, 2: 10, 3: 10, 4: 10},
                          capacity=20)
    alloc = {1: 5, 2: 1, 3: 9, 4: 5}
    # the all-pairs scan stops at the first recipient it tries
    assert reference_is_maxmin_fair(p, alloc) == (False, (1, 3))
    assert is_maxmin_fair(p, alloc) == (False, (2, 3))
    # ties on both sides go to the lowest id
    assert is_maxmin_fair(p, {1: 1, 2: 1, 3: 9, 4: 9}) == (False, (1, 3))
    weighted = AllocationProblem(demands={1: 10, 2: 10, 3: 10},
                                 capacity=7, weights={1: 1, 2: 2, 3: 4})
    # recipient levels 5/1, 3/2, 2/4; donor levels 3/1, 1/2, 0/4
    assert is_maxmin_fair(weighted, {1: 4, 2: 2, 3: 1}) == (False, (3, 1))


def test_weighted_depleted_oracle_scales_to_5000_users():
    # No timing assertion: a per-call weight scan or a per-unit remainder
    # loop takes minutes at this size, so a quadratic oracle shows up as
    # a hang rather than a flaky failure.
    rng = random.Random(34)
    n = 5000
    demands = [rng.randrange(10, 30) for _ in range(n)]
    weights = [10 ** 9 // (d + rng.randrange(0, 90)) for d in demands]
    capacity = sum(demands) // 2
    p = AllocationProblem(demands=dict(enumerate(demands, 1)),
                          capacity=capacity,
                          weights=dict(enumerate(weights, 1)))
    alloc = waterfill(p)
    assert sum(alloc.values()) == capacity
    assert is_maxmin_fair(p, alloc) == (True, None)


def fraction_witness(problem: AllocationProblem, alloc: dict):
    """The pair the one-pass check names, found with Fractions: the lowest
    recipient level (a_u + 1) / w_u, then the highest donor level
    (a_v - 1) / w_v, each tie to the lowest id."""
    demands = dict(problem.demands)

    def level(u, delta):
        return Fraction(alloc.get(u, 0) + delta, weight_of(problem, u))

    u = min((x for x in demands if alloc.get(x, 0) < demands[x]),
            key=lambda x: (level(x, 1), x))
    v = min((x for x in demands if alloc.get(x, 0) >= 1),
            key=lambda x: (-level(x, -1), x))
    return u, v


def tie_heavy_problems():
    """Weighted (demands, weights) sets whose levels tie across different
    pairs, mix weights 1 and 10**9, or hold one user, each at every
    capacity from 0 past the total (sampled when the total is large),
    with ids shuffled so id order and input order differ."""
    rng = random.Random(38)
    big = 10 ** 9
    sets = [
        # 1/2, 2/4, 3/6 and 1/1, 2/2, 4/4: equal levels from other pairs
        ([1, 2, 3, 5], [2, 4, 6, 3]),
        ([1, 2, 4, 3, 6], [1, 2, 4, 6, 12]),
        ([3, 6, 9, 2, 4], [2, 4, 6, 2, 4]),
        # one user
        ([1], [1]), ([7], [3]), ([5], [big]),
        # equal weights and demands: every remainder tie goes by id
        ([10, 10, 10], [3, 3, 3]),
        ([4, 4, 4, 4, 4], [7, 7, 7, 7, 7]),
        # weights 1 and 10**9 in one problem
        ([5, 3 * big, 7, 2 * big], [1, big, 1, big]),
        ([3, 2, 1, 4], [1, big, big, 1]),
        ([big, 1, big + 1, 2], [big, 1, big - 1, big]),
    ]
    for _ in range(40):
        n = rng.randrange(2, 8)
        base = [rng.choice((1, 2, 3)) for _ in range(n)]
        scale = [rng.choice((1, 2, 3, big)) for _ in range(n)]
        sets.append(([b * s for b, s in zip(base, scale)], scale))
    problems = []
    for demands, weights in sets:
        total = sum(demands)
        if total <= 30:
            capacities = range(total + 2)
        else:
            capacities = sorted({0, 1, 2, total // 3, total // 2, total - 1,
                                 total, total + 1,
                                 rng.randrange(total)})
        ids = rng.sample(range(1, 4 * len(demands) + 1), len(demands))
        for capacity in capacities:
            problems.append(AllocationProblem(
                demands=dict(zip(ids, demands)), capacity=capacity,
                weights=dict(zip(ids, weights))))
    return problems


def test_waterfill_matches_the_reference_on_tie_heavy_problems():
    problems = tie_heavy_problems()
    for p in problems:
        assert waterfill(p) == reference_weighted_waterfill(p), p
    assert len(problems) > 400


def test_remainder_ties_go_to_the_lowest_id():
    # level 4/9 for all three: one unit each, the leftover one to id 2
    p = AllocationProblem(demands={7: 10, 2: 10, 5: 10}, capacity=4,
                          weights={7: 3, 2: 3, 5: 3})
    assert waterfill(p) == {7: 1, 2: 2, 5: 1}
    # level 2/3: floors 1/2 and 2/4 tie, and the unit goes to id 3,
    # which comes second in input order
    p = AllocationProblem(demands={9: 10, 3: 10}, capacity=4,
                          weights={9: 2, 3: 4})
    assert waterfill(p) == {9: 1, 3: 3} == reference_weighted_waterfill(p)


def test_maxmin_verdict_and_witness_match_on_tie_heavy_problems():
    verdicts = {True: 0, False: 0}
    for p in tie_heavy_problems():
        demands = dict(p.demands)
        alloc = waterfill(p)
        candidates = [alloc]
        # every one-unit move away from the water-fill
        for v in demands:
            for u in demands:
                if u != v and alloc[v] >= 1 and alloc[u] < demands[u]:
                    moved = dict(alloc)
                    moved[v] -= 1
                    moved[u] += 1
                    candidates.append(moved)
        for candidate in candidates[:12]:
            got = is_maxmin_fair(p, candidate)
            want_ok, want_witness = reference_is_maxmin_fair(p, candidate)
            assert got[0] == want_ok, (p, candidate)
            if want_ok:
                assert got == (True, None)
            elif want_witness[1] is None:
                assert got == (False, want_witness)
            else:
                assert got == (False, fraction_witness(p, candidate))
            verdicts[want_ok] += 1
    assert verdicts[True] > 400 and verdicts[False] > 400
