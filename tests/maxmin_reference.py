"""Max-min references for the oracle tests: a fairness checker, an
exhaustive leximin search and the sorted level vector an allocation
reaches.  No run calls them; they check ``fairfaucet.oracle.waterfill``.

A weight-normalized level a / w is compared exactly in integers, by
cross-multiplication or by the key a * K // w with K = W ** 2 for the
largest weight W (the ``fairfaucet.oracle`` docstring gives the
argument).  The two level-vector helpers return ``Fraction``s.

Cost in the number of users n:

* ``is_maxmin_fair``: O(n), one pass.  It compares the lowest recipient
  level (a_u + 1) / w_u over unsatisfied users u with the highest donor
  level (a_v - 1) / w_v over users v holding a unit; the witness is that
  pair, ties going to the lowest id on each side.
* ``sorted_levels``: O(n log n).
* ``leximin_brute_force``: exponential by design; tiny instances only.
"""

from fractions import Fraction
from itertools import product

from fairfaucet.oracle import AllocationProblem


def weight_of(problem: AllocationProblem, user: int) -> int:
    """The user's weight (1 when unweighted); KeyError for a user
    without a demand in a weighted problem."""
    return 1 if problem.weights is None else problem.weights[user]


def is_maxmin_fair(problem: AllocationProblem, alloc: dict):
    """Check an allocation against the max-min criterion.

    Returns (True, None) when no single unit can be moved -- either from
    leftover capacity or from a better-off user v -- to an unsatisfied
    user u without leaving the donor below u's new level.  On failure
    returns (False, (u, v)) with v None for the leftover-capacity case.
    Levels are weight-normalized (compared exactly, in integers) when the
    problem carries weights.  The check is one pass: the lowest recipient
    level against the highest donor level, and the witness is that pair
    (ties to the lowest id on each side).  Infeasible allocations raise
    ValueError.
    """
    demands = problem.demands
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
    # lowest recipient level (a_u + 1) / w_u against highest donor level
    # (a_v - 1) / w_v, ties to the lowest id; the same user cannot be
    # both, since (a - 1) / w < (a + 1) / w
    donors = [v for v in demands if alloc.get(v, 0) >= 1]
    if not unsatisfied or not donors:
        return True, None
    weight = problem.weights or dict.fromkeys(demands, 1)
    k = max(weight.values()) ** 2
    u = min(unsatisfied,
            key=lambda x: ((alloc.get(x, 0) + 1) * k // weight[x], x))
    v = min(donors, key=lambda x: (-((alloc[x] - 1) * k // weight[x]), x))
    if (alloc[v] - 1) * weight[u] >= (alloc.get(u, 0) + 1) * weight[v]:
        return False, (u, v)
    return True, None


def leximin_brute_force(problem: AllocationProblem):
    """Exhaustively find the best sorted (normalized) allocation vector.

    Enumerates every feasible integer allocation (intended for n <= 4 and
    small capacities) and returns (best_vector, one optimal allocation),
    where vectors are compared lexicographically after sorting ascending.
    Levels are Fractions alloc/weight in the weighted case.
    """
    users = list(problem.demands)
    weights = [weight_of(problem, u) for u in users]
    caps = [min(a, problem.capacity) for a in problem.demands.values()]
    best_vec = None
    best_alloc = None
    for combo in product(*(range(cap + 1) for cap in caps)):
        if sum(combo) > problem.capacity:
            continue
        vec = tuple(sorted(
            Fraction(amount, w) for amount, w in zip(combo, weights)))
        if best_vec is None or vec > best_vec:
            best_vec = vec
            best_alloc = dict(zip(users, combo))
    return best_vec, best_alloc


def sorted_levels(problem: AllocationProblem, alloc: dict):
    """Sorted normalized level vector of an allocation, for comparisons
    against ``leximin_brute_force``."""
    return tuple(sorted(
        Fraction(alloc.get(u, 0), weight_of(problem, u))
        for u in problem.demands))
