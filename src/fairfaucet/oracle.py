"""Reference integer max-min allocation, used as ground truth.

The functions here are deliberately structured differently from the
production distributor (plain sorted lists, no heap) so the two can
cross-check each other.  Their arithmetic is exact and in plain
integers: a weight-normalized level a / w is compared by
cross-multiplication, or sorted by the integer key a * K // w with
K = W ** 2 for the largest weight W.  Two distinct levels with
denominators at most W differ by at least 1 / W ** 2, so their keys
differ by at least one and the floors keep both the exact order and
the exact ties.  ``waterfill`` raises all unsatisfied demands in
passes until the capacity runs dry.

Cost in the number of users n (a problem holds user -> demand and
user -> weight dicts, so a weight lookup is O(1)): O(n) when the
capacity covers the total demand, which is then granted in full.
Otherwise, weighted (``_weighted_waterfill``): O(n log n) -- one sort
for the continuous level, one sort of the needy users for the sub-unit
remainder.  Unweighted: O(n log n), one sort by (demand, id) and its
prefix sums, then O(log n) per pass, one bisection for the users the
pass satisfies.  A pass that does not end the fill satisfies at least
one user, so there are at most n + 1 passes, O(n log n) in all.
"""

from bisect import bisect_right
from itertools import accumulate

from .clock import _Record


class AllocationProblem(_Record):
    """Demands as user id -> amount >= 1, a capacity >= 0 and optional
    weights as user id -> weight >= 1 over the same users; every amount
    is of type ``int``, not a float or a bool.  The problem holds the
    caller's dicts uncopied, and no function here changes them."""

    __slots__ = ("demands", "capacity", "weights")

    def __init__(self, demands: dict, capacity: int, weights: dict = None):
        self.demands = demands
        self.capacity = capacity
        self.weights = weights
        if not {int}.issuperset(map(type, demands.values())):
            raise ValueError("demands must be integers")
        if min(demands.values(), default=1) < 1:
            raise ValueError("demands must be >= 1")
        if type(capacity) is not int:
            raise ValueError("capacity must be an integer")
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if weights is not None:
            if weights.keys() != demands.keys():
                raise ValueError("weights must align with demands")
            if not {int}.issuperset(map(type, weights.values())):
                raise ValueError("weights must be integers")
            if min(weights.values(), default=1) < 1:
                raise ValueError("weights must be positive")


def waterfill(problem: AllocationProblem) -> dict:
    """Integer max-min allocation by water-filling.

    A capacity that covers the total demand grants every demand in full.
    Otherwise, unweighted: repeated passes over the unsatisfied demands in
    ascending (remaining, id) order, each granting min(quantum, remaining,
    capacity) where the quantum is floor(c / active count) at pass start,
    dropping to one unit when c is smaller than the active count.  The
    demands are sorted once; each of at most n + 1 passes is one bisection.

    Weighted: the exact continuous water level is solved in integer
    arithmetic (multiply before divide, no precision scaling), each user
    takes min(demand, floor(weight * level)), and the sub-unit remainder
    goes one unit at a time to whoever sits at the lowest normalized
    level.
    """
    if problem.capacity >= sum(problem.demands.values()):
        return dict(problem.demands)
    if problem.weights is not None:
        return _weighted_waterfill(problem)
    demands = problem.demands
    # ids in ascending (demand, id) order, also (remaining, id) order as
    # every active user holds the same ``level``: sorted by id, then stably
    # by demand alone.  ``taken[j]`` sums the first j of their ``sizes``.
    ids = sorted(sorted(demands), key=demands.__getitem__)
    sizes = list(map(demands.__getitem__, ids))
    taken = list(accumulate(sizes, initial=0))
    n = len(ids)
    i = level = 0  # ids[i:] are active
    c = problem.capacity
    # A full pass satisfies ids[i:j], whose demands are <= level + share,
    # and raises the rest by the share, at most share * (n - i) <= c in
    # all; one that satisfies no user leaves c below the active count, so
    # at most n + 1 run.  Some user stays active (c < total demand), and
    # the last pass gives one unit each to the first c active users.
    while c >= n - i:
        share = c // (n - i)
        j = bisect_right(sizes, level + share, i)
        c -= taken[j] - taken[i] - level * (j - i) + share * (n - j)
        level += share
        i = j
    alloc = dict.fromkeys(demands, level)
    alloc.update(zip(ids[:i], sizes[:i]))
    alloc.update(dict.fromkeys(ids[i:i + c], level + 1))
    return alloc


def _weighted_waterfill(problem: AllocationProblem) -> dict:
    demands = problem.demands
    users = sorted(demands)
    weight = problem.weights
    c = problem.capacity  # below the total demand, or waterfill returned
    k = max(weight.values()) ** 2  # level keys, see the module docstring

    # continuous solve: users cap out in order of demand/weight while the
    # common level (c - capped) / active rises until the capacity is
    # exactly consumed; u caps when d_u / w_u is at most that level with
    # u still active.  ``users`` is in id order and sorted() is stable,
    # so ties stay in id order.
    order = sorted(users, key=lambda u: demands[u] * k // weight[u])
    active = sum(weight.values())
    capped = 0
    for u in order:
        w = weight[u]
        if capped * w + demands[u] * active > c * w:
            break
        capped += demands[u]
        active -= w
    room = c - capped  # the level is room / active

    alloc = {u: min(demands[u], weight[u] * room // active) for u in users}
    # Remainder: one unit each to the lowest `leftover` needy users by
    # (alloc / w, id).  This equals granting one unit at a time to the
    # lowest needy user, because every needy user now sits at
    # floor(w * level) / w <= level, one extra unit lifts a user above
    # level (so nobody is picked twice), and leftover, the sum of the
    # needy users' fractional parts of w * level, is below their count.
    leftover = c - sum(alloc.values())
    needy = sorted((u for u in users if alloc[u] < demands[u]),
                   key=lambda u: alloc[u] * k // weight[u])
    for u in needy[:leftover]:
        alloc[u] += 1
    return alloc
