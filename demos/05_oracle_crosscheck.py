"""The independent referee: water-filling, the fairness checker, and an
exhaustive-search validation on tiny instances.

The oracle shares no code with the production distributor (sorted lists,
no heap), which is what makes their agreement on random instances a real
cross-check rather than an echo.
"""

import random

from fairfaucet import (AllocationProblem, CmfDistributor, is_maxmin_fair,
                        leximin_brute_force, sorted_levels, waterfill)

p = AllocationProblem(demands={1: 4, 2: 11, 3: 15}, capacity=30)
print("demands (4, 11, 15), capacity 30 ->", waterfill(p))

scarce = AllocationProblem(demands={1: 10, 2: 10}, capacity=10)
print("\nequal demands, half the capacity ->", waterfill(scarce))
ok, witness = is_maxmin_fair(scarce, {1: 9, 2: 1})
print("is (9, 1) fair?", ok, "- witness: unit should move from user "
      f"{witness[1]} to user {witness[0]}")

weighted = AllocationProblem(demands={1: 10, 2: 10}, capacity=12,
                             weights={1: 2, 2: 1})
alloc = waterfill(weighted)
best_vec, best_alloc = leximin_brute_force(weighted)
print("\nweights (2, 1), capacity 12 ->", alloc)
print("exhaustive search agrees:", sorted_levels(weighted, alloc) == best_vec)

print("\nrandom cross-check against the heap-based distributor:")
rng = random.Random(2)
agree = 0
for trial in range(200):
    demands = [rng.randrange(1, 40) for _ in range(rng.randrange(1, 30))]
    capacity = rng.randrange(1, sum(demands) + 10)
    dist = CmfDistributor(capacity)
    for user, amount in enumerate(demands, 1):
        dist.submit_demand(user, amount)
    report = dist.distribute()
    oracle = waterfill(AllocationProblem(
        demands=dict(enumerate(demands, 1)), capacity=capacity))
    assert {u: report.allocations.get(u, 0) for u in oracle} == oracle
    agree += 1
print(f"{agree}/200 random instances identical, two unrelated "
      f"implementations.")
