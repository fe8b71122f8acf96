"""The independent referee: water-filling, unweighted and weighted, and
a random cross-check against the heap-based distributor.

The oracle shares no code with the production distributor (sorted lists,
no heap), which is what makes their agreement on random instances a real
cross-check rather than an echo.
"""

import random

from fairfaucet import AllocationProblem, CmfDistributor, waterfill

p = AllocationProblem(demands={1: 4, 2: 11, 3: 15}, capacity=30)
print("demands (4, 11, 15), capacity 30 ->", waterfill(p))

scarce = AllocationProblem(demands={1: 10, 2: 10}, capacity=10)
print("\nequal demands, half the capacity ->", waterfill(scarce))

weighted = AllocationProblem(demands={1: 10, 2: 10}, capacity=12,
                             weights={1: 2, 2: 1})
print("\nweights (2, 1), capacity 12 ->", waterfill(weighted))

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
