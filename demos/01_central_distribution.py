"""Walk through one authority-driven max-min distribution.

Three users ask for 4, 11 and 15 units from a pool of 30.  The
distributor serves ascending demands with a per-iteration unit share,
reinserting partially served demands, until everyone is satisfied.
"""

from fairfaucet import CmfDistributor

distributor = CmfDistributor(epoch_capacity=30)
for user, amount in enumerate((4, 11, 15), start=1):
    distributor.submit_demand(user, amount)
    print(f"user {user} demands {amount}")

report = distributor.distribute(epoch=1)

print(f"\npool at distribution time: {report.capacity_before}")
for iteration in range(1, report.iterations + 1):
    share = report.shares[iteration - 1]
    grants = ", ".join(f"user {user} gets {granted}"
                       for it, user, granted, _, _ in report.rows
                       if it == iteration)
    print(f"iteration {iteration}: unit share {share}: {grants}")

print("\nfinal balances:", dict(sorted(distributor.balances.items())))
print("leftover capacity:", distributor.capacity)

assert distributor.balances == {1: 4, 2: 11, 3: 15}
assert report.shares == [10, 3, 2]
print("\nevery demand was met exactly, in three iterations.")
