"""How reciprocal-demand weights discourage hoarding.

Two users face the same faucet.  User 1 grabs 100 units in the first
epoch and modest amounts afterwards; user 2 asks for 10 every epoch.
Weights are the scaled reciprocal of lifetime demand, so user 1's early
binge keeps shrinking her share long after the binge is over.
"""

from fairfaucet import Scenario, run_scenario

script = (
    (100, 10),
    (10, 10),
    (10, 10),
    (10, 10),
)

weighted = Scenario(variant="WAMF", n=2, epoch_capacity=15, epoch_span=8,
                    round_span=2, epochs=5, scripted_demands=script)
unweighted = Scenario(variant="AMF", n=2, epoch_capacity=15, epoch_span=8,
                      round_span=2, epochs=5, scripted_demands=script)

res_w = run_scenario(weighted)
res_u = run_scenario(unweighted)


def weights(epoch):
    """The weights of the demands that ``epoch`` claims, those of epoch
    ``epoch - 1``: precision // each user's demand so far."""
    rows = script[:epoch]
    return {user: weighted.precision // sum(row[user - 1] for row in rows)
            for user in (1, 2)}


print("epoch capacity 15, demands per epoch:", script, "\n")
print(f"{'epoch':>6} {'weights':>24} {'weighted grants':>16} "
      f"{'unweighted grants':>18}")
for sw, su in zip(res_w.epoch_summaries, res_u.epoch_summaries):
    print(f"{sw.epoch:>6} {str(weights(sw.epoch)):>24} "
          f"{str(sw.granted):>16} {str(su.granted):>18}")

print("\nweighted totals:  ", res_w.balances)
print("unweighted totals:", res_u.balances)

gap_w = res_w.balances[2] - res_w.balances[1]
gap_u = res_u.balances[2] - res_u.balances[1]
print(f"\nuser 2's advantage: {gap_w} units under weighting, "
      f"{gap_u} without it.")
assert res_w.balances[2] >= res_u.balances[2]
