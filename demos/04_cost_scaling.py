"""Why the central distributor cannot survive on a real chain.

Abstract transaction costs for both designs across user counts: the
authority's distribute call grows superlinearly (heap traffic) until it
no longer fits in a block, while autonomous claims stay flat no matter
how many users join.  Claim rounds also get cheaper as demands fill up,
because satisfied users' calls return early.
"""

from fairfaucet import Scenario, cost_report, run_scenario

BUDGET = Scenario("AMF", 10).cost_model.block_budget

print(f"block budget: {BUDGET}\n")
print(f"{'n':>6} {'AMF claim mean':>15} {'rounds 1/2/3':>24} "
      f"{'CMF distribute mean':>20} {'fits?':>6}")

for n in (10, 50, 100, 200, 500):
    amf = cost_report(run_scenario(Scenario("AMF", n, seed=42, epochs=4)))
    cmf = cost_report(run_scenario(Scenario("CMF", n, seed=42, epochs=4)))
    rounds = "/".join(f"{amf.claim_by_round[r].mean:.0f}" for r in (0, 1, 2))
    over = cmf.over_budget > 0
    print(f"{n:>6} {amf.mean('claim'):>15.0f} {rounds:>24} "
          f"{cmf.mean('distribute'):>20.0f} {'NO' if over else 'yes':>6}")

print("\nthe distribute column crosses the block budget while the claim"
      "\ncolumn barely moves: the autonomous design has no user limit.")
