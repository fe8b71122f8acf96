"""The same fairness, but user-driven: demands one epoch, claims the next.

Runs the scripted five-epoch scenario of
``scenarios/amf_worked_example.json`` and prints it in the shape of a
distribution table: per epoch, the demands registered for the NEXT epoch
and the per-round claims of the PREVIOUS epoch's demands.  Watch the
leftover capacity carry over (30, 30, 38, 41 at the epoch boundaries)
while unclaimed demand expires.
"""

from pathlib import Path

from fairfaucet import run_scenario
from fairfaucet.sim import load_scenario

scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                         / "amf_worked_example.json")
result = run_scenario(scenario)

claims = {}
for row in result.trace:
    if row.action == "claim":
        claims.setdefault((row.epoch, row.round), []).append(row)

print(f"{scenario.n} users, epoch capacity {scenario.epoch_capacity}, "
      f"{scenario.clock.rounds_per_epoch - 1} claim rounds per epoch\n")

for epoch in range(1, scenario.epochs):
    summary = next(s for s in result.epoch_summaries if s.epoch == epoch)
    print(f"epoch {epoch}: claimable demands {summary.demands} "
          f"with capacity {summary.capacity_start}")
    for rnd in range(scenario.clock.rounds_per_epoch - 1):
        rows = claims.get((epoch, rnd), [])
        granted = {r.actor: r.amount for r in rows if r.amount}
        if not granted:
            print(f"  round {rnd + 1}: nothing left to claim")
            continue
        share = max(r.share for r in rows)
        after = rows[-1].capacity
        print(f"  round {rnd + 1}: unit share {share}, grants {granted}, "
              f"capacity left {after}")
    print()

print("final balances:", result.balances)
print("leftover capacity for the next epoch:", result.final_capacity)
assert result.balances == {1: 39, 2: 35, 3: 40}
