"""Acceptance gate: one test per criterion, each printing a PASS line
with the measured evidence (run with ``pytest -v -s`` to see them).

Randomized criteria draw their demands from the pinned splitmix64
stream, so every run of this module checks identical instances.
"""

import hashlib
import itertools
import math
import random
import time
from operator import add
from pathlib import Path

from fairfaucet.clock import ClockParams
from fairfaucet.cmf import CmfDistributor
from fairfaucet.costs import PATH_CHARGES, CostModel, cost_report
from fairfaucet.faucet import AutonomousFaucet
from fairfaucet.heap import MinHeap
from fairfaucet.oracle import AllocationProblem, waterfill
from fairfaucet.sim import (Scenario, load_scenario, next_demand,
                            run_scenario, trace_csv)
from fairfaucet.verify import verify_run
from meter_counts import counting_meter, counts
from test_pins import PRICES

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# conservation evidence collected while criteria 3 and 4 run
CONSERVATION_LOG = []


def _pass(criterion, detail):
    print(f"criterion {criterion} PASS: {detail}")


def test_criterion_1_golden_cmf_trace():
    started = time.time()
    result = run_scenario(load_scenario(SCENARIOS / "cmf_worked_example.json"))
    report = result.reports[0]
    assert report.shares == [10, 3, 2]
    assert [r[:3] for r in report.rows] == [(1, 1, 4), (1, 2, 10), (1, 3, 10),
                                            (2, 2, 1), (2, 3, 3), (3, 3, 2)]
    assert report.allocations == {1: 4, 2: 11, 3: 15}
    assert report.capacity_before == 30
    assert report.capacity_after == 0
    elapsed = time.time() - started
    assert elapsed < 1.0
    _pass(1, f"CMF table reproduced exactly (shares 10/3/2) in {elapsed:.2f}s")


def test_criterion_2_golden_amf_trace():
    started = time.time()
    result = run_scenario(load_scenario(SCENARIOS / "amf_worked_example.json"))
    # grants per (epoch, round, user) and capacity after each round
    grants = {}
    round_share = {}
    round_capacity = {}
    for row in result.trace:
        if row.action != "claim":
            continue
        grants[(row.epoch, row.round, row.actor)] = row.amount
        if row.amount:
            round_share[(row.epoch, row.round)] = row.share
        round_capacity[(row.epoch, row.round)] = row.capacity
    expected_grants = {
        (1, 0): (4, 10, 10), (1, 1): (0, 1, 3), (1, 2): (0, 0, 2),
        (2, 0): (10, 3, 8), (2, 1): (1, 0, 0), (2, 2): (0, 0, 0),
        (3, 0): (7, 8, 12), (3, 1): (0, 0, 0), (3, 2): (0, 0, 0),
        (4, 0): (13, 13, 5), (4, 1): (4, 0, 0), (4, 2): (0, 0, 0),
    }
    for (epoch, rnd), row in expected_grants.items():
        got = tuple(grants[(epoch, rnd, user)] for user in (1, 2, 3))
        assert got == row, (epoch, rnd, got)
    expected_shares = {(1, 0): 10, (1, 1): 3, (1, 2): 2,
                       (2, 0): 10, (2, 1): 9,
                       (3, 0): 12,
                       (4, 0): 13, (4, 1): 10}
    assert {k: round_share[k] for k in expected_shares} == expected_shares
    # capacity carry-over: value after the last claim of each round
    expected_capacity = {(1, 0): 6, (1, 1): 2, (1, 2): 0,
                         (2, 0): 9, (2, 1): 8,
                         (3, 0): 11,
                         (4, 0): 10, (4, 1): 6}
    for key, want in expected_capacity.items():
        assert round_capacity[key] == want, (key, round_capacity[key])
    starts = [s.capacity_start for s in result.epoch_summaries]
    assert starts == [30, 30, 38, 41]
    assert result.balances == {1: 39, 2: 35, 3: 40}
    elapsed = time.time() - started
    assert elapsed < 1.0
    _pass(2, f"AMF table reproduced exactly (carry-overs 30/30/38/41) "
             f"in {elapsed:.2f}s")


def test_criterion_3_oracle_equivalence():
    started = time.time()
    exact = fcfs_epochs = four_round_epochs = runs = 0
    for n in (10, 50, 100):
        for seed in range(100):
            sc = Scenario("AMF", n, seed=seed, epochs=3)
            result = run_scenario(sc)
            runs += 1
            CONSERVATION_LOG.append(result.conservation_ok())
            report = verify_run(result)
            assert report.ok, (n, seed, report.first_diff)
            noted = False
            for summary in result.epoch_summaries:
                if summary.depleted:
                    fcfs_epochs += 1
                    noted = True
                if summary.incomplete:
                    four_round_epochs += 1
                    noted = True
            if not noted:
                exact += 1
                # balances equal the summed oracle output user by user
                want = {u: 0 for u in result.balances}
                for summary in result.epoch_summaries:
                    problem = AllocationProblem(
                        demands=summary.demands,
                        capacity=summary.capacity_start)
                    for user, amount in waterfill(problem).items():
                        want[user] += amount
                assert result.balances == want, (n, seed)
    elapsed = time.time() - started
    assert elapsed < 30.0
    if four_round_epochs:
        print(f"finding: {four_round_epochs} epoch(s) across {runs} runs "
              f"needed a fourth claim round (logged, not a failure)")
    _pass(3, f"{runs} runs agree with the oracle ({exact} exact, "
             f"{fcfs_epochs} depletion epochs in arrival order, "
             f"{four_round_epochs} four-round findings) in {elapsed:.1f}s")


def test_criterion_4_weighted_degeneracy():
    started = time.time()
    n, epochs = 7, 4
    for seed in range(50):
        state = seed
        rows = []
        for _ in range(epochs):
            state, amount = next_demand(state, 10, 30)
            rows.append((amount,) * n)
        script = tuple(rows)
        base = dict(n=n, epoch_capacity=20 * n, epoch_span=4 * n,
                    round_span=n, epochs=epochs, seed=seed,
                    scripted_demands=script)
        wamf = run_scenario(Scenario(variant="WAMF", **base))
        amf = run_scenario(Scenario(variant="AMF", **base))
        assert wamf.balances == amf.balances, (seed, wamf.balances,
                                               amf.balances)
        CONSERVATION_LOG.append(wamf.conservation_ok())
        CONSERVATION_LOG.append(amf.conservation_ok())
    elapsed = time.time() - started
    assert elapsed < 10.0
    _pass(4, f"WAMF == AMF on 50 equal-cumulative-demand scenarios "
             f"in {elapsed:.1f}s")


def test_criterion_5_fixed_point_weights():
    started = time.time()
    rng = random.Random(20240809)
    clock = ClockParams(0, 12, 3)
    for _ in range(10_000):
        precision = rng.randrange(1, 10 ** 12)
        demand_total = rng.randrange(1, precision + 1)
        # the weight the faucet gives a first demand of demand_total
        faucet = AutonomousFaucet(clock, 1, precision)
        faucet.register()
        _, _, w = faucet.demand(1, demand_total, 0)
        assert w * demand_total <= precision < (w + 1) * demand_total
    elapsed = time.time() - started
    assert elapsed < 1.0
    _pass(5, f"floor-weight bound held for 10^4 random pairs "
             f"in {elapsed:.2f}s")


def test_criterion_6_cost_scaling():
    started = time.time()
    claim_means = {}
    for n in (10, 50, 100, 500):
        sc = Scenario("AMF", n, seed=42, epochs=4)
        summary = cost_report(run_scenario(sc).receipts)
        claim_means[n] = summary.mean("claim")
        rounds = summary.claim_by_round
        assert rounds[0].mean > rounds[1].mean > rounds[2].mean, (
            n, {r: s.mean for r, s in rounds.items()})
    spread = max(claim_means.values()) / min(claim_means.values())
    assert spread <= 1.15, claim_means
    distribute_means = {}
    for n in (20, 200):
        sc = Scenario("CMF", n, seed=42, epochs=4)
        summary = cost_report(run_scenario(sc).receipts)
        distribute_means[n] = summary.mean("distribute")
    growth = distribute_means[200] / distribute_means[20]
    assert growth > 10.0, distribute_means
    elapsed = time.time() - started
    assert elapsed < 60.0
    _pass(6, f"claim means flat across n (spread {spread:.3f}x <= 1.15x), "
             f"round means strictly decreasing, distribute grew "
             f"{growth:.1f}x from n=20 to n=200, in {elapsed:.1f}s")


def test_criterion_7_heap_oracle():
    import heapq

    started = time.time()
    rng = random.Random(7777)
    meter = counting_meter()
    heap = MinHeap(meter)
    oracle = []  # stdlib heap as the independent sort oracle
    inserted = removed = 0

    def sift_depth():
        # an operation moves one node, plus one per level it sifts
        depth = counts(meter)[2] - 1
        meter.units = 0
        return depth

    for _ in range(10_000):
        if len(heap) and rng.random() < 0.45:
            before = len(heap)
            node = heap.del_min()
            assert node == heapq.heappop(oracle)
            assert sift_depth() <= math.ceil(math.log2(before + 1))
            removed += 1
        else:
            node = (rng.randrange(1, 1_000_000), rng.randrange(0, 500))
            heap.insert(node)
            heapq.heappush(oracle, (node[0], node[1]))
            assert sift_depth() <= math.ceil(math.log2(len(heap) + 1))
            inserted += 1
    drained = []
    while len(heap):
        before = len(heap)
        drained.append(heap.del_min())
        assert sift_depth() <= math.ceil(math.log2(before + 1))
    assert drained == sorted(oracle)  # final drain is fully sorted
    assert inserted == removed + len(drained)
    elapsed = time.time() - started
    assert elapsed < 5.0
    _pass(7, f"{inserted} inserts / {removed + len(drained)} del_mins match "
             f"the sort oracle with logarithmic sift depth in {elapsed:.1f}s")


def test_criterion_8_determinism():
    started = time.time()
    digests = []
    for variant in ("AMF", "WAMF", "CMF"):
        sc = Scenario(variant, 12, seed=31415, epochs=3)
        pair = [hashlib.sha256(trace_csv(run_scenario(sc)).encode()).hexdigest()
                for _ in range(2)]
        assert pair[0] == pair[1], variant
        digests.append(pair[0])
    assert len(set(digests)) == 3  # different variants, different traces
    elapsed = time.time() - started
    assert elapsed < 5.0
    _pass(8, f"repeated runs hash identically for all variants "
             f"in {elapsed:.1f}s")


def test_criterion_9_conservation():
    if not CONSERVATION_LOG:
        # criteria 3-4 did not run in this session; draw a fresh sample
        for seed in range(30):
            result = run_scenario(
                Scenario("AMF", 10, seed=seed, epochs=3))
            CONSERVATION_LOG.append(result.conservation_ok())
    assert all(CONSERVATION_LOG)
    _pass(9, f"balances + remaining capacity == injected capacity in all "
             f"{len(CONSERVATION_LOG)} logged runs")


def worst_autonomous_transaction(model):
    """The costliest AMF/WAMF transaction that ``PATH_CHARGES`` allows: a
    register on its own, or one ``update_state`` row plus one demand or
    claim exit.  Returns its (reads, writes, ariths) and its cost with
    ``tx_base``; no row depends on the user count."""
    def cost(row):
        reads, writes, ariths = row
        return (reads * model.storage_read + writes * model.storage_write
                + ariths * model.arithmetic_op + model.tx_base)

    updates = [row for name, row in PATH_CHARGES.items()
               if name.startswith("update_")]
    exits = [row for name, row in PATH_CHARGES.items()
             if name.startswith(("demand_", "claim_"))]
    rows = [PATH_CHARGES["register"]]
    rows += [tuple(map(add, update, exit_row))
             for update in updates for exit_row in exits]
    worst = max(rows, key=cost)
    return worst, cost(worst)


def test_criterion_10_constant_transaction_bound():
    started = time.time()
    # a claim granted and satisfied in the block that advances the epoch
    assert worst_autonomous_transaction(CostModel()) == ((18, 10, 9), 85_445)
    worst, bound = worst_autonomous_transaction(PRICES)
    assert worst == (18, 10, 9)
    tops = {}
    for variant, n in itertools.product(("AMF", "WAMF"), (10, 100, 1000)):
        result = run_scenario(Scenario(variant, n, cost_model=PRICES))
        tops[variant, n] = max(r.cost for r in result.receipts)
    # no receipt above the bound, and every run reaches it
    assert set(tops.values()) == {bound}, (bound, tops)
    elapsed = time.time() - started
    assert elapsed < 10.0
    _pass(10, f"the costliest AMF/WAMF receipt is the table's bound "
              f"{bound} at n = 10, 100 and 1000 in {elapsed:.1f}s")
