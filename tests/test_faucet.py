import random

import pytest

import fairfaucet.faucet as faucet_module
from fairfaucet.clock import ClockParams, locate
from fairfaucet.faucet import AutonomousFaucet
from fairfaucet.sim import Scenario, run_scenario
from meter_counts import counting_meter, counts

CLOCK = ClockParams(offset=0, epoch_span=12, round_span=3)


def three_user_faucet(precision=None, epoch_capacity=30):
    faucet = AutonomousFaucet(CLOCK, epoch_capacity, precision)
    for _ in range(3):
        faucet.register()
    return faucet


def submit_epoch_demands(faucet, epoch, amounts):
    # the demand window is the last round of the epoch
    base = epoch * 12 + 9
    for user, amount in enumerate(amounts, 1):
        if amount is not None:
            accepted, reason, _ = faucet.demand(user, amount, base + user - 1)
            assert accepted, reason


def claim_round(faucet, epoch, rnd):
    base = epoch * 12 + rnd * 3
    return [faucet.claim(user, base + user - 1) for user in (1, 2, 3)]


def test_epoch_bump_tops_up_capacity_and_recomputes_share():
    faucet = three_user_faucet()
    submit_epoch_demands(faucet, 0, (4, 11, 15))
    assert faucet.capacity == 0
    faucet.update_state(12)
    assert (faucet.epoch, faucet.round) == (1, 0)
    assert faucet.capacity == 30
    assert faucet.unit_share == 10


def test_round_bump_recomputes_share_only():
    faucet = three_user_faucet()
    submit_epoch_demands(faucet, 0, (4, 11, 15))
    claim_round(faucet, 1, 0)
    assert faucet.capacity == 6
    faucet.update_state(15)
    assert faucet.round == 1
    assert faucet.capacity == 6
    assert faucet.unit_share == 3  # two unsatisfied demanders remain


def test_update_state_is_idempotent_within_a_round():
    faucet = three_user_faucet()
    submit_epoch_demands(faucet, 0, (4, 11, 15))
    faucet.update_state(12)
    snapshot = (faucet.epoch, faucet.round, faucet.capacity, faucet.unit_share)
    faucet.update_state(13)
    assert (faucet.epoch, faucet.round, faucet.capacity,
            faucet.unit_share) == snapshot


def test_blocks_must_not_go_backwards():
    faucet = three_user_faucet()
    faucet.update_state(20)
    with pytest.raises(ValueError, match="non-decreasing"):
        faucet.update_state(19)


def test_first_demand_of_epoch_resets_weight_total():
    faucet = three_user_faucet()
    accepted, _, weight = faucet.demand(1, 4, 9)
    assert accepted and weight == 1
    assert faucet.weight_total[1] == 1  # parity slot for epoch-0 demands
    assert faucet.reset_epoch == 0
    faucet.demand(2, 11, 10)
    assert faucet.weight_total[1] == 2


def test_demand_guards():
    faucet = three_user_faucet()
    assert not faucet.demand(9, 5, 9)[0]          # unregistered
    assert not faucet.demand(1, 0, 9)[0]          # empty demand
    assert faucet.demand(1, 5, 9)[0]
    accepted, reason, _ = faucet.demand(1, 7, 10)
    assert not accepted
    assert "already demanded" in reason
    # no state change on the rejected repeat
    assert faucet.users[1].pending[1] == 5
    assert faucet.weight_total[1] == 1


def test_weighted_weights_follow_cumulative_demand():
    faucet = AutonomousFaucet(CLOCK, 30, 1000)
    faucet.register()
    _, _, first = faucet.demand(1, 10, 9)
    assert first == 100  # 1000 // 10
    _, _, second = faucet.demand(1, 10, 21)  # next epoch's window
    assert second == 50  # 1000 // 20


def first_demand_weight(precision, amount):
    """The weight a faucet with ``precision`` gives a first demand."""
    faucet = AutonomousFaucet(CLOCK, 1, precision)
    faucet.register()
    _, _, weight = faucet.demand(1, amount, 0)
    return weight


def test_reciprocal_weight_fixed_point_bound():
    rng = random.Random(8)
    for _ in range(500):
        precision = rng.randrange(1, 10 ** 12)
        demand_total = rng.randrange(1, precision + 1)
        w = first_demand_weight(precision, demand_total)
        assert w * demand_total <= precision < (w + 1) * demand_total


def test_precision_must_be_positive():
    with pytest.raises(ValueError, match="precision must be positive"):
        AutonomousFaucet(CLOCK, 30, 0)


def test_claim_guards_and_round_idempotence():
    faucet = three_user_faucet()
    submit_epoch_demands(faucet, 0, (4, 11, 15))
    granted, *_ = faucet.claim(3, 12)
    assert granted == 10  # demand 15 capped by the unit share
    granted, reason, *_ = faucet.claim(3, 13)
    assert granted == 0
    assert "already claimed" in reason
    assert (faucet.capacity, faucet.users[3].balance) == (20, 10)
    # a fully satisfied demand hits the emptiness guard instead
    assert faucet.claim(1, 13)[0] == 4
    granted, reason, *_ = faucet.claim(1, 14)
    assert granted == 0
    assert "already satisfied" in reason
    # user without a demand last epoch is a no-op
    faucet2 = three_user_faucet()
    granted, reason, *_ = faucet2.claim(1, 12)
    assert granted == 0
    assert "no demand" in reason


def test_worked_example_replay():
    faucet = three_user_faucet()
    epochs = {0: (4, 11, 15), 1: (11, 3, 8), 2: (7, 8, 12), 3: (17, 13, 5)}
    expected = {
        # epoch -> (per-round grants per user, per-round shares, capacity after round)
        1: ([(4, 10, 10), (0, 1, 3), (0, 0, 2)], [10, 3, 2], [6, 2, 0]),
        2: ([(10, 3, 8), (1, 0, 0), (0, 0, 0)], [10, 9, 0], [9, 8, 8]),
        3: ([(7, 8, 12), (0, 0, 0), (0, 0, 0)], [12, 0, 0], [11, 11, 11]),
        4: ([(13, 13, 5), (4, 0, 0), (0, 0, 0)], [13, 10, 0], [10, 6, 6]),
    }
    submit_epoch_demands(faucet, 0, epochs[0])
    for epoch in (1, 2, 3, 4):
        rows, shares, caps = expected[epoch]
        for rnd in range(3):
            results = claim_round(faucet, epoch, rnd)
            grants = tuple(granted for granted, *_ in results)
            assert grants == rows[rnd], (epoch, rnd, grants)
            live_shares = [share for granted, _, share, _, _ in results
                           if granted]
            if rows[rnd] != (0, 0, 0):
                assert set(live_shares) == {shares[rnd]}, (epoch, rnd)
            assert faucet.capacity == caps[rnd], (epoch, rnd)
        if epoch in epochs:
            submit_epoch_demands(faucet, epoch, epochs.get(epoch))
    assert faucet.final_balances() == {1: 39, 2: 35, 3: 40}
    # conservation: four epoch boundaries injected 30 each
    assert sum(faucet.final_balances().values()) + faucet.capacity == 120
    assert faucet.injections == 4


def test_results_report_demands_claims_and_noops():
    faucet = three_user_faucet()
    assert faucet.demand(1, 4, 9) == (True, "", 1)
    assert (faucet.epoch, faucet.round, faucet.capacity) == (0, 3, 0)
    assert faucet.users[1].pending[1] == 4
    assert faucet.demand(2, 11, 10)[0]
    assert faucet.demand(3, 15, 11)[0]
    assert faucet.demand(1, 5, 11) == (
        False, "already demanded this epoch", 0)
    assert faucet.users[1].pending[1] == 4
    assert faucet.claim(1, 12) == (4, "", 10, False, True)
    assert (faucet.epoch, faucet.round, faucet.capacity) == (1, 0, 26)
    faucet.claim(2, 13)
    faucet.claim(3, 14)
    assert faucet.claim(1, 14) == (
        0, "demand already satisfied", 0, False, False)
    assert (faucet.epoch, faucet.round, faucet.capacity) == (1, 0, 6)
    assert faucet.final_balances()[1] == 4


def test_results_are_exact_tuples_on_every_exit_path():
    # ``demand`` and ``claim`` return plain tuples, not a NamedTuple or
    # other subclass: a tuple display builds one for a fraction of a
    # NamedTuple constructor call, and the caller's ``granted, reason,
    # ... = faucet.claim(...)`` takes the exact-tuple fast path of the
    # unpack only.  Each is in the field order the module docstring gives.
    faucet = three_user_faucet()
    results = [
        # (accepted, reason, weight)
        faucet.demand(9, 5, 9),
        faucet.demand(1, 0, 9),
        faucet.demand(1, 4, 9),
        faucet.demand(1, 7, 10),
        faucet.demand(2, 40, 10),
        # (granted, reason, share, floored, satisfied)
        faucet.claim(9, 12),
        faucet.claim(3, 12),
        faucet.claim(1, 12),
        faucet.claim(1, 13),
        faucet.claim(2, 13),
        faucet.claim(2, 14),
        faucet.claim(2, 15),
        faucet.claim(2, 18),
    ]
    assert results == [
        (False, "unregistered user", 0),
        (False, "empty demand", 0),
        (True, "", 1),
        (False, "already demanded this epoch", 0),
        (True, "", 1),
        (0, "unregistered user", 0, False, False),
        (0, "no demand from previous epoch", 0, False, False),
        (4, "", 15, False, True),
        (0, "demand already satisfied", 0, False, False),
        (15, "", 15, False, False),
        (0, "already claimed this round", 0, False, False),
        (11, "", 11, False, False),
        (0, "capacity depleted", 0, False, False),
    ]
    assert all(type(r) is tuple for r in results)
    constants = [getattr(faucet_module, name) for name in dir(faucet_module)
                 if name.startswith(("DEMAND_", "CLAIM_"))]
    assert len(constants) == 8
    assert all(type(c) is tuple for c in constants)


def test_fresh_state_balances_are_zero_and_stay_zero_without_claims():
    faucet = three_user_faucet()
    assert faucet.final_balances() == {1: 0, 2: 0, 3: 0}
    submit_epoch_demands(faucet, 0, (4, 11, 15))
    assert faucet.final_balances() == {1: 0, 2: 0, 3: 0}


def live_weight(faucet, parity):
    """Recompute the weight total for a parity slot from first principles:
    snapshot weights of the most recent demand window for that parity,
    counting only still-unsatisfied demands."""
    accounts = faucet.users.values()
    epochs = [a.demand_epoch[parity] for a in accounts
              if a.demand_epoch[parity] >= 0]
    if not epochs:
        return 0
    window = max(epochs)
    return sum(a.slot_weight[parity] for a in accounts
               if a.demand_epoch[parity] == window and a.pending[parity] > 0)


def test_weight_total_matches_recomputation_throughout_a_run():
    rng = random.Random(400)
    clock = ClockParams(0, 20, 5)
    faucet = AutonomousFaucet(clock, 90, 10 ** 9)
    users = [faucet.register() for _ in range(5)]
    for epoch in range(6):
        for rnd in range(4):
            base = epoch * 20 + rnd * 5
            for user in users:
                block = base + user - 1
                if rnd == 3:
                    if rng.random() < 0.8:
                        faucet.demand(user, rng.randrange(1, 30), block)
                elif epoch >= 1:
                    faucet.claim(user, block)
                else:
                    faucet.update_state(block)
                for parity in (0, 1):
                    assert (faucet.weight_total[parity]
                            == live_weight(faucet, parity))


def test_weighted_share_floor_guarantees_progress():
    # one user with a huge cumulative demand gets a tiny weight; the floor
    # still hands out one unit per round
    clock = ClockParams(0, 8, 2)
    faucet = AutonomousFaucet(clock, 1000, 10 ** 6)
    u1 = faucet.register()
    u2 = faucet.register()
    faucet.demand(u1, 400_000, 6)
    faucet.demand(u2, 2, 7)
    granted1, *_ = faucet.claim(u1, 8)
    assert granted1 > 0
    granted2, *_ = faucet.claim(u2, 9)
    # weight(u2)/weight(u1) is enormous, so u2's scaled share collapses to
    # the floor of one unit only when shares invert; either way progress
    assert granted2 >= 1
    assert faucet.capacity < 1000


def test_unweighted_share_floor_under_starvation():
    clock = ClockParams(0, 8, 2)
    faucet = AutonomousFaucet(clock, 2, None)
    for _ in range(3):
        faucet.register()
    for user in (1, 2, 3):
        faucet.demand(user, 10, 4 + user)
    results = [faucet.claim(user, 8 + user - 1) for user in (1, 2, 3)]
    grants = [granted for granted, *_ in results]
    assert grants == [1, 1, 0]  # two units, arrival order, then depletion
    floored = [floored for _, _, _, floored, _ in results]
    assert floored[0] and floored[1]
    assert "depleted" in results[2][1]


@pytest.mark.parametrize("variant", ["AMF", "WAMF"])
def test_each_floored_claim_is_marked_in_its_receipt(variant):
    # ten units an epoch for six users floor some shares and not others;
    # a record carries both its receipt's summary and its trace share
    sc = Scenario(variant=variant, n=6, epoch_capacity=10, epoch_span=24,
                  round_span=6, demand_lo=5, demand_hi=20, epochs=4, seed=2)
    result = run_scenario(sc)
    # summary and share: fields 10 and 6 of a stored record
    granted = [(row[10], row[6]) for row in result.rows
               if row[10].startswith("granted")]
    floored = [share for summary, share in granted
               if summary.endswith(" floor1")]
    assert 0 < len(floored) < len(granted)
    assert all(share == 1 for share in floored)


def test_last_block_of_a_round_then_first_block_of_the_next():
    faucet = three_user_faucet()
    submit_epoch_demands(faucet, 0, (4, 11, 15))
    claim_round(faucet, 1, 0)
    faucet.update_state(14)  # last block of epoch 1, round 0
    assert (faucet.round, faucet.unit_share) == (0, 10)
    faucet.update_state(15)
    assert (faucet.epoch, faucet.round) == (1, 1)
    assert faucet.unit_share == 3  # 6 units over two live demands


def test_multi_epoch_jump_tops_up_once():
    for jump_to in (24, 36, 47, 120):
        faucet = three_user_faucet()
        submit_epoch_demands(faucet, 0, (4, 11, 15))
        faucet.update_state(jump_to)
        assert (faucet.epoch, faucet.round) == (jump_to // 12,
                                                jump_to % 12 // 3)
        assert (faucet.capacity, faucet.injections) == (30, 1)
        # the demands of epoch 0 are no longer claimable
        assert faucet.claim(1, jump_to)[1] == (
            "no demand from previous epoch")


@pytest.mark.parametrize("clock", [
    ClockParams(offset=7, epoch_span=12, round_span=3),
    ClockParams(offset=1000, epoch_span=10, round_span=5),
    ClockParams(offset=5, epoch_span=4, round_span=1),
    ClockParams(offset=3, epoch_span=6, round_span=6),
])
def test_faucet_clock_follows_locate_with_an_offset(clock):
    # the charge tells the same-round exit from a round or epoch advance
    same_round, next_round, next_epoch = (2, 0, 4), (4, 2, 6), (6, 4, 6)
    span, rs = clock.epoch_span, clock.round_span
    gaps = (0, 1, rs - 1, rs, span, 2 * span, 3 * span + rs - 1)
    for seed in range(25):
        rng = random.Random(seed)
        meter = counting_meter()
        faucet = AutonomousFaucet(clock, 30, None, meter)
        before = (0, 0)
        block = clock.offset
        for _ in range(40):
            faucet.update_state(block)
            now = (faucet.epoch, faucet.round)
            assert now == locate(clock, block)[:2], (seed, block)
            want = (same_round if now == before else
                    next_round if now[0] == before[0] else next_epoch)
            reads, writes, _, ariths = counts(meter)
            assert (reads, writes, ariths) == want, (seed, block)
            meter.units = 0
            before = now
            block += rng.choice(gaps)


@pytest.mark.parametrize("variant", ["AMF", "WAMF"])
def test_faucet_locates_at_most_once_per_round(monkeypatch, variant):
    real_locate = faucet_module.locate
    calls = []

    def counting_locate(clock, block):
        calls.append(block)
        return real_locate(clock, block)

    monkeypatch.setattr(faucet_module, "locate", counting_locate)
    sc = Scenario(variant, 5, seed=3, epochs=4)
    run_scenario(sc)
    rounds = sc.epochs * sc.epoch_span // sc.round_span
    assert 0 < len(calls) <= rounds
    assert len({block // sc.round_span for block in calls}) == len(calls)
