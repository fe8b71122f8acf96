"""Pinned meter charges of every exit path of the contract entry points.

Each case runs one call on a counting meter zeroed just before it and
pins the (reads, writes, heap_moves, ariths) that ``meter_counts``
decodes from its units.  The simulator takes only a few of these paths,
so the run-level pins in ``test_costs`` and ``test_pins`` leave the
others unchecked.  A ``demand`` or ``claim`` also pays one
``update_state`` row.  Most cases below set the block so that this is
the same-round row (2 reads, 4 ariths), paid with the exit path's row;
the cases on the first block of a round or an epoch pay the
round-advance row (4 reads, 2 writes, 6 ariths) or the epoch-advance
row (6 reads, 4 writes, 6 ariths) instead.
"""

import pytest

from fairfaucet.clock import ClockParams
from fairfaucet.cmf import CmfDistributor
from fairfaucet.faucet import AutonomousFaucet
from meter_counts import counting_meter, counts

CLOCK = ClockParams(offset=0, epoch_span=12, round_span=3)  # 4 rounds


def metered(meter, call, *args):
    meter.units = 0
    call(*args)
    return counts(meter)


def faucet_with_demands(amounts, epoch_capacity=30, precision=None):
    """Users 1..len(amounts) registered; each non-None amount demanded in
    the last round of epoch 0."""
    meter = counting_meter()
    faucet = AutonomousFaucet(CLOCK, epoch_capacity, precision, meter)
    for user, amount in enumerate(amounts, 1):
        faucet.register()
        if amount is not None:
            accepted, _, _ = faucet.demand(user, amount, 9)
            assert accepted
    return faucet, meter


# -- update_state ----------------------------------------------------------

def test_update_state_paths():
    faucet, meter = faucet_with_demands((4, 11, 15))
    assert metered(meter, faucet.update_state, 10) == (2, 0, 0, 4)
    # epoch advance: top-up and share refresh
    assert metered(meter, faucet.update_state, 12) == (6, 4, 0, 6)
    assert metered(meter, faucet.update_state, 14) == (2, 0, 0, 4)
    # round advance: share refresh only
    assert metered(meter, faucet.update_state, 15) == (4, 2, 0, 6)
    assert (faucet.epoch, faucet.round) == (1, 1)


def test_update_state_multi_epoch_jump_charges_one_epoch_advance():
    faucet, meter = faucet_with_demands((4, 11, 15))
    assert metered(meter, faucet.update_state, 40) == (6, 4, 0, 6)
    assert (faucet.epoch, faucet.round) == (3, 1)


# -- register and demand ---------------------------------------------------

def test_register_charges_two_writes():
    meter = counting_meter()
    faucet = AutonomousFaucet(CLOCK, 30, None, meter)
    assert metered(meter, faucet.register) == (0, 2, 0, 0)


@pytest.mark.parametrize("precision", [None, 1000])
def test_demand_paths(precision):
    meter = counting_meter()
    faucet = AutonomousFaucet(CLOCK, 30, precision, meter)
    for _ in range(2):
        faucet.register()
    # the first block of the last round: round-advance row plus exit path
    assert metered(meter, faucet.demand, 7, 5, 9) == (5, 2, 0, 7)
    assert metered(meter, faucet.demand, 7, 5, 9) == (3, 0, 0, 5)
    assert metered(meter, faucet.demand, 1, 0, 9) == (3, 0, 0, 5)
    # the first accepted demand of an epoch starts a fresh weight total
    assert metered(meter, faucet.demand, 1, 4, 9) == (6, 6, 0, 6)
    assert metered(meter, faucet.demand, 2, 11, 10) == (7, 5, 0, 6)
    assert metered(meter, faucet.demand, 1, 7, 10) == (4, 0, 0, 5)


# -- claim -----------------------------------------------------------------

@pytest.mark.parametrize("precision", [None, 1000])
def test_claim_paths(precision):
    faucet, meter = faucet_with_demands((4, 11, 15, None), precision=precision)
    cases = [
        # the first block of an epoch: epoch-advance row plus exit path
        ((4, 12), (10, 4, 0, 7), "no demand from previous epoch"),
        ((9, 12), (3, 0, 0, 5), "unregistered user"),
        ((4, 12), (6, 0, 0, 5), "no demand from previous epoch"),
        ((1, 12), (14, 6, 0, 7), ""),   # granted and satisfied
        ((2, 12), (13, 5, 0, 7), ""),   # granted, demand left
        ((2, 13), (8, 0, 0, 5), "already claimed this round"),
        ((1, 13), (6, 0, 0, 5), "demand already satisfied"),
        # the first block of a round: round-advance row plus exit path
        ((3, 15), (15, 7, 0, 9), ""),   # granted, demand left
    ]
    for args, want, reason in cases:
        meter.units = 0
        _, got, *_ = faucet.claim(*args)
        assert (counts(meter), got) == (want, reason), args
    assert faucet.users[1].pending[1] == 0
    assert faucet.users[2].pending[1] > 0
    assert faucet.users[3].pending[1] > 0


@pytest.mark.parametrize("precision", [None, 1000])
def test_epoch_zero_claim_has_no_previous_demand(precision):
    # epoch 0 has no previous epoch, so a user who never demanded must
    # not pass the demand check and read as depleted
    meter = counting_meter()
    faucet = AutonomousFaucet(CLOCK, 30, precision, meter)
    faucet.register()
    accepted, _, _ = faucet.demand(1, 4, 0)
    assert accepted
    for block in (1, 2):
        meter.units = 0
        _, reason, *_ = faucet.claim(1, block)
        assert (counts(meter), reason) == (
            (6, 0, 0, 5), "no demand from previous epoch"), block


def test_claim_floor_and_depletion_paths():
    # two units for three demands of 10: the share floors to 1 twice,
    # then the pool is empty
    faucet, meter = faucet_with_demands((10, 10, 10), epoch_capacity=2)
    faucet.update_state(12)
    assert faucet.unit_share == 0
    meter.units = 0
    granted, _, _, floored, satisfied = faucet.claim(1, 12)
    assert floored and granted == 1 and not satisfied
    assert counts(meter) == (13, 5, 0, 7)
    faucet.claim(2, 13)
    meter.units = 0
    _, reason, *_ = faucet.claim(3, 14)
    assert reason == "capacity depleted"
    assert counts(meter) == (6, 0, 0, 5)


def test_floored_claim_that_satisfies():
    faucet, meter = faucet_with_demands((1, 10, 10), epoch_capacity=2)
    faucet.update_state(12)
    meter.units = 0
    _, _, _, floored, satisfied = faucet.claim(1, 12)
    assert floored and satisfied
    assert counts(meter) == (14, 6, 0, 7)


# -- CMF -------------------------------------------------------------------

def test_cmf_register_charges_two_writes():
    meter = counting_meter()
    dist = CmfDistributor(30, meter)
    assert metered(meter, dist.register) == (0, 2, 0, 0)


def test_submit_demand_paths():
    meter = counting_meter()
    dist = CmfDistributor(30, meter)
    with pytest.raises(ValueError, match="empty demand"):
        dist.submit_demand(1, 0)
    assert counts(meter) == (0, 0, 0, 0)
    # accepted: one read, one write, then the heap insert's own charges
    assert metered(meter, dist.submit_demand, 1, 4) == (1, 1, 1, 0)
    assert metered(meter, dist.submit_demand, 2, 11) == (1, 1, 1, 1)
    meter.units = 0
    with pytest.raises(ValueError, match="already demanded"):
        dist.submit_demand(1, 5)
    assert counts(meter) == (1, 0, 0, 0)


def distribute_charges(iterations, grants, heap_moves, heap_ariths):
    """3 reads, 2 writes and 1 arith per call, 2 ariths per iteration,
    1 read, 1 write and 2 ariths per grant, plus the heap's charges."""
    return (3 + grants, 2 + grants, heap_moves,
            1 + 2 * iterations + 2 * grants + heap_ariths)


def distributed(epoch_capacity, amounts):
    meter = counting_meter()
    dist = CmfDistributor(epoch_capacity, meter)
    for user, amount in enumerate(amounts, 1):
        dist.submit_demand(user, amount)
    meter.units = 0
    report = dist.distribute()
    return counts(meter), report


def test_distribute_without_demands():
    got, report = distributed(30, ())
    assert got == distribute_charges(0, 0, 0, 0) == (3, 2, 0, 1)
    assert (report.iterations, len(report.rows)) == (0, 0)


def test_distribute_with_leftover_capacity():
    # shares 13 then 12: four grants over two iterations, 10 units left
    got, report = distributed(40, (4, 11, 15))
    assert (report.iterations, len(report.rows)) == (2, 4)
    assert report.capacity_after == 10
    assert got == distribute_charges(2, 4, 6, 1) == (7, 6, 6, 14)


def test_distribute_with_depletion():
    # shares 6 then 2: the pool runs dry with demand left in the heap
    got, report = distributed(20, (4, 11, 15))
    assert (report.iterations, len(report.rows)) == (2, 5)
    assert report.capacity_after == 0
    assert got == distribute_charges(2, 5, 10, 3) == (8, 7, 10, 18)
