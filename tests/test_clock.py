import random

import pytest

from fairfaucet.clock import ClockParams, locate


def test_identity_case():
    assert locate(ClockParams(0, 4, 1), 0) == (0, 0)


def test_offset_case():
    assert locate(ClockParams(100, 40, 10), 185) == (2, 0)


def test_mid_epoch_case():
    assert locate(ClockParams(0, 12, 3), 23) == (1, 3)


def test_locate_returns_an_exact_pair():
    # a plain tuple, not a NamedTuple: building a subclass instance costs
    # more, and the collector never untracks one
    pos = locate(ClockParams(100, 40, 10), 185)
    assert type(pos) is tuple and pos == (2, 0)


def test_pre_deployment_block_rejected():
    with pytest.raises(ValueError, match="pre-deployment"):
        locate(ClockParams(10, 4, 2), 9)


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        ClockParams(0, 0, 1)
    with pytest.raises(ValueError):
        ClockParams(0, 4, 0)
    with pytest.raises(ValueError):
        ClockParams(0, 4, 8)
    with pytest.raises(ValueError):
        ClockParams(0, 10, 4)  # not a multiple


def test_rounds_per_epoch():
    assert ClockParams(0, 12, 3).rounds_per_epoch == 4
    assert ClockParams(0, 5, 5).rounds_per_epoch == 1


def test_round_always_below_rounds_per_epoch():
    rng = random.Random(42)
    for _ in range(500):
        rs = rng.randrange(1, 20)
        es = rs * rng.randrange(1, 12)
        offset = rng.randrange(0, 1000)
        params = ClockParams(offset, es, rs)
        block = offset + rng.randrange(0, 10 * es)
        _, rnd = locate(params, block)
        assert 0 <= rnd < params.rounds_per_epoch


def test_monotone_in_block_number():
    params = ClockParams(5, 12, 3)
    last = (-1, -1)
    for block in range(5, 5 + 5 * 12):
        pos = locate(params, block)
        assert pos >= last
        last = pos


def test_one_epoch_span_later_is_the_next_epoch():
    rng = random.Random(7)
    for _ in range(200):
        rs = rng.randrange(1, 10)
        es = rs * rng.randrange(1, 8)
        params = ClockParams(0, es, rs)
        block = rng.randrange(0, 8 * es)
        here, _ = locate(params, block)
        there, _ = locate(params, block + es)
        assert there == here + 1
