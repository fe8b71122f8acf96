"""Primitive counts read back from a ``CostMeter``'s one running total.

``COUNTING`` prices a storage read at 1, a write at 10**6, a heap move at
10**12 and an arith at 10**18, so a meter built on it holds the four
counts side by side in ``units``, six decimal digits each, and
``counts`` decodes them exactly while every count stays below 10**6.
"""

from fairfaucet.costs import CostMeter, CostModel

STEP = 10 ** 6
COUNTING = CostModel(storage_read=1, storage_write=STEP, heap_move=STEP ** 2,
                     arithmetic_op=STEP ** 3)


def counting_meter() -> CostMeter:
    return CostMeter(COUNTING)


def counts(meter: CostMeter) -> tuple:
    """(reads, writes, heap_moves, ariths) added to a ``counting_meter``
    since its units were last zeroed; the meter is left as it was."""
    rest, reads = divmod(meter.units, STEP)
    rest, writes = divmod(rest, STEP)
    ariths, heap_moves = divmod(rest, STEP)
    assert ariths < STEP, "a count too large to decode"
    return reads, writes, heap_moves, ariths
