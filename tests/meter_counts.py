"""Primitive counts read back from a ``CostMeter``'s one running total.

``COUNTING`` prices a storage read at 1, a write at 10**6, a heap move at
10**12 and an arith at 10**18, so a meter built on it holds the four
counts side by side in ``units``, six decimal digits each, and
``counts`` decodes them exactly while every count stays below 10**6.
``add_counts`` is the one way a test's reference code meters: it adds
counts to a counting meter's ``units`` at those prices.
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


def add_counts(meter: CostMeter, reads=0, writes=0, ariths=0, heap_moves=0):
    """Add ``reads``, ``writes``, ``ariths`` and ``heap_moves``, priced at
    ``COUNTING``, to a ``counting_meter``'s units."""
    assert (meter.compare, meter.move) == (COUNTING.arithmetic_op,
                                           COUNTING.heap_move)
    meter.units += (reads * COUNTING.storage_read
                    + writes * COUNTING.storage_write
                    + ariths * COUNTING.arithmetic_op
                    + heap_moves * COUNTING.heap_move)
