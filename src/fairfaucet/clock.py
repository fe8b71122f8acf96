"""Block-number arithmetic: mapping blocks to epochs, rounds and parity.

The chain is divided into fixed-width epochs, each epoch into fixed-width
rounds.  Everything here is pure integer arithmetic on immutable values,
so the functions are safe to call from anywhere.
"""

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class ClockParams:
    """Epoch/round geometry, anchored at the deployment block.

    ``epoch_span`` must be a positive multiple of ``round_span`` so that
    every epoch contains a whole number of rounds.
    """

    offset: int
    epoch_span: int
    round_span: int

    def __post_init__(self):
        if self.epoch_span < 1:
            raise ValueError("epoch_span must be >= 1")
        if self.round_span < 1:
            raise ValueError("round_span must be >= 1")
        if self.round_span > self.epoch_span:
            raise ValueError("round_span cannot exceed epoch_span")
        if self.epoch_span % self.round_span != 0:
            raise ValueError("epoch_span must be a multiple of round_span")

    @property
    def rounds_per_epoch(self) -> int:
        return self.epoch_span // self.round_span


class ClockPosition(NamedTuple):
    epoch: int
    round: int
    parity: int  # epoch mod 2


def locate(params: ClockParams, block: int) -> ClockPosition:
    """Return the epoch, round and parity selector for ``block``.

    Raises ValueError for blocks before the deployment offset.
    """
    if block < params.offset:
        raise ValueError("pre-deployment block")
    since = block - params.offset
    epoch = since // params.epoch_span
    rnd = (since % params.epoch_span) // params.round_span
    return ClockPosition(epoch, rnd, epoch % 2)
