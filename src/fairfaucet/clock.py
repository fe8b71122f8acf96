"""Block-number arithmetic: mapping blocks to epochs and rounds.

The chain is divided into fixed-width epochs, each epoch into fixed-width
rounds.  Everything here is pure integer arithmetic on immutable values,
so the functions are safe to call from anywhere.

``_Record`` is the base of the package's record classes, here because
this module imports nothing else of the package.
"""


class _Record:
    """A plain record: equality compares the fields in order, and the
    repr names them.  The fields are the ``__slots__``.  ``frozen=True``
    in the class statement makes instances immutable and hashable by
    their fields, and their ``__init__`` sets the fields in order through
    ``_Record.__init__``."""

    __slots__ = ()

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__slots__
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _Record._immutable
            cls.__hash__ = _Record._hash

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A copy with some fields changed, built by the class's own
        (validating) constructor."""
        values = dict(zip(self._fields, self._values()), **changes)
        return type(self)(**values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self._values())))

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which a
        # frozen record needs: its __setattr__ refuses the slot state
        return type(self), self._values()

    def _immutable(self, *args):
        raise AttributeError(f"cannot change a field of {type(self).__name__}")

    def _hash(self):
        return hash(self._values())


class ClockParams(_Record, frozen=True):
    """Epoch/round geometry, anchored at the deployment block.

    ``epoch_span`` must be a positive multiple of ``round_span`` so that
    every epoch contains a whole number of rounds.
    """

    __slots__ = ("offset", "epoch_span", "round_span")

    def __init__(self, offset: int, epoch_span: int, round_span: int):
        super().__init__(offset, epoch_span, round_span)
        if epoch_span < 1:
            raise ValueError("epoch_span must be >= 1")
        if round_span < 1:
            raise ValueError("round_span must be >= 1")
        if round_span > epoch_span:
            raise ValueError("round_span cannot exceed epoch_span")
        if epoch_span % round_span != 0:
            raise ValueError("epoch_span must be a multiple of round_span")

    @property
    def rounds_per_epoch(self) -> int:
        return self.epoch_span // self.round_span


def locate(params: ClockParams, block: int) -> tuple:
    """Return the plain pair (epoch, round) of ``block``.

    Raises ValueError for blocks before the deployment offset.
    """
    if block < params.offset:
        raise ValueError("pre-deployment block")
    since = block - params.offset
    epoch = since // params.epoch_span
    rnd = (since % params.epoch_span) // params.round_span
    return epoch, rnd
