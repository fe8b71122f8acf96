"""Cross-check a run against the independent water-filling oracle.

Each claim epoch is an allocation problem of its own: the demands
registered in the previous epoch plus the capacity in force when claims
began.  The oracle reads the summary's own demand and weight dicts,
uncopied and unsorted, and no verdict depends on their order.
Whatever the schedule, every epoch keeps two bounds:

1. each grant is in (0, demand] of its user (a grant to a user who
   demanded nothing in that problem is always a mismatch, even in an
   epoch without demands);
2. the grants sum to the capacity the epoch spent, ``capacity_start -
   capacity_end``.

Beyond the bounds, the oracle's answer must match the grants the run
actually made; AMF and WAMF epochs, not CMF ones, have two exceptions:

* depletion: when the pool hit zero before every demand was met, the
  remaining units went to claimants in arrival order rather than
  ascending-demand order, so per-user grants may differ from the oracle
  while the epoch totals must still agree;
* exhausted rounds: when the scheduled claim rounds ended with capacity
  left and demand unserved, the epoch is not compared user by user (the
  next epoch's comparison re-anchors on the actual capacity, so nothing
  cascades).

Each epoch's verdict is one ``EpochCheck``, whose ``note`` names how it
was compared; the report's ``ok`` and ``first_diff`` derive from them.
"""

from .clock import _Record
from .oracle import AllocationProblem, waterfill
from .sim import RunResult

MATCHED = ""  # every grant equals the oracle's
MISMATCH = "allocation mismatch"  # the one kind that fails verification
TOTALS_ONLY = "depletion round served in arrival order"
NO_DEMANDS = "no demands"
EXHAUSTED = "rounds exhausted before completion"


class EpochCheck(_Record):
    __slots__ = ("epoch", "ok", "note", "first_diff")

    def __init__(self, epoch: int, ok: bool, note: str = MATCHED,
                 first_diff: tuple = None):
        self.epoch = epoch
        self.ok = ok
        self.note = note
        # (epoch, user, got, want); a break of bound 2 has user None and
        # compares the grants' total with the capacity spent
        self.first_diff = first_diff


class VerifyReport(_Record):
    __slots__ = ("checks",)

    def __init__(self, checks: list = None):
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def first_diff(self):
        for check in self.checks:
            if check.first_diff is not None:
                return check.first_diff
        return None


def verify_run(result: RunResult) -> VerifyReport:
    """Check every claim epoch of a run against its bounds and the oracle
    allocation."""
    central = bool(result.reports)  # only CMF runs report distributions
    return VerifyReport([_check(s, central) for s in result.epoch_summaries])


def _check(summary, central: bool) -> EpochCheck:
    epoch, granted, demands = summary.epoch, summary.granted, summary.demands
    complete = bool(demands) and (central or not summary.incomplete)
    want = waterfill(AllocationProblem(
        demands, summary.capacity_start, summary.weights)) if complete else {}
    # the oracle also lists the demanders it grants nothing; its answer
    # keeps bound 1, so an epoch that matches it skips the per-user pass
    matched = complete and (granted == want or (
        granted.keys() <= want.keys()
        and {u: granted.get(u, 0) for u in want} == want))
    total = sum(granted.values())
    if not matched:
        user = min((u for u, g in granted.items()
                    if not 0 < g <= demands.get(u, 0)), default=None)
        if user is not None:
            return EpochCheck(epoch, False, MISMATCH, (
                epoch, user, granted[user], demands.get(user, 0)))
        if complete and (central or not summary.depleted
                         or total != sum(want.values())):
            user = min(u for u in want if granted.get(u, 0) != want[u])
            return EpochCheck(epoch, False, MISMATCH, (
                epoch, user, granted.get(user, 0), want[user]))
    spent = summary.capacity_start - summary.capacity_end
    if total != spent:
        # bound 2 names no user: the diff holds the grants' total and the
        # capacity the epoch spent
        return EpochCheck(epoch, False, MISMATCH, (epoch, None, total, spent))
    if matched:
        return EpochCheck(epoch, True)
    if not demands:
        return EpochCheck(epoch, True, NO_DEMANDS)
    if summary.incomplete:
        return EpochCheck(epoch, True, EXHAUSTED)
    return EpochCheck(epoch, True, TOTALS_ONLY)
