"""Cross-check a run against the independent water-filling oracle.

Each claim epoch is an allocation problem of its own: the demands
registered in the previous epoch plus the capacity in force when claims
began.  The oracle's answer must match the grants the run actually made
(a grant to a user who demanded nothing in that problem is always a
mismatch, even in an epoch without demands), with two documented
exceptions:

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
        self.first_diff = first_diff  # (epoch, user, got, want)


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


def oracle_problem(summary) -> AllocationProblem:
    demands = tuple(sorted(summary.demands.items()))
    weights = (None if summary.weights is None
               else [summary.weights[u] for u, _ in demands])
    return AllocationProblem(demands, summary.capacity_start, weights)


def verify_run(result: RunResult) -> VerifyReport:
    """Compare every claim epoch of a run to the oracle allocation."""
    checks = []
    for summary in result.epoch_summaries:
        epoch, granted = summary.epoch, summary.granted
        if not granted.keys() <= summary.demands.keys():
            # a grant to a user who demanded nothing: the oracle wants 0
            user = min(granted.keys() - summary.demands.keys())
            check = EpochCheck(epoch, False, MISMATCH,
                               (epoch, user, granted[user], 0))
        elif not summary.demands:
            check = EpochCheck(epoch, True, NO_DEMANDS)
        elif summary.incomplete:
            check = EpochCheck(epoch, True, EXHAUSTED)
        else:
            want = waterfill(oracle_problem(summary))
            # the oracle also lists the demanders it grants nothing
            if granted == want or {u: granted.get(u, 0) for u in want} == want:
                check = EpochCheck(epoch, True)
            elif (summary.depleted
                  and sum(granted.values()) == sum(want.values())):
                check = EpochCheck(epoch, True, TOTALS_ONLY)
            else:
                user = min(u for u in want if granted.get(u, 0) != want[u])
                check = EpochCheck(epoch, False, MISMATCH, (
                    epoch, user, granted.get(user, 0), want[user]))
        checks.append(check)
    return VerifyReport(checks)
