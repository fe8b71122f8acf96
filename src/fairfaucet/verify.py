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
  left and demand unserved, the epoch is reported as a finding and not
  compared user by user (the next epoch's comparison re-anchors on the
  actual capacity, so nothing cascades).
"""

from .clock import _Record
from .oracle import AllocationProblem, waterfill
from .sim import RunResult


class EpochCheck(_Record):
    __slots__ = ("epoch", "ok", "note", "first_diff")

    def __init__(self, epoch: int, ok: bool, note: str = "",
                 first_diff: tuple = None):
        self.epoch = epoch
        self.ok = ok
        self.note = note
        self.first_diff = first_diff  # (epoch, user, got, want)


class VerifyReport(_Record):
    __slots__ = ("ok", "checks", "notes")

    def __init__(self, ok: bool, checks: list = None, notes: list = None):
        self.ok = ok
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes

    @property
    def first_diff(self):
        for check in self.checks:
            if check.first_diff is not None:
                return check.first_diff
        return None


def oracle_problem(summary) -> AllocationProblem:
    demands = sorted(summary.demands.items())
    weights = None
    if summary.weights is not None:
        weights = [summary.weights[u] for u, _ in demands]
    return AllocationProblem(demands=tuple(demands),
                             capacity=summary.capacity_start,
                             weights=weights)


def verify_run(result: RunResult) -> VerifyReport:
    """Compare every claim epoch of a run to the oracle allocation."""
    report = VerifyReport(ok=True)
    for summary in result.epoch_summaries:
        granted = summary.granted
        if not granted.keys() <= summary.demands.keys():
            # a grant to a user who demanded nothing: the oracle wants 0
            user = min(granted.keys() - summary.demands.keys())
            report.ok = False
            report.checks.append(EpochCheck(
                summary.epoch, False, "allocation mismatch",
                (summary.epoch, user, granted[user], 0)))
            continue
        if not summary.demands:
            report.checks.append(EpochCheck(summary.epoch, True, "no demands"))
            continue
        if summary.incomplete:
            report.checks.append(EpochCheck(
                summary.epoch, True, "rounds exhausted before completion"))
            report.notes.append(
                f"epoch {summary.epoch}: claim rounds ran out with capacity "
                f"left; per-user comparison skipped")
            continue
        want = waterfill(oracle_problem(summary))
        # the oracle also lists the demanders it grants nothing
        if granted == want or {u: granted.get(u, 0) for u in want} == want:
            report.checks.append(EpochCheck(summary.epoch, True))
            continue
        if summary.depleted and sum(granted.values()) == sum(want.values()):
            report.checks.append(EpochCheck(
                summary.epoch, True, "depletion round served in arrival order"))
            report.notes.append(
                f"epoch {summary.epoch}: capacity depleted; final-round "
                f"grants follow arrival order, totals match the oracle")
            continue
        diff = None
        for user in sorted(want):
            if granted.get(user, 0) != want[user]:
                diff = (summary.epoch, user, granted.get(user, 0), want[user])
                break
        report.ok = False
        report.checks.append(EpochCheck(summary.epoch, False,
                                        "allocation mismatch", diff))
    return report
