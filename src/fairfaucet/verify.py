"""Cross-check a run against an independent referee.

Each claim epoch is an allocation problem of its own: the demands the
scenario planned for the previous epoch, accepted by the pool or not,
plus the capacity in force when claims began.  Whatever the schedule,
every epoch keeps two bounds:

1. each grant is in (0, demand] of its user (a grant to a user who
   demanded nothing in that problem is always a mismatch, even in an
   epoch without demands);
2. the grants sum to the capacity the epoch spent, ``capacity_start -
   capacity_end``.

Beyond the bounds, an epoch has one right answer, and the grants must
match it user by user.  For a CMF epoch, and an AMF/WAMF epoch whose
grants meet every demand (right only if the capacity covers them, so
weights cannot matter), it is the water-fill of the summary's own
demand dict, uncopied and unsorted; for every other AMF/WAMF epoch, it
is ``_replay`` of its claim rounds, which shares no code with the faucet.

Each epoch's verdict is one ``EpochCheck``, whose ``note`` names its
kind; the report's ``ok`` and ``first_diff`` derive from them.
"""

from bisect import bisect_right
from collections import Counter
from operator import attrgetter

from .clock import _Record
from .oracle import AllocationProblem, waterfill
from .sim import RunResult

MATCHED = ""  # every grant equals the referee's
MISMATCH = "allocation mismatch"  # the one kind that fails verification
NO_DEMANDS = "no demands"


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
    """Check every claim epoch of a run against its bounds and its one
    right allocation."""
    central = bool(result.reports)  # only CMF runs report distributions
    weights = _weights(result)
    return VerifyReport([_check(result, s, central, weights)
                         for s in result.epoch_summaries])


def _weights(result: RunResult):
    """WAMF's weights of a summary's users: precision // their demands
    summed over the run's summaries up to and including that one, in
    whatever order and however often the summaries are asked for.  The
    sums only move forward, adding each summary's demands once; a
    summary they have passed takes the later demands back out of a copy."""
    summaries = result.epoch_summaries
    cumulative, folded = Counter(), 0  # the demands of summaries[:folded]

    def weights(summary) -> dict:
        nonlocal folded
        # summaries run in ascending epoch order
        upto = bisect_right(summaries, summary.epoch, key=attrgetter("epoch"))
        for s in summaries[folded:upto]:
            cumulative.update(s.demands)
        folded = max(folded, upto)
        total = cumulative
        if upto < folded:
            total = cumulative.copy()
            for s in summaries[upto:folded]:
                total.subtract(s.demands)
        precision = result.scenario.precision
        return {u: precision // total[u] for u in summary.demands}
    return weights


def _replay(result: RunResult, summary, weights) -> dict:
    """The positive grants of an AMF/WAMF epoch's ``rounds_per_epoch - 1``
    claim rounds.  A round's unit is floor(capacity * scale / the pending
    users' weight total); users claim in ascending id order, the canonical
    arrival order, each granted min(pending, max(floor(unit * weight /
    scale), 1), capacity).  AMF weighs every user 1 at scale 1."""
    sc = result.scenario
    pending = dict(sorted(summary.demands.items()))
    if sc.variant == "WAMF":
        scale, weight = sc.precision, weights(summary)
    else:
        scale, weight = 1, dict.fromkeys(pending, 1)
    capacity, want = summary.capacity_start, {}
    for _ in range(sc.clock.rounds_per_epoch - 1):
        if not (capacity and pending):
            break
        unit = capacity * scale // sum(map(weight.__getitem__, pending))
        left = {}  # a satisfied user's weight leaves the next round's total
        for user, amount in pending.items():
            grant = min(amount, max(unit * weight[user] // scale, 1),
                        capacity)
            if grant == 0:  # the capacity ran out
                break
            want[user] = want.get(user, 0) + grant
            capacity -= grant
            if amount > grant:
                left[user] = amount - grant
        pending = left
    return want


def _check(result: RunResult, summary, central: bool, weights) -> EpochCheck:
    epoch, granted, demands = summary.epoch, summary.granted, summary.demands
    if central or granted == demands:
        want = waterfill(AllocationProblem(demands, summary.capacity_start))
    else:
        want = _replay(result, summary, weights)
    # the oracle, unlike the replay, also lists the demanders it grants
    # nothing; either answer keeps bound 1, so an epoch that matches it
    # skips the per-user pass
    if not (granted == want or (
            granted.keys() <= want.keys()
            and {u: granted.get(u, 0) for u in want} == want)):
        user = min((u for u, g in granted.items()
                    if not 0 < g <= demands.get(u, 0)), default=None)
        if user is not None:
            return EpochCheck(epoch, False, MISMATCH, (
                epoch, user, granted[user], demands.get(user, 0)))
        user = min(u for u in demands if granted.get(u, 0) != want.get(u, 0))
        return EpochCheck(epoch, False, MISMATCH, (
            epoch, user, granted.get(user, 0), want.get(user, 0)))
    total = sum(granted.values())
    spent = summary.capacity_start - summary.capacity_end
    if total != spent:
        # bound 2 names no user: the diff holds the grants' total and the
        # capacity the epoch spent
        return EpochCheck(epoch, False, MISMATCH, (epoch, None, total, spent))
    return EpochCheck(epoch, True, MATCHED if demands else NO_DEMANDS)
