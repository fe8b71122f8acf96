"""Property test of the CSV renderers against the reference renderers of
``test_render``.

The chunked renderers write the fields that a run of rows shares once per
run, in the run's row format.  Random traces put that to the test where it
can slip: runs of 1 to 3 * CHUNK rows, so that runs cross chunk
boundaries and the rows of a run do not fill whole pieces; an
``over_budget`` flag that flips inside a round, so that two runs share
epoch, round and action; actions and summaries with ``%`` or ``%%`` in
them; epochs and rounds above 256; and empty and one-row traces.  Random
grant rows do the same for ``distributions.csv``.
"""

from hypothesis import example, given, settings, strategies as st

from fairfaucet.cmf import DistributionReport
from fairfaucet.sim import CHUNK, RunResult, TraceRow
from round_records import run_result
from test_render import PAIRS, budgeted

ACTIONS = ("register", "demand", "claim", "distribute", "noop", "50%",
           "%", "%%", "%s", "%d%%", "%(x)s")
SUMMARIES = st.sampled_from(["", "granted=3", "100%", "%%", "%s", "%d %%"])
POSITION = st.integers(0, 10 ** 6)


# a row over it costs BUDGET + 1 or more, a row within it 21000 or more
BUDGET = 500_000


def result(trace=(), reports=(), balances=None) -> RunResult:
    return run_result(budgeted(BUDGET), trace, balances, reports)


@st.composite
def traces(draw) -> list:
    """Runs of rows; each run either starts a new round (or the same
    epoch, round and action again) or, inside its round, flips the flag.
    A row's own fields are mixed from a drawn salt and its block."""
    salt = draw(st.integers(0, 2 ** 32))
    summaries = draw(st.lists(SUMMARIES, min_size=1, max_size=4))
    rows, epoch, rnd, action, over = [], 0, 0, "claim", False
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            epoch, rnd = draw(POSITION), draw(POSITION)
            action, over = draw(st.sampled_from(ACTIONS)), draw(st.booleans())
        else:
            over = not over
        for _ in range(draw(st.integers(1, 3 * CHUNK))):
            k = len(rows)
            mix = (k * 2654435761 + salt) % 1000003
            cost = BUDGET + 1 + mix if over else 21000 + mix % 479001
            rows.append(TraceRow(k, epoch, rnd, mix % 2001, action, mix % 31,
                                 mix % 7, 10 ** 6 - k, cost, over,
                                 summaries[mix % len(summaries)]))
    return rows


@st.composite
def reports(draw) -> list:
    """CMF reports whose grant rows come in runs of one iteration and
    share, of 1 to 3 * CHUNK rows; an iteration may change its share."""
    out = []
    for epoch in range(1, draw(st.integers(0, 3)) + 1):
        rows = []
        for iteration in range(1, draw(st.integers(0, 3)) + 1):
            for share in draw(st.lists(POSITION, min_size=1, max_size=2)):
                for k in range(draw(st.integers(1, 3 * CHUNK))):
                    rows.append((iteration, k + 1, share - k % 3,
                                 share, 10 ** 7 - len(rows)))
        out.append(DistributionReport(epoch=epoch, rows=rows))
    return out


def one_row() -> RunResult:
    row = TraceRow(0, 300, 257, 1, "50%", 0, 0, 10, BUDGET + 1, True, "%s")
    return result([row], [DistributionReport(1, rows=[(1, 1, 5, 5, 0)])],
                  {1: 5})


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(trace=traces(), grants=reports(),
       balances=st.dictionaries(POSITION, POSITION, max_size=50))
@example(trace=[], grants=[], balances={}).via("the empty trace")
@example(trace=one_row().trace, grants=one_row().reports,
         balances=one_row().balances).via("a one-row trace")
def test_renderers_match_reference_on_random_traces(trace, grants,
                                                    balances):
    run = result(trace, grants, balances)
    for render, reference in PAIRS:
        assert render(run) == reference(run), render.__name__
