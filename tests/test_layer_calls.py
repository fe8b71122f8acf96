"""The entry points the benchmark's spans wrap.

``perfbench/run.py`` times each layer by wrapping the attributes its
``SPANS`` names, looked up in their class's or module's ``__dict__``, so
every entry must still name one.  A transaction row is one call of its
contract entry point and one ``CostMeter.total``: the span counts are the
rows of each kind.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from fairfaucet.cmf import CmfDistributor
from fairfaucet.costs import CostMeter
from fairfaucet.faucet import AutonomousFaucet
from fairfaucet.sim import Scenario, run_scenario

BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

# (owner, entry point, the action of its rows)
ENTRY_POINTS = [
    (AutonomousFaucet, "register", "register"),
    (AutonomousFaucet, "demand", "demand"),
    (AutonomousFaucet, "claim", "claim"),
    (CmfDistributor, "register", "register"),
    (CmfDistributor, "submit_demand", "demand"),
    (CmfDistributor, "distribute", "distribute"),
]


def test_every_span_names_an_entry_point():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.SPANS
    for module_name, cls_name, attr, span in bench.SPANS:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls_name) if cls_name else module
        assert attr in owner.__dict__, span


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of each entry point and of ``CostMeter.total``."""
    counts = Counter()
    for owner, name in [(o, n) for o, n, _ in ENTRY_POINTS] + [
            (CostMeter, "total")]:
        def counted(*args, _fn=owner.__dict__[name],
                    _key=(owner.__name__, name), **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("sc", [
    Scenario("AMF", 7, seed=2, epochs=3),
    Scenario("WAMF", 7, seed=5, epochs=3, epoch_capacity=60),
    Scenario("CMF", 7, seed=8, epochs=3),
    # a demand of None is a no-op row that still takes its cost; the
    # fourth epoch has no scripted row, so every slot demands nothing
    Scenario("AMF", 4, epochs=4, epoch_span=12, round_span=4,
             scripted_demands=((5, None, 7), (None, 3, None, 2), (2,))),
    Scenario("CMF", 4, epochs=4, epoch_span=12, round_span=4,
             scripted_demands=((5, None, 7), (None, 3, None, 2), (2,))),
], ids=["AMF", "WAMF", "CMF", "AMF-scripted", "CMF-scripted"])
def test_each_row_is_one_contract_call_and_one_total(sc, calls):
    result = run_scenario(sc)
    rows = Counter(r.kind for r in result.trace)
    owner = CmfDistributor if sc.variant == "CMF" else AutonomousFaucet
    for cls, name, action in ENTRY_POINTS:
        want = rows[action] if cls is owner else 0
        assert calls[cls.__name__, name] == want, (name, action)
    # the busy rows: every transaction, and every demand slot, one per
    # user in each epoch's last round, a demand of None included
    assert calls["CostMeter", "total"] == (
        rows["register"] + sc.epochs * sc.n + rows["claim"]
        + rows["distribute"])
    assert rows["demand"] and (rows["claim"] or rows["distribute"])
    if sc.scripted_demands:
        assert rows["demand"] < sc.epochs * sc.n  # some demand None
