"""The record classes as their callers use them: constructor signatures,
value equality, immutability and hashing of the frozen ones, fresh
mutable defaults, and an import path that leaves out ``dataclasses``,
``logging`` and ``fractions``."""

import copy
import inspect
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fairfaucet.clock import ClockParams
from fairfaucet.cmf import DistributionReport, GrantRow
from fairfaucet.costs import ActionStats, CostModel, CostSummary
from fairfaucet.faucet import UserAccount
from fairfaucet.oracle import (AllocationProblem, leximin_brute_force,
                               sorted_levels)
from fairfaucet.sim import EpochSummary, RunResult, Scenario, ScenarioError
from fairfaucet.verify import EpochCheck, VerifyReport

SRC = Path(__file__).resolve().parent.parent / "src"

SIGNATURES = {
    ClockParams: "offset epoch_span round_span",
    CostModel: "storage_read storage_write heap_move arithmetic_op tx_base "
               "block_budget",
    ActionStats: "count total",
    CostSummary: "by_action claim_by_round over_budget",
    DistributionReport: "epoch shares rows allocations capacity_before "
                        "capacity_after",
    UserAccount: "uid balance pending demand_epoch slot_weight "
                 "last_claim_epoch last_claim_round cumulative_demand",
    AllocationProblem: "demands capacity weights",
    Scenario: "variant n epoch_capacity epoch_span round_span demand_lo "
              "demand_hi epochs seed precision cost_model scripted_demands",
    EpochSummary: "epoch demands weights capacity_start granted capacity_end",
    RunResult: "scenario trace balances reports epoch_summaries "
               "final_capacity injected",
    EpochCheck: "epoch ok note first_diff",
    VerifyReport: "checks",
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_constructor_parameters_keep_their_names_and_order(cls):
    assert list(inspect.signature(cls).parameters) == SIGNATURES[cls].split()


def test_scalar_defaults():
    assert CostModel() == CostModel(800, 5000, 800, 5, 21000, 8_000_000)
    sc = Scenario("AMF", 3, 60, 12, 3)
    assert (sc.demand_lo, sc.demand_hi, sc.epochs, sc.seed, sc.precision,
            sc.cost_model, sc.scripted_demands) == (
                10, 30, 4, 0, 10 ** 9, CostModel(), None)
    acct = UserAccount(7)
    assert (acct.balance, acct.pending, acct.demand_epoch, acct.slot_weight,
            acct.last_claim_epoch, acct.last_claim_round,
            acct.cumulative_demand) == (0, [0, 0], [-2, -2], [0, 0], -1, -1, 0)
    assert EpochCheck(2, True) == EpochCheck(2, True, "", None)


# two builds of equal values each, with one field to assign to
FROZEN = {
    "ClockParams": (lambda: ClockParams(3, 12, 4), "offset"),
    "CostModel": (lambda: CostModel(tx_base=100), "tx_base"),
    "Scenario": (lambda: Scenario(
        "WAMF", 4, seed=9, scripted_demands=[[1, None, 3]]), "seed"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_are_hashable_values_and_immutable(name):
    build, field = FROZEN[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    # copies and pickles rebuild equal values
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_allocation_problem_holds_three_fields_and_shows_its_dicts():
    problem = AllocationProblem({2: 3, 1: 5}, 6, {2: 1, 1: 2})
    assert problem.weight_of(2) == 1
    assert repr(problem) == ("AllocationProblem(demands={2: 3, 1: 5}, "
                             "capacity=6, weights={2: 1, 1: 2})")
    with pytest.raises(TypeError):
        AllocationProblem({1: 5}, 6, None, {1: 1})


def test_repr_names_the_fields():
    assert repr(ClockParams(0, 8, 2)) == (
        "ClockParams(offset=0, epoch_span=8, round_span=2)")
    assert repr(EpochCheck(1, False, "x", (1, 2, 3, 4))) == (
        "EpochCheck(epoch=1, ok=False, note='x', first_diff=(1, 2, 3, 4))")


def summary(**changes):
    fields = dict(epoch=1, demands={1: 5}, weights={1: 1}, capacity_start=9,
                  granted={1: 5}, capacity_end=4)
    fields.update(changes)
    return EpochSummary(**fields)


def report(**changes):
    fields = dict(epoch=2, shares=[3], rows=[GrantRow(1, 1, 3, 3, 7)],
                  allocations={1: 3}, capacity_before=10, capacity_after=7)
    fields.update(changes)
    return DistributionReport(**fields)


def problem(**changes):
    fields = dict(demands={1: 5, 2: 3}, capacity=6, weights={1: 2, 2: 1})
    fields.update(changes)
    return AllocationProblem(**fields)


def verify_report(**changes):
    fields = dict(checks=[EpochCheck(1, False, "m", (1, 1, 2, 3))])
    fields.update(changes)
    return VerifyReport(**fields)


@pytest.mark.parametrize("build, field, other", [
    (summary, "epoch", 2), (summary, "granted", {1: 4}),
    (summary, "capacity_end", 0),
    (report, "epoch", 3), (report, "rows", []), (report, "capacity_after", 6),
    (verify_report, "checks", []),
    (problem, "demands", {1: 5, 2: 4}), (problem, "capacity", 7),
    (problem, "weights", None),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_mutable_records_compare_by_field(build, field, other):
    assert build() == build()
    assert build() != build(**{field: other})
    # mutable records are not hashable, as with eq=True dataclasses
    with pytest.raises(TypeError):
        hash(build())


def test_equality_needs_the_same_class():
    assert ActionStats(1, 2) == ActionStats(1, 2)
    assert ActionStats(1, 2) != (1, 2)
    assert EpochCheck(1, True) != VerifyReport()


def test_mutable_defaults_are_fresh_per_instance():
    r1, r2 = DistributionReport(epoch=1), DistributionReport(epoch=1)
    assert r1.rows is not r2.rows and r1.shares is not r2.shares
    assert r1.allocations is not r2.allocations
    r1.rows.append(GrantRow(1, 1, 1, 1, 0))
    assert r2.rows == []
    a1, a2 = UserAccount(1), UserAccount(2)
    for name in ("pending", "demand_epoch", "slot_weight"):
        assert getattr(a1, name) is not getattr(a2, name)
    a1.pending[0] = 5
    assert a2.pending == [0, 0]
    s1, s2 = EpochSummary(1, {}, {}, 0), EpochSummary(1, {}, {}, 0)
    assert s1.granted is not s2.granted
    v1, v2 = VerifyReport(), VerifyReport()
    assert v1.checks is not v2.checks
    c1, c2 = CostSummary(), CostSummary()
    assert c1.by_action is not c2.by_action
    assert c1.claim_by_round is not c2.claim_by_round


def test_with_n_validates_through_the_constructor():
    sc = Scenario("AMF", 4, seed=5)
    assert sc.with_n(6) == Scenario("AMF", 6, seed=5)
    with pytest.raises(ScenarioError):
        sc.with_n(-1)


def test_importing_the_package_loads_no_dataclasses_inspect_or_logging():
    # the form of the benchmark's setup probe: json, sys and time first
    probe = (
        "import json, sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import fairfaucet\n"
        "fairfaucet.scenario_from_dict({'variant': 'AMF', 'n': 3})\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    loaded = set(json.loads(done.stdout))
    assert "fairfaucet.sim" in loaded
    assert not loaded & {"dataclasses", "inspect", "logging"}
    # the referee's arithmetic is in plain integers
    assert not loaded & {"fractions", "decimal", "numbers"}


def test_level_vectors_are_still_fractions():
    # fractions is imported where the two tiny-instance helpers run
    p = AllocationProblem(demands={1: 3, 2: 2}, capacity=3,
                          weights={1: 2, 2: 1})
    best_vec, best_alloc = leximin_brute_force(p)
    assert best_vec == (Fraction(1), Fraction(1))
    assert all(type(x) is Fraction for x in best_vec)
    levels = sorted_levels(p, best_alloc)
    assert levels == best_vec
    assert all(type(x) is Fraction for x in levels)
