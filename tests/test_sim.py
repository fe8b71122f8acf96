import gc
import hashlib
import json
import pickle
from functools import partial
from pathlib import Path

import pytest

from fairfaucet.clock import locate
from fairfaucet.costs import CostModel
from fairfaucet.sim import (MASK64, MAX_BLOCKS, VARIANTS, Scenario,
                            ScenarioError, TraceRow, balances_csv,
                            load_scenario, next_demand, run_scenario,
                            scenario_from_dict, trace_csv)
from fairfaucet.verify import _weights, verify_run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- demand stream ----------------------------------------------------------

def splitmix_reference(state):
    """Inline re-derivation of one generator step, kept independent of the
    library implementation."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return state, z


def test_first_draw_from_seed_zero_matches_pinned_constant():
    state, raw = splitmix_reference(0)
    # frozen constants from the hand-computed mix steps
    assert state == 0x9E3779B97F4A7C15
    assert raw == 0xE220A8397B1DCDAF
    assert next_demand(0, 10, 30) == (state, 10 + raw % 20)
    assert next_demand(0, 10, 30)[1] == 25


def test_generator_agrees_with_reference_along_a_stream():
    state = lib_state = 9_876_543_210
    for _ in range(200):
        state, raw = splitmix_reference(state)
        lib_state, amount = next_demand(lib_state, 3, 45)
        assert lib_state == state
        assert amount == 3 + raw % 42


def test_degenerate_range_always_returns_lo():
    state = 5
    for _ in range(20):
        state, amount = next_demand(state, 10, 11)
        assert amount == 10


def test_same_seed_same_sequence():
    a = b = 314159
    seq_a, seq_b = [], []
    for _ in range(50):
        a, x = next_demand(a, 10, 30)
        seq_a.append(x)
    for _ in range(50):
        b, x = next_demand(b, 10, 30)
        seq_b.append(x)
    assert seq_a == seq_b
    assert all(10 <= x < 30 for x in seq_a)


def test_empty_range_rejected():
    with pytest.raises(ScenarioError):
        next_demand(0, 10, 10)
    with pytest.raises(ScenarioError):
        next_demand(0, 0, 5)


# -- scenario validation and serialization ----------------------------------

def scenario_to_dict(sc: Scenario) -> dict:
    out = dict(zip(sc._fields, sc._values()))
    model = sc.cost_model
    out["cost_model"] = dict(zip(model._fields, model._values()))
    if sc.scripted_demands is None:
        del out["scripted_demands"]
    else:
        out["scripted_demands"] = [list(row) for row in sc.scripted_demands]
    return out


GEOMETRY = ("epoch_capacity", "epoch_span", "round_span")


@pytest.mark.parametrize("variant", VARIANTS)
def test_omitted_geometry_follows_n_on_every_path(variant, tmp_path):
    # capacity 20n, epoch span 4n, round span n, the same in Python and
    # from a file, and stored as the ints themselves
    keys = dict(variant=variant, n=50, seed=7, epochs=3)
    sc = Scenario(**keys)
    assert sc._values()[2:5] == (1000, 200, 50)
    assert all(type(getattr(sc, name)) is int for name in GEOMETRY)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(keys))
    other_n = dict(keys, n=10, epoch_capacity=7, epoch_span=40,
                   round_span=10)
    built = [scenario_from_dict(keys), load_scenario(path),
             Scenario(**other_n).with_n(50),
             scenario_from_dict(json.loads(json.dumps(
                 dict(keys, **dict.fromkeys(GEOMETRY))))),
             pickle.loads(pickle.dumps(sc)), sc._replace()]
    built += [scenario_from_dict(json.loads(json.dumps({**keys, name: None})))
              for name in GEOMETRY]
    assert built == [sc] * len(built)


def test_scenario_rejects_bad_parameters():
    with pytest.raises(ScenarioError, match="variant"):
        Scenario("XMF", 10)
    with pytest.raises(ScenarioError, match="round_span"):
        Scenario(variant="AMF", n=10, epoch_capacity=200, epoch_span=36,
                 round_span=9)
    with pytest.raises(ScenarioError, match="two rounds"):
        Scenario(variant="AMF", n=5, epoch_capacity=100, epoch_span=5,
                 round_span=5)
    with pytest.raises(ScenarioError, match="demand range"):
        Scenario("AMF", 10, demand_lo=20, demand_hi=20)
    with pytest.raises(ScenarioError, match="precision"):
        Scenario("WAMF", 10, epochs=4, precision=100)


@pytest.mark.parametrize("make, message", [
    (partial(Scenario, "AMF", 3, cost_model={}),
     "cost_model must be a CostModel"),
    (partial(Scenario, "AMF", 3, epochs=-1), "epochs must be >= 0"),
    (partial(Scenario, "AMF", 3, epoch_capacity=0),
     "epoch_capacity must be positive"),
    # the clock's own ValueError, raised again as a ScenarioError
    (partial(Scenario, "AMF", 3, epoch_span=10, round_span=3),
     "epoch_span must be a multiple of round_span"),
    (partial(scenario_from_dict,
             {"variant": "AMF", "n": 3, "cost_model": [800]}),
     "cost_model must be a JSON object"),
], ids=["cost_model_type", "epochs", "epoch_capacity", "clock",
        "cost_model_json"])
def test_each_scenario_check_says_what_it_rejects(make, message):
    with pytest.raises(ScenarioError) as exc:
        make()
    assert str(exc.value) == message


def test_precision_bound_counts_only_the_scripted_rows_that_run():
    # one epoch runs only the first row: 50 units stay below 100
    sc = Scenario(variant="WAMF", n=1, epoch_capacity=10, epoch_span=4,
                  round_span=2, epochs=1, precision=100,
                  scripted_demands=[[50], [60]])
    assert sc.epochs == 1
    with pytest.raises(ScenarioError, match="precision must exceed"):
        sc._replace(epochs=2)


BAD_FIELDS = [("n", 2.5), ("n", True), ("epochs", 4.0), ("epochs", True),
              ("seed", 1.5), ("seed", False), ("demand_lo", 10.0),
              ("demand_lo", True), ("scripted_demands", [[1, 2], 3]),
              ("scripted_demands", 7)]


@pytest.mark.parametrize("field, value", BAD_FIELDS)
def test_every_path_rejects_the_same_bad_field(field, value):
    # the constructor is the one validator: _replace, with_n and the JSON
    # path all build through it
    sc = Scenario("AMF", 3)
    fields = dict(zip(sc._fields, sc._values()), **{field: value})
    with pytest.raises(ScenarioError, match=field):
        Scenario(**fields)
    with pytest.raises(ScenarioError, match=field):
        sc._replace(**{field: value})
    with pytest.raises(ScenarioError, match=field):
        scenario_from_dict({**scenario_to_dict(sc), field: value})
    if field == "n":
        with pytest.raises(ScenarioError, match="n must be an integer"):
            sc.with_n(value)


def test_every_path_rejects_an_oversized_run():
    # each asks for twice the limit: epochs of 4 blocks at n = 1, or the
    # 4 epochs of 4n blocks of the default geometry
    too_many = (f"the run needs {2 * MAX_BLOCKS} blocks, more than the "
                f"limit of {MAX_BLOCKS}")
    epochs = MAX_BLOCKS // 2
    sc = Scenario("AMF", 1)
    with pytest.raises(ScenarioError, match=too_many):
        Scenario("AMF", 1, epochs=epochs)
    with pytest.raises(ScenarioError, match=too_many):
        sc._replace(epochs=epochs)
    with pytest.raises(ScenarioError, match=too_many):
        scenario_from_dict({"variant": "AMF", "n": 1, "epochs": epochs})
    with pytest.raises(ScenarioError, match=too_many):
        sc.with_n(MAX_BLOCKS // 8)


@pytest.mark.parametrize("given, left_out", [
    ({}, "epoch_capacity, epoch_span, round_span"),
    ({"epoch_capacity": 10, "epoch_span": None}, "epoch_span, round_span"),
    ({"epoch_capacity": 10, "epoch_span": 4}, "round_span"),
])
def test_no_users_and_left_out_geometry_names_n_and_the_key(given, left_out):
    # the derived geometry would be 0; the message must not blame a key
    # the caller never gave
    message = (f"n = 0 scales the left-out {left_out} to 0; a run without "
               f"users needs its geometry given")
    with pytest.raises(ScenarioError) as exc:
        Scenario("AMF", 0, **given)
    assert str(exc.value) == message
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({"variant": "AMF", "n": 0, **given})
    assert str(exc.value) == message


def test_the_block_limit_counts_at_least_one_epoch():
    # a run of no epochs still builds a balance per user
    at_limit = dict(n=1, epoch_span=MAX_BLOCKS, round_span=1)
    assert Scenario("AMF", epochs=1, **at_limit).epoch_span == MAX_BLOCKS
    assert Scenario("AMF", epochs=0, **at_limit).epochs == 0
    with pytest.raises(ScenarioError, match="more than the limit"):
        Scenario("AMF", epochs=1, **dict(at_limit, epoch_span=MAX_BLOCKS + 1))
    with pytest.raises(ScenarioError, match="more than the limit"):
        Scenario("CMF", MAX_BLOCKS // 4 + 1, epochs=0)
    # WAMF at n = 10**5, 1.6 * 10**6 blocks, builds
    sc = Scenario("WAMF", 10 ** 5)
    assert sc.epochs * sc.epoch_span == 1_600_000


@pytest.mark.parametrize("value", [800.0, True])
def test_every_path_rejects_a_non_integer_price(value):
    with pytest.raises(ValueError, match="storage_read must be an integer"):
        CostModel(storage_read=value)
    with pytest.raises(ValueError, match="storage_read must be an integer"):
        CostModel()._replace(storage_read=value)
    with pytest.raises(ScenarioError, match="storage_read must be an integer"):
        scenario_from_dict({"variant": "AMF", "n": 3,
                            "cost_model": {"storage_read": value}})


def test_scenario_json_round_trip(tmp_path):
    sc = Scenario("WAMF", 12, seed=9,
                  cost_model=CostModel(storage_write=7000))
    data = scenario_to_dict(sc)
    assert scenario_from_dict(json.loads(json.dumps(data))) == sc
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    assert load_scenario(path) == sc


def test_scenario_dict_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        scenario_from_dict({"variant": "AMF", "n": 3, "bogus": 1})


def test_scripted_rows_validated():
    with pytest.raises(ScenarioError, match="scripted"):
        Scenario(variant="AMF", n=2, epoch_capacity=40, epoch_span=8,
                 round_span=2, scripted_demands=((4, 11, 15),))
    with pytest.raises(ScenarioError, match="scripted"):
        Scenario(variant="AMF", n=2, epoch_capacity=40, epoch_span=8,
                 round_span=2, scripted_demands=((0, 4),))


# -- the block schedule ------------------------------------------------------

def test_one_tx_per_block_and_consecutive_numbering():
    sc = Scenario("AMF", 7, seed=3, epochs=3)
    result = run_scenario(sc)
    blocks = [r.block for r in result.trace]
    assert blocks == list(range(sc.epochs * sc.epoch_span))
    assert [r.block for r in result.receipts] == blocks


@pytest.mark.parametrize("variant", ["AMF", "WAMF", "CMF"])
def test_each_block_is_one_record_that_is_also_its_receipt(variant):
    sc = Scenario(variant, 5, seed=8, epochs=3)
    result = run_scenario(sc)
    assert list(result.receipts) == list(result.trace) == result.rows
    assert ([r.block for r in result.trace]
            == list(range(sc.epochs * sc.epoch_span)))
    assert all(type(r) is TraceRow for r in result.trace)
    assert all(r.kind == r.action for r in result.trace)
    assert {r.kind for r in result.trace} >= {"register", "demand", "noop"}


@pytest.mark.parametrize("variant", ["AMF", "WAMF", "CMF"])
def test_stored_records_are_exact_tuples_the_collector_untracks(variant):
    # A stored record must be a plain tuple of ints, strs and bools: the
    # garbage collector untracks such a tuple once it has seen it, never
    # a NamedTuple, and a run keeps every record until it returns.
    result = run_scenario(Scenario(variant, 50, seed=8, epochs=4))
    assert len(result.rows) == 800
    assert all(type(row) is tuple for row in result.rows)
    gc.collect()
    assert not any(gc.is_tracked(row) for row in result.rows)


def test_the_trace_view_reads_the_stored_records_as_trace_rows():
    result = run_scenario(Scenario("CMF", 5, seed=8, epochs=3))
    rows, view = result.rows, result.trace
    assert len(view) == len(rows) == 60
    assert list(view) == rows
    for k, row in enumerate(view):
        assert type(row) is TraceRow and row.block == k
    # each read makes its own rows, and the view keeps none
    assert all(a == b and a is not b
               for a, b in zip(view, view, strict=True))


@pytest.mark.parametrize("variant", ["AMF", "WAMF", "CMF"])
def test_trace_positions_match_the_clock(variant):
    # round_span > n leaves filler blocks in every round, and the None
    # entries turn scripted demand blocks into no-ops
    sc = Scenario(variant=variant, n=3, epoch_capacity=30, epoch_span=20,
                  round_span=5, epochs=3,
                  scripted_demands=((4, None, 15), (None, 3, 8)))
    result = run_scenario(sc)
    for row, receipt in zip(result.trace, result.receipts, strict=True):
        pos = locate(sc.clock, row.block)
        assert (row.epoch, row.round) == pos, row
        assert (receipt.epoch, receipt.round) == pos
    actions = {r.block: r.action for r in result.trace}
    # users 2 and 1 demand None in epochs 0 and 1; offsets 3 and 4 of
    # every round are filler
    assert actions[16] == actions[35] == "noop"
    assert actions[18] == actions[59] == "noop"
    if variant == "CMF":
        assert [r.block for r in result.trace
                if r.action == "distribute"] == [20, 40]


def test_zero_epochs_is_an_empty_run():
    sc = Scenario("AMF", 4, epochs=0)
    result = run_scenario(sc)
    assert result.rows == []
    assert list(result.trace) == list(result.receipts) == []
    # nobody ever registers, so there are no balances to report
    assert all(v == 0 for v in result.balances.values())
    assert result.injected == 0
    assert result.conservation_ok()


@pytest.mark.parametrize("variant, spans, injected", [
    ("AMF", [], 0),
    ("WAMF", [], 0),
    # CMF's distribute block tops the pool up even with nobody to pay
    ("CMF", [(10, 10), (20, 20)], 20),
])
def test_runs_without_users(variant, spans, injected):
    sc = Scenario(variant=variant, n=0, epoch_capacity=10, epoch_span=4,
                  round_span=2, epochs=3)
    result = run_scenario(sc)
    assert [(s.capacity_start, s.capacity_end)
            for s in result.epoch_summaries] == spans
    assert result.injected == injected
    assert result.balances == {}
    assert result.conservation_ok()
    report = verify_run(result)
    assert report.ok
    assert len(report.checks) == len(spans)


def test_registration_then_filler_then_demands_in_epoch_zero():
    sc = Scenario("AMF", 5, seed=1, epochs=2)
    result = run_scenario(sc)
    first_epoch = [r for r in result.trace if r.epoch == 0]
    kinds = [r.action for r in first_epoch]
    assert kinds[:5] == ["register"] * 5
    assert kinds[5:15] == ["noop"] * 10
    assert kinds[15:] == ["demand"] * 5


def test_amf_cmf_totals_align_modulo_round_exhaustion():
    # the same PRNG stream drives both variants; the autonomous run can
    # only fall short of the central one when its claim rounds run out
    for seed in range(6):
        amf = Scenario("AMF", 20, seed=seed, epochs=3)
        cmf = Scenario("CMF", 20, seed=seed, epochs=3)
        res_a, res_c = run_scenario(amf), run_scenario(cmf)
        assert res_a.conservation_ok()
        assert res_c.conservation_ok()
        total_a = sum(res_a.balances.values())
        total_c = sum(res_c.balances.values())
        if any(s.incomplete for s in res_a.epoch_summaries):
            assert total_a <= total_c
        else:
            assert total_a == total_c


def test_scripted_demands_override_prng():
    sc = Scenario(variant="AMF", n=2, epoch_capacity=40, epoch_span=8,
                  round_span=2, epochs=3, seed=77,
                  scripted_demands=((6, None),))
    result = run_scenario(sc)
    demands = [r for r in result.trace if r.action == "demand"]
    assert [(d.actor, d.amount) for d in demands] == [(1, 6)]
    # only the scripted demand exists; later epochs have no demand txs
    assert result.balances == {1: 6, 2: 0}


def test_cmf_run_produces_reports_and_full_balances():
    sc = load_scenario(SCENARIOS / "cmf_worked_example.json")
    result = run_scenario(sc)
    assert len(result.reports) == 1
    report = result.reports[0]
    assert report.shares == [10, 3, 2]
    assert report.allocations == {1: 4, 2: 11, 3: 15}
    assert result.balances == {1: 4, 2: 11, 3: 15}
    distribute_rows = [r for r in result.trace if r.action == "distribute"]
    assert len(distribute_rows) == 1
    assert distribute_rows[0].amount == 30
    assert result.conservation_ok()


def test_amf_worked_example_reaches_the_expected_balances():
    sc = load_scenario(SCENARIOS / "amf_worked_example.json")
    result = run_scenario(sc)
    assert result.balances == {1: 39, 2: 35, 3: 40}
    assert result.final_capacity == 6
    assert result.conservation_ok()


def test_identical_scenarios_produce_identical_bytes():
    sc = Scenario("WAMF", 9, seed=123, epochs=3)
    first = run_scenario(sc)
    second = run_scenario(sc)
    h1 = hashlib.sha256(trace_csv(first).encode()).hexdigest()
    h2 = hashlib.sha256(trace_csv(second).encode()).hexdigest()
    assert h1 == h2
    assert balances_csv(first) == balances_csv(second)


def test_epoch_summaries_describe_claim_epochs():
    sc = Scenario("AMF", 6, seed=10, epochs=3)
    result = run_scenario(sc)
    assert [s.epoch for s in result.epoch_summaries] == [1, 2]
    for summary in result.epoch_summaries:
        assert len(summary.demands) == 6
        granted = sum(summary.granted.values())
        assert granted == summary.capacity_start - summary.capacity_end


def test_the_referees_weights_are_the_demand_receipts():
    # verify derives each WAMF weight from the run's demands alone; it
    # equals the weight the faucet recorded in the demand's receipt
    result = run_scenario(Scenario("WAMF", 6, seed=10, epochs=4))
    assert [s.epoch for s in result.epoch_summaries] == [1, 2, 3]
    derive = _weights(result)
    for summary in result.epoch_summaries:
        recorded = {r.actor: int(r.summary.rsplit("=", 1)[1])
                    for r in result.receipts
                    if r.kind == "demand" and r.epoch == summary.epoch - 1}
        weights = derive(summary)
        assert weights == recorded
        assert len(set(weights.values())) > 1


def test_the_referees_weights_do_not_depend_on_the_order_asked():
    # a summary asked for twice, or after a later one, gets the weights of
    # the demands up to its own epoch, as the demand receipts record them
    result = run_scenario(Scenario("WAMF", 50, epoch_capacity=600, seed=3))
    summaries = result.epoch_summaries
    recorded = [{r.actor: int(r.summary.rsplit("=", 1)[1])
                 for r in result.receipts
                 if r.kind == "demand" and r.epoch == s.epoch - 1}
                for s in summaries]
    assert len(summaries) == 3
    for order in ([0, 0], [1, 0], [2, 0, 1, 1, 2, 0]):
        derive = _weights(result)
        for i in order:
            assert derive(summaries[i]) == recorded[i], (order, i)
