import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairfaucet import cli
from fairfaucet.cli import main
from fairfaucet.sim import MAX_BLOCKS, run_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

AMF_TABLE = str(SCENARIOS / "amf_worked_example.json")
FCFS = str(SCENARIOS / "depletion_fcfs.json")


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    rc = main(["run", "--scenario", AMF_TABLE, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("trace.csv", "receipts.csv", "balances.csv"):
        assert (tmp_path / name).exists()
        assert name in out


def test_run_missing_scenario_exits_two(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_run_invalid_scenario_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"variant": "AMF"}))
    rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


BAD_SCENARIOS = {
    "top_level_not_an_object": b"7",
    "scripted_row_not_a_list":
        b'{"variant": "AMF", "n": 3, "scripted_demands": [[1, 2], 3]}',
    "float_seed": b'{"variant": "AMF", "n": 3, "seed": 1.5}',
    "non_utf8_bytes": b'{"variant": "AMF", "n": 3\xff\xfe}',
    "directory": None,
    "boolean_n": b'{"variant": "AMF", "n": true}',
    "zero_epoch_capacity": b'{"variant": "CMF", "n": 3, "epoch_capacity": 0}',
}


def assert_cli_exits_two_without_traceback(*args, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "fairfaucet.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""
    return proc.stderr


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_verify_bad_scenario_exits_two_without_traceback(tmp_path, case):
    path = tmp_path / "scenario.json"
    if BAD_SCENARIOS[case] is None:
        path.mkdir()
    else:
        path.write_bytes(BAD_SCENARIOS[case])
    assert_cli_exits_two_without_traceback("verify", "--scenario", str(path))


# json.load raises RecursionError on nesting past the recursion limit and
# ValueError on an integer past CPython's int-string digit limit
PARSER_LIMIT_SCENARIOS = {
    "nested_past_recursion_limit": b"[" * 100000 + b"]" * 100000,
    "seed_past_int_digit_limit":
        b'{"variant": "AMF", "n": 3, "seed": ' + b"7" * 5000 + b"}",
}


@pytest.mark.parametrize("command", ["verify", "run", "cost-report"])
@pytest.mark.parametrize("case", sorted(PARSER_LIMIT_SCENARIOS))
def test_scenario_past_a_parser_limit_exits_two(tmp_path, case, command):
    path = tmp_path / "scenario.json"
    path.write_bytes(PARSER_LIMIT_SCENARIOS[case])
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    err = assert_cli_exits_two_without_traceback(
        command, "--scenario", str(path), *out)
    assert err.startswith("error: invalid scenario JSON: ")


# Scenarios that pass every other check but ask for more blocks than a run
# may keep, with the block count: the default geometry scaled to 10**8
# users, huge spans, many epochs, and a CMF run of no epochs, which counts
# as one since it still builds a balance per user.
OVERSIZED_SCENARIOS = {
    "n_1e8": ({"variant": "AMF", "n": 10 ** 8}, 16 * 10 ** 8),
    "epoch_span_1e12": ({"variant": "AMF", "n": 1, "epoch_span": 10 ** 12,
                         "round_span": 1}, 4 * 10 ** 12),
    "epochs_1e9": ({"variant": "AMF", "n": 1, "epochs": 10 ** 9},
                   4 * 10 ** 9),
    "round_span_1e12": ({"variant": "AMF", "n": 1,
                         "epoch_span": 2 * 10 ** 12,
                         "round_span": 10 ** 12}, 8 * 10 ** 12),
    "cmf_n_1e8_no_epochs": ({"variant": "CMF", "n": 10 ** 8, "epochs": 0},
                            4 * 10 ** 8),
}


@pytest.mark.parametrize("command", ["verify", "run", "cost-report"])
@pytest.mark.parametrize("case", sorted(OVERSIZED_SCENARIOS))
def test_oversized_scenario_exits_two_before_it_runs(tmp_path, case,
                                                      command):
    keys, blocks = OVERSIZED_SCENARIOS[case]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(keys))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    err = assert_cli_exits_two_without_traceback(
        command, "--scenario", str(path), *out, timeout=10)
    assert err == (f"error: the run needs {blocks} blocks, more than the "
                   f"limit of {MAX_BLOCKS}\n")
    assert not (tmp_path / "out").exists()


def test_no_users_without_geometry_exits_two_naming_n(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"variant": "AMF", "n": 0}))
    err = assert_cli_exits_two_without_traceback(
        "verify", "--scenario", str(path))
    assert err == ("error: n = 0 scales the left-out epoch_capacity, "
                   "epoch_span, round_span to 0; a run without users needs "
                   "its geometry given\n")


def test_oversized_sweep_size_exits_two_before_printing():
    # the n = 5 row would run and print before n = 10**8 was checked
    err = assert_cli_exits_two_without_traceback(
        "cost-report", "--scenario", str(SCENARIOS / "amf_n10.json"),
        "--sweep", "n=5,100000000", timeout=10)
    assert "more than the limit" in err


@pytest.mark.parametrize("spec", ["n=ten", "n=10,0", "n="])
def test_bad_sweep_spec_exits_two(spec, capsys):
    rc = main(["cost-report", "--scenario", str(SCENARIOS / "amf_n10.json"),
               "--sweep", spec])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad sweep spec {spec!r}\n"
    assert captured.out == ""


def test_sweep_of_a_scripted_scenario_exits_two(capsys):
    rc = main(["cost-report", "--scenario", AMF_TABLE, "--sweep", "n=5,10"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: sweep requires a PRNG-driven scenario\n"
    assert captured.out == ""


def test_unwritable_output_exits_two_without_traceback(tmp_path):
    blocker = tmp_path / "file"  # --out names an existing file
    blocker.write_text("")
    assert_cli_exits_two_without_traceback(
        "run", "--scenario", AMF_TABLE, "--out", str(blocker))


def test_run_twice_produces_identical_files(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    scenario = str(SCENARIOS / "amf_n10.json")
    assert main(["run", "--scenario", scenario, "--out", str(out1)]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(out2)]) == 0
    for name in ("trace.csv", "receipts.csv", "balances.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_matches_pinned_goldens_byte_for_byte(tmp_path):
    # `run` regenerates each tests/golden/<scenario>/: exactly its files,
    # byte for byte, over stale ones
    pinned = sorted(p.name for p in GOLDEN.iterdir())
    assert pinned == ["amf_worked_example", "cmf_worked_example"]
    for name in pinned:
        out = tmp_path / name
        out.mkdir()
        files = sorted(p.name for p in (GOLDEN / name).iterdir())
        for file in files:
            (out / file).write_text("stale\n")
        assert main(["run", "--scenario", str(SCENARIOS / f"{name}.json"),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == files
        for file in files:
            assert ((out / file).read_bytes()
                    == (GOLDEN / name / file).read_bytes()), \
                f"golden drift in {name}/{file}"


def test_verify_worked_example_exits_zero(capsys):
    rc = main(["verify", "--scenario", AMF_TABLE])
    assert rc == 0
    assert "verify OK" in capsys.readouterr().out


def test_verify_depletion_scenario_is_compared_user_by_user(capsys):
    rc = main(["verify", "--scenario", FCFS])
    assert rc == 0
    assert capsys.readouterr().out == (
        "verify OK: 1 epoch(s) compared user by user, 0 without demands\n")


def test_verify_counts_the_epochs_without_demands(tmp_path, capsys):
    # epoch 1 claims the demands of epoch 0; epoch 1 itself has none
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "variant": "AMF", "n": 3, "epoch_capacity": 30, "epoch_span": 12,
        "round_span": 3, "epochs": 3, "scripted_demands": [[4, None, 15]]}))
    assert main(["verify", "--scenario", str(path)]) == 0
    assert capsys.readouterr().out == (
        "verify OK: 1 epoch(s) compared user by user, 1 without demands\n")


def test_verify_injected_fault_exits_one(capsys):
    rc = main(["verify", "--scenario", AMF_TABLE, "--inject-fault"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "verify FAILED" in out
    assert "got" in out and "want" in out


@pytest.mark.parametrize("name",
                         sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_injected_fault_fails_every_scenario_file(name, capsys):
    # the negative control: one skewed grant fails whatever the epoch kind
    scenario = str(SCENARIOS / f"{name}.json")
    assert main(["verify", "--scenario", scenario, "--inject-fault"]) == 1
    assert "verify FAILED" in capsys.readouterr().out


def test_verify_names_the_epoch_whose_grants_miss_the_capacity_spent(
        monkeypatch, capsys):
    def run_with_a_unit_unspent(sc):
        result = run_scenario(sc)
        result.epoch_summaries[0].capacity_end += 1
        return result

    monkeypatch.setattr(cli, "run_scenario", run_with_a_unit_unspent)
    assert main(["verify", "--scenario", AMF_TABLE]) == 1
    assert capsys.readouterr().out == (
        "verify FAILED: epoch 1: grants total 30, but the capacity fell by "
        "29\n")


def test_verify_fails_a_run_that_breaks_conservation(monkeypatch, capsys):
    def run_with_a_unit_minted(sc):
        result = run_scenario(sc)
        result.balances[1] += 1
        return result

    monkeypatch.setattr(cli, "run_scenario", run_with_a_unit_minted)
    assert main(["verify", "--scenario", AMF_TABLE]) == 1
    assert capsys.readouterr().out == (
        "verify FAILED: conservation violated (balances 115 + capacity 6 "
        "!= injected 120)\n")


def test_a_fault_cannot_be_injected_into_a_run_without_grants(tmp_path,
                                                               capsys):
    # one epoch registers and demands; no epoch claims
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"variant": "AMF", "n": 3, "epochs": 1}))
    assert main(["verify", "--scenario", str(path), "--inject-fault"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: cannot inject a fault into a run with "
                            "no grants\n")
    assert captured.out == ""


def test_run_warns_of_the_first_transaction_over_the_block_budget(
        tmp_path, capsys):
    # a budget one unit above tx_base: all 51 transactions of the 60
    # blocks are over it, the first being user 1's registration in block 0
    keys = json.loads((SCENARIOS / "amf_worked_example.json").read_text())
    keys["cost_model"]["block_budget"] = keys["cost_model"]["tx_base"] + 1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(keys))
    assert main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "warning: 51 transaction(s) exceeded the block budget (21001); "
        "first at block 0 (register, cost 31000)")


def test_the_warning_names_a_later_first_offender_by_its_own_columns(
        tmp_path, capsys):
    # a budget between cmf_n10's distributes: the first two (blocks 40 and
    # 80, costs 126490 and 124865) are over it, the third (117455) and
    # every other transaction not; block 40 grants 169 units at share 0
    keys = json.loads((SCENARIOS / "cmf_n10.json").read_text())
    keys["cost_model"]["block_budget"] = 120000
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(keys))
    assert main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "warning: 2 transaction(s) exceeded the block budget (120000); "
        "first at block 40 (distribute, cost 126490)")


def test_cost_report_prints_summary(capsys):
    rc = main(["cost-report", "--scenario", str(SCENARIOS / "amf_n10.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "claim" in out and "demand" in out


def test_cost_report_sweep(capsys):
    rc = main(["cost-report", "--scenario", str(SCENARIOS / "amf_n10.json"),
               "--sweep", "n=5,10"])
    assert rc == 0
    assert capsys.readouterr().out == COST_REPORT_SWEEP


def test_cost_report_of_an_empty_scenario_is_empty(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"variant": "AMF", "n": 4, "epochs": 0}))
    rc = main(["cost-report", "--scenario", str(empty)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "over-budget transactions: 0" in out
    assert "claim" not in out


def test_seed_override_changes_the_run(tmp_path):
    scenario = str(SCENARIOS / "amf_n10.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", scenario, "--out", str(out1)]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(out2),
                 "--seed", "999"]) == 0
    assert ((out1 / "trace.csv").read_bytes()
            != (out2 / "trace.csv").read_bytes())


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_seed_override_out_of_range_exits_two_without_traceback(seed):
    err = assert_cli_exits_two_without_traceback(
        "verify", "--scenario", str(SCENARIOS / "amf_n10.json"),
        "--seed", seed)
    assert "seed must fit in 64 bits" in err


# The whole stdout of `run` (its output directory reads as OUT) and of
# `verify` on every scenario file.
WROTE = ("wrote OUT/trace.csv\n"
         "wrote OUT/receipts.csv\n"
         "wrote OUT/balances.csv\n")
WROTE_CMF = WROTE + "wrote OUT/distributions.csv\n"
INCOMPLETE = ("finding: epoch 1: distribution incomplete after 3 claim "
              "rounds (a further round was needed)\n")


def verify_ok(compared):  # every scenario file has demands in every epoch
    return (f"verify OK: {compared} epoch(s) compared user by user, "
            f"0 without demands\n")


STDOUT = {
    "amf_n10": (WROTE, verify_ok(3)),
    "amf_worked_example": (WROTE, verify_ok(4)),
    "cmf_n10": (WROTE_CMF, verify_ok(3)),
    "cmf_worked_example": (WROTE_CMF, verify_ok(1)),
    "depletion_fcfs": (WROTE, verify_ok(1)),
    "rounds_exhausted": (WROTE + INCOMPLETE, verify_ok(1)),
    "wamf_n10": (WROTE, verify_ok(3)),
}


# The whole stdout of `cost-report` on every scenario file, and of one
# sweep.
COST_REPORT = {
    "amf_n10": (
        "      action    count          total         mean\n"
        "       claim       90        3708890      41209.9\n"
        "      demand       40        2128440      53211.0\n"
        "        noop       20         420000      21000.0\n"
        "    register       10         310000      31000.0\n"
        "claim cost by round:\n"
        "     round 1       30        1907680      63589.3\n"
        "     round 2       30         991630      33054.3\n"
        "     round 3       30         809580      26986.0\n"
        "over-budget transactions: 0\n"),
    "amf_worked_example": (
        "      action    count          total         mean\n"
        "       claim       36        1705390      47371.9\n"
        "      demand       12         682800      56900.0\n"
        "        noop        9         189000      21000.0\n"
        "    register        3          93000      31000.0\n"
        "claim cost by round:\n"
        "     round 1       12         816460      68038.3\n"
        "     round 2       12         496180      41348.3\n"
        "     round 3       12         392750      32729.2\n"
        "over-budget transactions: 0\n"),
    "cmf_n10": (
        "      action    count          total         mean\n"
        "      demand       40        1124275      28106.9\n"
        "  distribute        3         368810     122936.7\n"
        "        noop      107        2247000      21000.0\n"
        "    register       10         310000      31000.0\n"
        "over-budget transactions: 0\n"),
    "cmf_worked_example": (
        "      action    count          total         mean\n"
        "      demand        3          82810      27603.3\n"
        "  distribute        1          76305      76305.0\n"
        "        noop       17         357000      21000.0\n"
        "    register        3          93000      31000.0\n"
        "over-budget transactions: 0\n"),
    "depletion_fcfs": (
        "      action    count          total         mean\n"
        "       claim        6         293210      48868.3\n"
        "      demand        2         119070      59535.0\n"
        "        noop        6         126000      21000.0\n"
        "    register        2          62000      31000.0\n"
        "claim cost by round:\n"
        "     round 1        2         136080      68040.0\n"
        "     round 2        2          93870      46935.0\n"
        "     round 3        2          63260      31630.0\n"
        "over-budget transactions: 0\n"),
    "rounds_exhausted": (
        "      action    count          total         mean\n"
        "       claim       12         643420      53618.3\n"
        "      demand        4         222330      55582.5\n"
        "        noop       12         252000      21000.0\n"
        "    register        4         124000      31000.0\n"
        "claim cost by round:\n"
        "     round 1        4         254750      63687.5\n"
        "     round 2        4         212540      53135.0\n"
        "     round 3        4         176130      44032.5\n"
        "over-budget transactions: 0\n"),
    "wamf_n10": (
        "      action    count          total         mean\n"
        "       claim       90        3831330      42570.3\n"
        "      demand       40        2128440      53211.0\n"
        "        noop       20         420000      21000.0\n"
        "    register       10         310000      31000.0\n"
        "claim cost by round:\n"
        "     round 1       30        1884480      62816.0\n"
        "     round 2       30        1137270      37909.0\n"
        "     round 3       30         809580      26986.0\n"
        "over-budget transactions: 0\n"),
}
COST_REPORT_SWEEP = (
    "     n   claim mean  demand mean  distribute mean  over budget\n"
    "     5      42417.4      54792.0          73840.0            0\n"
    "    10      41209.9      53211.0         122936.7            0\n"
    "claim mean spread across n: 1.029x\n"
    "distribute mean growth n=5 -> n=10: 1.7x\n")


def test_every_scenario_file_has_a_stdout_pin():
    names = {p.stem for p in SCENARIOS.glob("*.json")}
    assert names == set(STDOUT) == set(COST_REPORT)


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_run_and_verify_stdout_is_pinned(name, tmp_path, capsys):
    scenario = str(SCENARIOS / f"{name}.json")
    want_run, want_verify = STDOUT[name]
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path), "OUT") == want_run
    assert main(["verify", "--scenario", scenario]) == 0
    assert capsys.readouterr().out == want_verify


@pytest.mark.parametrize("name", sorted(COST_REPORT))
def test_cost_report_stdout_is_pinned(name, capsys):
    scenario = str(SCENARIOS / f"{name}.json")
    assert main(["cost-report", "--scenario", scenario]) == 0
    assert capsys.readouterr().out == COST_REPORT[name]
