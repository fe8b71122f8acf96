import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairfaucet.cli import main

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

AMF_TABLE = str(SCENARIOS / "amf_worked_example.json")
CMF_TABLE = str(SCENARIOS / "cmf_worked_example.json")
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


def assert_cli_exits_two_without_traceback(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "fairfaucet.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_verify_bad_scenario_exits_two_without_traceback(tmp_path, case):
    path = tmp_path / "scenario.json"
    if BAD_SCENARIOS[case] is None:
        path.mkdir()
    else:
        path.write_bytes(BAD_SCENARIOS[case])
    assert_cli_exits_two_without_traceback("verify", "--scenario", str(path))


@pytest.mark.parametrize("command", ["run", "golden"])
def test_unwritable_output_exits_two_without_traceback(tmp_path, command):
    # run: --out names an existing file; golden: --out lies under one
    blocker = tmp_path / "file"
    blocker.write_text("")
    if command == "run":
        args = ["run", "--scenario", AMF_TABLE, "--out", str(blocker)]
    else:
        args = ["golden", "--out", str(blocker / "x")]
    assert_cli_exits_two_without_traceback(*args)


def test_run_twice_produces_identical_files(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    scenario = str(SCENARIOS / "amf_n10.json")
    assert main(["run", "--scenario", scenario, "--out", str(out1)]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(out2)]) == 0
    for name in ("trace.csv", "receipts.csv", "balances.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_matches_pinned_goldens_byte_for_byte(tmp_path):
    rc = main(["run", "--scenario", AMF_TABLE, "--out", str(tmp_path)])
    assert rc == 0
    for suffix in ("trace.csv", "receipts.csv", "balances.csv"):
        produced = (tmp_path / suffix).read_bytes()
        pinned = (GOLDEN / f"amf_worked_example.{suffix}").read_bytes()
        assert produced == pinned, f"golden drift in {suffix}"


def test_cmf_run_matches_pinned_goldens(tmp_path):
    rc = main(["run", "--scenario", CMF_TABLE, "--out", str(tmp_path)])
    assert rc == 0
    for suffix in ("trace.csv", "balances.csv", "distributions.csv"):
        produced = (tmp_path / suffix).read_bytes()
        pinned = (GOLDEN / f"cmf_worked_example.{suffix}").read_bytes()
        assert produced == pinned, f"golden drift in {suffix}"


def test_verify_worked_example_exits_zero(capsys):
    rc = main(["verify", "--scenario", AMF_TABLE])
    assert rc == 0
    assert "verify OK" in capsys.readouterr().out


def test_verify_depletion_scenario_notes_fcfs_and_passes(capsys):
    rc = main(["verify", "--scenario", FCFS])
    assert rc == 0
    out = capsys.readouterr().out
    assert "arrival order" in out
    assert "verify OK" in out


def test_verify_injected_fault_exits_one(capsys):
    rc = main(["verify", "--scenario", AMF_TABLE, "--inject-fault"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "verify FAILED" in out
    assert "got" in out and "want" in out


def test_cost_report_prints_summary(capsys):
    rc = main(["cost-report", "--scenario", str(SCENARIOS / "amf_n10.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "claim" in out and "demand" in out


def test_cost_report_sweep(capsys):
    rc = main(["cost-report", "--scenario", str(SCENARIOS / "amf_n10.json"),
               "--sweep", "n=5,10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "distribute mean" in out
    assert "claim mean spread" in out


def test_cost_report_of_an_empty_scenario_is_empty(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"variant": "AMF", "n": 4, "epochs": 0}))
    rc = main(["cost-report", "--scenario", str(empty)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "over-budget transactions: 0" in out
    assert "claim" not in out


def test_log_env_var_is_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("FAIRFAUCET_LOG", "debug")
    rc = main(["run", "--scenario", FCFS, "--out", str(tmp_path)])
    assert rc == 0


def test_golden_refuses_overwrite_without_force(tmp_path, capsys):
    rc = main(["golden", "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["golden", "--out", str(tmp_path)])
    assert rc == 2
    assert "refusing" in capsys.readouterr().out
    rc = main(["golden", "--out", str(tmp_path), "--force"])
    assert rc == 0


def test_golden_regeneration_matches_committed_fixtures(tmp_path):
    rc = main(["golden", "--out", str(tmp_path)])
    assert rc == 0
    for pinned in GOLDEN.glob("*.csv"):
        assert (tmp_path / pinned.name).read_bytes() == pinned.read_bytes()


def test_seed_override_changes_the_run(tmp_path):
    scenario = str(SCENARIOS / "amf_n10.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", scenario, "--out", str(out1)]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(out2),
                 "--seed", "999"]) == 0
    assert ((out1 / "trace.csv").read_bytes()
            != (out2 / "trace.csv").read_bytes())
