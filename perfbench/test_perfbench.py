"""Self-tests of the benchmark: the gate passes on correct output, fails on
a corrupted grant or a changed pin, tracing changes nothing simulated, and
each workload exercises the layers it was chosen for.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import pytest

import run

run.import_program()

from fairfaucet.cli import _corrupt  # noqa: E402  (needs src/ on the path)

WORKLOADS = run.load_workloads()
SMALL_N = 40


def small(name: str, seed: int = 1) -> dict:
    """The workload's scenario scaled down to SMALL_N users."""
    scenario = dict(WORKLOADS[name]["scenario"], seed=seed)
    full = scenario["n"]
    for key in ("epoch_capacity", "epoch_span", "round_span"):
        scenario[key] = scenario[key] * SMALL_N // full
    scenario["n"] = SMALL_N
    return scenario


def traced_job(bench: run.Bench) -> dict:
    tracer = run.Tracer()
    tracer.install()
    try:
        return bench.job(tracer)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate_and_is_deterministic(name):
    out = run.run_jobs(run.Bench(small(name)), seconds=0.2, trace=True)
    jobs = [out["warm"]] + out["jobs"]
    assert len(jobs) >= 3
    assert all(job["problems"] == [] for job in jobs)
    assert len({job["digest"] for job in jobs}) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_its_pin(name):
    spec = WORKLOADS[name]
    seed = spec["default_seed"]
    pin = spec["pins"][str(seed)]
    job = run.Bench(dict(spec["scenario"], seed=seed), pin).job()
    assert job["problems"] == []
    assert job["digest"] == pin["digest"]


def test_changed_pin_fails_the_job_and_names_the_check():
    spec = WORKLOADS["amf-claims"]
    seed = spec["default_seed"]
    pin = dict(spec["pins"][str(seed)], digest="0" * 64)
    pin["costs.units_total"] += 1
    job = run.Bench(dict(spec["scenario"], seed=seed), pin).job()
    assert any(p.startswith("pin: digest") for p in job["problems"])
    assert any(p.startswith("pin: costs.units_total") for p in job["problems"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_injected_fault_drives_the_fail_ratio_above_zero(name):
    out = run.run_jobs(run.Bench(small(name), fault=_corrupt), seconds=0.1,
                       trace=False)
    failed = [job for job in out["jobs"] if job["problems"]]
    assert len(failed) / len(out["jobs"]) > 0
    assert any(p.startswith("verify_run") for p in failed[0]["problems"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_nothing_simulated(name):
    bench = run.Bench(small(name))
    plain = bench.job()
    traced = traced_job(bench)
    assert traced["digest"] == plain["digest"]
    assert traced["counts"] == plain["counts"]


@pytest.mark.parametrize("name, busy, idle", [
    ("amf-claims", ("faucet.claim", "clock.locate"), ("heap.insert",
                                                      "heap.del_min")),
    ("wamf-verify", ("faucet.claim", "oracle.waterfill"), ("heap.insert",
                                                           "heap.del_min")),
    ("cmf-distribute", ("heap.del_min", "cmf.distribute"),
     ("faucet.register", "faucet.demand", "faucet.claim",
      "faucet.update_state")),
])
def test_each_workload_hits_the_layers_it_was_chosen_for(name, busy, idle):
    calls = run.span_totals(traced_job(run.Bench(small(name)))["spans"], 2)
    assert all(calls[span] > 0 for span in busy)
    assert all(calls[span] == 0 for span in idle)


def test_missing_sources_exit_two_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", "/nonexistent/src")
    rc = run.main(["--workload", "amf-claims", "--seed", "1",
                   "--seconds", "1"])
    assert rc == run.EXIT_USAGE
    assert capsys.readouterr().out == ""
