"""Closed-loop host-speed benchmark for the fairfaucet simulator.

A job is the path that ``fairfaucet run`` plus ``fairfaucet verify`` take:

    scenario_from_dict -> run_scenario -> verify_run + conservation_ok
    -> trace / receipts / balances / distributions CSVs, rendered in memory

Usage, from the repository root:

    python3 perfbench/run.py --workload amf-claims --seed 1 --seconds 30 --trace 0

Workloads, and the outputs pinned for some of their seeds, live in
``perfbench/workloads.json``.  The program is imported from ``src/`` of the
checkout this script sits in, never from an installed copy.

The run is a closed loop: one job at a time, no threads.  Jobs run in
WORKERS child processes one after another, each with its own hash seed
derived from ``--seed``, so that a lucky or unlucky memory layout of one
interpreter does not set the whole result.  Each worker runs one untimed
warm-up job, then jobs for its share of ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics: traced jobs wrap the public entry points of each module from this
file (nothing under ``src/`` changes) to get self time and call counts per
layer; the untraced ones give the tracing overhead.  Span aggregates of
every traced job are written to ``perfbench/out/``.

Every job passes a correctness gate: ``verify_run`` must be ok, balances
plus capacity must equal what was injected, the CSVs must be identical to
those of the first worker's warm-up job, and for a seed with a pin their
digest and the pinned counts must match.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a readable summary goes to standard error.  Exit codes: 0 when
a result was printed, 2 on bad arguments or when the program's sources are
missing.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS_PATH = os.path.join(HERE, "workloads.json")
OUT_DIR = os.path.join(HERE, "out")

EXIT_USAGE = 2
MASK64 = (1 << 64) - 1

WORKERS = 3
# fresh interpreters timed for setup_s; the median is reported
SETUP_REPS = 11

# Host speed on a shared machine drifts by tens of percent within a
# minute, for CPU time as much as for wall time.  A fixed pure-Python loop
# that never touches fairfaucet is timed next to every job and every setup
# probe, and timings are reported as seconds on a host where that loop
# takes CAL_REF_S: measured * CAL_REF_S / calibration.
CAL_ROWS = 20000
CAL_REF_S = 0.04

# counts that, with the CSV digest, make up a pin
PINNED_COUNTS = ("sim.blocks", "costs.units_total", "costs.over_budget_tx",
                 "verify.epochs_compared", "verify.epochs_skipped")

# EpochCheck notes written by fairfaucet.verify
NOTE_COMPARED = ("", "allocation mismatch")
NOTE_TOTALS_ONLY = "depletion round served in arrival order"

# (module, class or None, attribute, span name).  Functions imported by
# name into another module are patched where they are looked up.
SPANS = (
    ("fairfaucet.sim", None, "run_scenario", "sim.run"),
    ("fairfaucet.sim", None, "next_demand", "sim.next_demand"),
    ("fairfaucet.sim", None, "locate", "clock.locate"),
    ("fairfaucet.faucet", None, "locate", "clock.locate"),
    ("fairfaucet.faucet", "AutonomousFaucet", "register", "faucet.register"),
    ("fairfaucet.faucet", "AutonomousFaucet", "demand", "faucet.demand"),
    ("fairfaucet.faucet", "AutonomousFaucet", "claim", "faucet.claim"),
    ("fairfaucet.faucet", "AutonomousFaucet", "update_state",
     "faucet.update_state"),
    ("fairfaucet.cmf", "CmfDistributor", "distribute", "cmf.distribute"),
    ("fairfaucet.cmf", "CmfDistributor", "submit_demand", "cmf.submit_demand"),
    ("fairfaucet.heap", "MinHeap", "insert", "heap.insert"),
    ("fairfaucet.heap", "MinHeap", "del_min", "heap.del_min"),
    ("fairfaucet.costs", "CostMeter", "total", "costs.total"),
    ("fairfaucet.verify", None, "waterfill", "oracle.waterfill"),
    ("fairfaucet.verify", None, "verify_run", "verify.run"),
    ("fairfaucet.sim", None, "trace_csv", "render.trace_csv"),
    ("fairfaucet.sim", None, "receipts_csv", "render.receipts_csv"),
    ("fairfaucet.sim", None, "balances_csv", "render.balances_csv"),
    ("fairfaucet.sim", None, "distributions_csv", "render.distributions_csv"),
)
GC_SPAN = "runtime.gc"
JOB_SPAN = "job"
RENDERERS = ("trace_csv", "receipts_csv", "balances_csv", "distributions_csv")

_SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fairfaucet
fairfaucet.scenario_from_dict(json.loads(sys.argv[2]))
print(time.perf_counter() - t0)
"""


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class _Row:
    block: int
    epoch: int
    kind: str
    cost: int


def calibrate() -> float:
    """Seconds a fixed loop takes right now on this host.  It builds frozen
    dataclass rows from dict lookups and integer arithmetic, then renders
    them with f-strings: the mix the simulator spends its time on."""
    t0 = time.perf_counter()
    rows = []
    totals = {}
    for i in range(CAL_ROWS):
        epoch, slot = divmod(i, 4000)
        cost = totals.get(slot, 0) + (i * 2654435761) % 97
        totals[slot] = cost
        rows.append(_Row(i, epoch, "claim", cost))
    "\n".join(f"{r.block},{r.epoch},{r.kind},{r.cost}" for r in rows)
    return time.perf_counter() - t0


def load_workloads(path=WORKLOADS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import fairfaucet from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "fairfaucet", "__init__.py")):
        raise UsageError(f"fairfaucet sources not found under {SRC}; run "
                         "from a checkout of the repository")
    sys.path.insert(0, SRC)
    program = importlib.import_module("fairfaucet")
    if not os.path.abspath(program.__file__).startswith(SRC + os.sep):
        raise UsageError(f"fairfaucet was imported from {program.__file__}, "
                         f"not from {SRC}")
    return program


def measure_setup(scenario: dict, reps: int = SETUP_REPS) -> tuple:
    """Seconds a fresh interpreter spends importing fairfaucet and building
    the workload's Scenario, interpreter start-up excluded.  Returns the
    medians over ``reps`` interpreters, normalised and raw."""
    raw, normalised = [], []
    before = calibrate()
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_PROBE, SRC,
             json.dumps(scenario)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        after = calibrate()
        raw.append(seconds)
        normalised.append(seconds * 2 * CAL_REF_S / (before + after))
        before = after
    return statistics.median(normalised), statistics.median(raw)


class Tracer:
    """Spans around layer entry points, aggregated per job in memory.

    Each open span keeps the time covered by its children; a span's self
    time is its duration minus that.  GC pauses count as a child span of
    whatever span was open when the collector ran.
    """

    def __init__(self):
        self._stack = []          # [name, child seconds] per open span
        self._edges = None        # (parent, name) -> [calls, total, self]
        self._gc_t0 = 0.0
        self._saved = []

    def install(self):
        for module_name, cls_name, attr, span in SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _record(self, name, dt, child):
        parent = self._stack[-1][0]
        self._stack[-1][1] += dt
        edge = self._edges.get((parent, name))
        if edge is None:
            edge = self._edges[(parent, name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += dt
        edge[2] += dt - child

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        record = self._record

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record(name, dt, frame[1])

        span.__wrapped__ = fn
        return span

    def _on_gc(self, phase, info):
        if not self._stack:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self._record(GC_SPAN, time.perf_counter() - self._gc_t0, 0.0)

    def begin_job(self):
        self._edges = {}
        self._stack.append([JOB_SPAN, 0.0])

    def end_job(self, seconds: float) -> list:
        """Close the job span; returns its edges as
        [parent, span, calls, total seconds, self seconds] rows."""
        _, child = self._stack.pop()
        self._edges[("", JOB_SPAN)] = [1, seconds, seconds - child]
        edges, self._edges = self._edges, None
        return [[parent, name, *values]
                for (parent, name), values in sorted(edges.items())]


def span_totals(edges: list, field: int) -> Counter:
    """Span name -> calls (field 2) or self seconds (field 4) of one job."""
    totals = Counter()
    for edge in edges:
        totals[edge[1]] += edge[field]
    return totals


def render(sim, result) -> dict:
    return {name: getattr(sim, name)(result) for name in RENDERERS}


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode())
        h.update(b"\0")
        h.update(files[name].encode())
        h.update(b"\0")
    return h.hexdigest()


def job_counts(result, report, files) -> dict:
    """Simulated counts of one job; several of them are pinned."""
    receipts = result.receipts
    claims = [r for r in result.trace if r.action == "claim"]
    claim_costs = [r.cost for r in receipts if r.kind == "claim"]
    notes = Counter(check.note for check in report.checks)
    epochs = len(report.checks)
    compared = sum(notes[note] for note in NOTE_COMPARED)
    totals_only = notes[NOTE_TOTALS_ONLY]
    return {
        "sim.blocks": len(result.trace),
        "sim.records": len(result.trace) + len(receipts),
        "cmf.iterations": sum(rep.iterations for rep in result.reports),
        "cmf.grant_rows": sum(len(rep.rows) for rep in result.reports),
        "costs.units_total": sum(r.cost for r in receipts),
        "costs.over_budget_tx": sum(1 for r in receipts if r.over_budget),
        "costs.distribute_units_max": max(
            (r.cost for r in receipts if r.kind == "distribute"), default=0),
        "costs.claim_units_mean": (statistics.fmean(claim_costs)
                                   if claim_costs else 0.0),
        "faucet.claim.granted_ratio": (
            sum(1 for r in claims if r.amount > 0) / len(claims)
            if claims else 0.0),
        "verify.epochs": epochs,
        "verify.epochs_compared": compared,
        "verify.epochs_totals_only": totals_only,
        "verify.epochs_skipped": epochs - compared - totals_only,
        "verify.compared_ratio": compared / epochs if epochs else 0.0,
        "render.bytes": sum(len(text.encode()) for text in files.values()),
    }


class Bench:
    """Runs jobs of one workload and seed and gates each one.

    A job is returned as a dict: host seconds for the whole job, for
    ``run_scenario`` and for ``verify_run``; the CSV digest, the counts,
    the problems the gate found, and the spans when traced.
    """

    def __init__(self, scenario: dict, pin: dict = None, fault=None):
        self.scenario = scenario
        self.pin = pin
        self.fault = fault        # negative control: corrupts a RunResult
        self.sim = importlib.import_module("fairfaucet.sim")
        self.verify = importlib.import_module("fairfaucet.verify")

    def job(self, tracer: Tracer = None) -> dict:
        job = {"traced": tracer is not None, "problems": []}
        gc.collect()
        if tracer is not None:
            tracer.begin_job()
        t0 = time.perf_counter()
        try:
            sc = self.sim.scenario_from_dict(self.scenario)
            t1 = time.perf_counter()
            result = self.sim.run_scenario(sc)
            t2 = time.perf_counter()
            if self.fault is not None:
                self.fault(result)
            report = self.verify.verify_run(result)
            conserved = result.conservation_ok()
            t3 = time.perf_counter()
            files = render(self.sim, result)
            t4 = time.perf_counter()
        except Exception:
            job["problems"].append("job raised:\n" + traceback.format_exc())
            return job
        finally:
            if tracer is not None:
                job["spans"] = tracer.end_job(time.perf_counter() - t0)
        counts = job_counts(result, report, files)
        job.update(seconds=t4 - t0, run_s=t2 - t1, verify_s=t3 - t2,
                   blocks_per_s=counts["sim.blocks"] / (t2 - t1),
                   digest=digest(files), counts=counts)
        job["problems"] = self.gate(job, report, conserved)
        return job

    def gate(self, job: dict, report, conserved: bool) -> list:
        problems = []
        if not report.ok:
            epoch, user, got, want = report.first_diff
            problems.append(f"verify_run: epoch {epoch} user {user} got "
                            f"{got}, want {want}")
        if not conserved:
            problems.append("conservation: balances + capacity != injected")
        if self.pin is not None:
            if job["digest"] != self.pin["digest"]:
                problems.append(f"pin: digest {job['digest'][:16]} != pinned "
                                f"{self.pin['digest'][:16]}")
            for key in PINNED_COUNTS:
                if job["counts"][key] != self.pin[key]:
                    problems.append(f"pin: {key} {job['counts'][key]} != "
                                    f"pinned {self.pin[key]}")
        return problems


def run_jobs(bench: Bench, seconds: float, trace: bool) -> dict:
    """One worker's share: an untimed warm-up job, then jobs until
    ``seconds`` have passed, timing the calibration loop between untraced
    jobs.  With ``trace`` every untraced job is followed by a traced one."""
    warm = bench.job()
    jobs = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    before = calibrate()
    while time.perf_counter() - start < seconds:
        job = bench.job()
        after = calibrate()
        job["calibration_s"] = (before + after) / 2
        before = after
        jobs.append(job)
        if trace:
            tracer.install()
            try:
                jobs.append(bench.job(tracer))
            finally:
                tracer.uninstall()
    return {"warm": warm, "jobs": jobs}


def run_workers(args) -> list:
    """Run WORKERS worker processes one after another; returns their
    outputs in order."""
    outputs = []
    for k in range(WORKERS):
        env = dict(os.environ,
                   PYTHONHASHSEED=str((args.seed * WORKERS + k) % (1 << 32)))
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / WORKERS),
             "--trace", str(args.trace), "--worker"],
            env=env, capture_output=True, text=True, timeout=150)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"worker {k} exited with {done.returncode}")
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return outputs


def end_to_end_metrics(jobs: list, setup_s: float,
                       normalise: bool = True) -> dict:
    """End-to-end metrics, in reference-host seconds unless ``normalise``
    is false."""
    def scale(job):
        return CAL_REF_S / job["calibration_s"] if normalise else 1.0

    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "job_s": statistics.median(j["seconds"] * scale(j) for j in jobs),
        "blocks_per_s": statistics.median(j["blocks_per_s"] / scale(j)
                                          for j in jobs),
        "verify_s": statistics.median(j["verify_s"] * scale(j) for j in jobs),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024,
    }


def per_layer_metrics(plain: list, traced: list) -> dict:
    calls = [span_totals(j["spans"], 2) for j in traced]
    self_s = [span_totals(j["spans"], 4) for j in traced]
    metrics = dict(traced[-1]["counts"])
    for span in {s for _, _, _, s in SPANS} | {GC_SPAN, JOB_SPAN}:
        metrics[f"{span}.calls"] = statistics.median(c[span] for c in calls)
        metrics[f"{span}.self_s"] = statistics.median(s[span] for s in self_s)
    metrics["runtime.gc.collections"] = metrics.pop(f"{GC_SPAN}.calls")
    traced_s = statistics.median(j["seconds"] for j in traced)
    metrics["trace.job_s"] = traced_s
    metrics["trace.covered_ratio"] = statistics.median(
        1 - s[JOB_SPAN] / j["seconds"] for s, j in zip(self_s, traced))
    metrics["trace.overhead_ratio"] = traced_s / statistics.median(
        j["seconds"] for j in plain)
    return metrics


def write_spans(traced: list, workload: str, seed: int) -> str:
    """Write every traced job's spans, one [parent, span, calls, total
    seconds, self seconds] row per edge of the call tree."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "columns": ["parent", "span", "calls", "total_s",
                               "self_s"],
                   "jobs": [j["spans"] for j in traced]}, fh)
    return path


def tail_note(seconds: list) -> str:
    """The highest job_s percentile with at least ten samples beyond it."""
    n = len(seconds)
    if n < 20:
        return f"n={n}: too few jobs for a percentile above the median"
    q = int(100 * (1 - 10 / n))
    value = statistics.quantiles(seconds, n=100)[q - 1]
    return f"n={n}: raw job_s p{q} {value:.6g} s"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(CONFIG_PATH, encoding="utf-8") as fh:
            config = json.load(fh)
        workloads = load_workloads()
        if args.workload not in workloads:
            raise UsageError(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(sorted(workloads))}")
        if not 0 <= args.seed <= MASK64:
            raise UsageError("seed must fit in 64 bits")
        if args.seconds <= 0:
            raise UsageError("seconds must be positive")
        import_program()
    except (OSError, UsageError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_USAGE

    spec = workloads[args.workload]
    scenario = dict(spec["scenario"], seed=args.seed)
    pin = spec["pins"].get(str(args.seed))
    if args.worker:
        out = run_jobs(Bench(scenario, pin), args.seconds, bool(args.trace))
        print(json.dumps(out))
        return 0

    log = sys.stderr
    if pin is None:
        print(f"gate: seed {args.seed} has no pin; checking verify_run, "
              "conservation and determinism only", file=log)
    else:
        print(f"gate: seed {args.seed} is pinned; checking the CSV digest "
              "and pinned counts too", file=log)
    setup_s = setup_raw_s = None
    if not args.trace:
        setup_s, setup_raw_s = measure_setup(scenario)
    workers = run_workers(args)

    reference = workers[0]["warm"].get("digest")
    warm_ok = True
    jobs = []
    for k, out in enumerate(workers):
        for i, job in enumerate([out["warm"]] + out["jobs"]):
            if reference and job.get("digest", reference) != reference:
                job["problems"].append(
                    f"determinism: digest {job['digest'][:16]} differs from "
                    f"the first warm-up job's {reference[:16]}")
            for problem in job["problems"]:
                print(f"FAILED worker {k} job {i or 'warm-up'}: {problem}",
                      file=log)
            if i == 0:
                warm_ok = warm_ok and not job["problems"]
        jobs += out["jobs"]
    failed = sum(1 for j in jobs if j["problems"])
    # a job that raised has no timings
    plain = [j for j in jobs if not j["traced"] and "seconds" in j]
    traced = [j for j in jobs if j["traced"] and "seconds" in j]
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs in {WORKERS} "
          f"workers ({len(traced)} traced), {failed} failed, fail_ratio "
          f"{failed / len(jobs):.4f}; "
          f"{tail_note([j['seconds'] for j in plain])}", file=log)
    if not plain or (args.trace and not traced):
        print("no job finished; no timings to report", file=log)
        return 1

    if args.trace:
        values = per_layer_metrics(plain, traced)
        print(f"spans written to "
              f"{write_spans(traced, args.workload, args.seed)}", file=log)
    else:
        values = end_to_end_metrics(plain, setup_s)
        raw = end_to_end_metrics(plain, setup_raw_s, normalise=False)
        calibration = statistics.median(j["calibration_s"] for j in plain)
        print("raw host timings: " + ", ".join(
            f"{name} {raw[name]:.6g}" for name in
            ("job_s", "blocks_per_s", "verify_s", "setup_s")) +
            f"; calibration loop median {calibration:.6g} s (reference "
            f"{CAL_REF_S} s)", file=log)
    metrics = {}
    for metric in config["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<32} {values[name]:>16.6g} {unit}", file=log)
    print(json.dumps({"correct": warm_ok and failed == 0,
                      "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
