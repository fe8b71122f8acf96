"""Record the pinned outputs of every workload in ``perfbench/workloads.json``.

Usage, from the repository root:

    python3 perfbench/pin.py

For each workload and each seed in PIN_SEEDS (plus the workload's default
seed) it runs one job and stores the sha256 of the rendered CSVs and the
pinned counts under ``pins``.  The benchmark then fails any job of a pinned
seed whose output differs.  Run this only for a change that is meant to
alter what the simulator produces, and say so in that change.
"""

import json
import sys

import run

PIN_SEEDS = range(16)


def main() -> int:
    run.import_program()
    workloads = run.load_workloads()
    for name, spec in workloads.items():
        pins = {}
        for seed in sorted({*PIN_SEEDS, spec["default_seed"]}):
            job = run.Bench(dict(spec["scenario"], seed=seed)).job()
            if job["problems"]:
                print(f"{name} seed {seed}: {job['problems']}", file=sys.stderr)
                return 1
            pins[str(seed)] = {"digest": job["digest"],
                               **{key: job["counts"][key]
                                  for key in run.PINNED_COUNTS}}
            print(f"{name} seed {seed}: {job['digest'][:16]}", flush=True)
        spec["pins"] = pins
    with open(run.WORKLOADS_PATH, "w", encoding="utf-8") as fh:
        json.dump(workloads, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
