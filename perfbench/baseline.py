"""Run the benchmark once per seed on each workload and summarise the
spread of every end-to-end metric across runs.

Usage, from the repository root:

    python3 perfbench/baseline.py                      # all workloads, seeds 1-10
    python3 perfbench/baseline.py --workload wamf-verify --seeds 1-5
    python3 perfbench/baseline.py --write perfbench/baseline.json

For each metric it prints the median of the per-run values and the spread:
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  Runs are sequential; every run
must print a correct result, or the script exits 1.  ``--write`` records
the machine, the per-run values and the summary as a baseline.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    command = list(config["command"])
    if command[0] == "python3":
        command[0] = sys.executable
    command += ["--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n"
                           f"{done.stderr}")
    return result


def spread(values: list) -> tuple:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name; repeat for several (default all)")
    parser.add_argument("--seeds", default="1-10",
                        help="seeds as a list of numbers and ranges, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", metavar="PATH",
                        help="write the runs and summary as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    metrics = config["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary = {}
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in seeds:
            try:
                result = run_once(config, workload, seed, args.trace)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs[workload].append({"seed": seed,
                                   "attempted": result["attempted"],
                                   "metrics": values})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={value:.6g}" for name, value in values.items()),
                flush=True)
        summary[workload] = {}
        for metric in metrics:
            name = metric["name"]
            values = [run["metrics"][name] for run in runs[workload]]
            median, share = spread(values) if len(values) > 1 else (values[0],
                                                                    0.0)
            summary[workload][name] = {"median": median, "spread": share,
                                       "unit": metric["unit"]}

    print(f"\n{'workload':<16} {'metric':<34} {'median':>14} {'spread':>8} "
          f"{'bound':>6}")
    for workload, table in summary.items():
        for metric in metrics:
            row = table[metric["name"]]
            bound = metric.get("bound")
            print(f"{workload:<16} {metric['name']:<34} "
                  f"{row['median']:>14.6g} {row['spread']:>8.4f} "
                  f"{'' if bound is None else bound:>6} {row['unit']}")

    if args.write:
        record = {
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "platform": platform.platform()},
            "run_seconds": config["run_seconds"],
            "why": {w["name"]: w["why"] for w in config["workloads"]
                    if w["name"] in workloads},
            "seeds": seeds,
            "summary": summary,
            "runs": runs,
        }
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
