"""Command-line front end: run scenarios, verify them against the
referee and summarize costs.

Exit codes are a stable contract: 0 success, 1 verification mismatch,
2 usage, input or output error.  All outputs are pure functions of the
scenario file.
"""

import argparse
import sys
from pathlib import Path

from .costs import cost_report
from .sim import (Scenario, ScenarioError, balances_chunks,
                  distributions_chunks, load_scenario, receipts_chunks,
                  run_scenario, trace_chunks)
from .verify import MATCHED, verify_run

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _load(args) -> Scenario:
    sc = load_scenario(args.scenario)
    if args.seed is not None:
        sc = sc._replace(seed=args.seed)
    return sc


def _write_outputs(result, out_dir: Path) -> list:
    """Write each CSV chunk by chunk as it renders, so no whole file is
    held in memory."""
    files = [("trace.csv", trace_chunks), ("receipts.csv", receipts_chunks),
             ("balances.csv", balances_chunks)]
    if result.reports:
        files.append(("distributions.csv", distributions_chunks))
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, chunks in files:
        path = out_dir / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks(result))
        written.append(path)
    return written


def findings(result) -> list:
    """One line per epoch whose claim rounds ran out with capacity left."""
    return [f"epoch {s.epoch}: distribution incomplete after "
            f"{result.scenario.clock.rounds_per_epoch - 1} claim rounds "
            f"(a further round was needed)"
            for s in result.epoch_summaries if s.incomplete]


def cmd_run(args) -> int:
    sc = _load(args)
    result = run_scenario(sc)
    written = _write_outputs(result, Path(args.out))
    for path in written:
        print(f"wrote {path}")
    for finding in findings(result):
        print(f"finding: {finding}")
    budget = sc.cost_model.block_budget
    over = [(rec, start, stop) for rec in result.records
            for start, stop, flagged in rec.over_budget(budget) if flagged]
    if over:
        rec, start, _ = over[0]
        print(f"warning: {sum(stop - start for _, start, stop in over)} "
              f"transaction(s) exceeded the block budget ({budget}); first "
              f"at block {rec.first + start} ({rec.action}, cost "
              f"{rec.costs[start]})")
    return EXIT_OK


def cmd_verify(args) -> int:
    sc = _load(args)
    result = run_scenario(sc)
    if args.inject_fault:
        _corrupt(result)
    report = verify_run(result)
    if not result.conservation_ok():
        print("verify FAILED: conservation violated "
              f"(balances {sum(result.balances.values())} + capacity "
              f"{result.final_capacity} != injected {result.injected})")
        return EXIT_MISMATCH
    if report.ok:
        kinds = [check.note for check in report.checks]
        compared = kinds.count(MATCHED)
        print(f"verify OK: {compared} epoch(s) compared user by user, "
              f"{len(kinds) - compared} without demands")
        return EXIT_OK
    epoch, user, got, want = report.first_diff
    if user is None:
        print(f"verify FAILED: epoch {epoch}: grants total {got}, but the "
              f"capacity fell by {want}")
    else:
        print(f"verify FAILED: epoch {epoch} user {user}: got {got}, "
              f"want {want}")
    return EXIT_MISMATCH


def _corrupt(result):
    """Negative control: skew one granted amount so verification fails."""
    for summary in result.epoch_summaries:
        if summary.granted:
            summary.granted[min(summary.granted)] += 1
            return
    raise ScenarioError("cannot inject a fault into a run with no grants")


def _parse_sweep(text: str):
    body = text[2:] if text.startswith("n=") else text
    try:
        values = [int(v) for v in body.split(",") if v]
    except ValueError as exc:
        raise ScenarioError(f"bad sweep spec {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ScenarioError(f"bad sweep spec {text!r}")
    return values


def cmd_cost_report(args) -> int:
    sc = _load(args)
    if not args.sweep:
        print(cost_report(run_scenario(sc)).render())
        return EXIT_OK

    if sc.scripted_demands is not None:
        raise ScenarioError("sweep requires a PRNG-driven scenario")
    sizes = _parse_sweep(args.sweep)
    # every rescaled scenario is checked before the first line prints
    pairs = [(s._replace(variant="AMF") if s.variant == "CMF" else s,
              s._replace(variant="CMF")) for s in map(sc.with_n, sizes)]
    print(f"{'n':>6} {'claim mean':>12} {'demand mean':>12} "
          f"{'distribute mean':>16} {'over budget':>12}")
    claim_means = {}
    distribute_means = {}
    for n, (autonomous, central) in zip(sizes, pairs):
        auto_summary = cost_report(run_scenario(autonomous))
        central_summary = cost_report(run_scenario(central))
        claim_means[n] = auto_summary.mean("claim")
        distribute_means[n] = central_summary.mean("distribute")
        over = (auto_summary.over_budget + central_summary.over_budget)
        print(f"{n:>6} {auto_summary.mean('claim'):>12.1f} "
              f"{auto_summary.mean('demand'):>12.1f} "
              f"{central_summary.mean('distribute'):>16.1f} {over:>12}")
    lo, hi = min(claim_means.values()), max(claim_means.values())
    if lo > 0:
        print(f"claim mean spread across n: {hi / lo:.3f}x")
    small, large = min(sizes), max(sizes)
    if distribute_means.get(small):
        ratio = distribute_means[large] / distribute_means[small]
        print(f"distribute mean growth n={small} -> n={large}: {ratio:.1f}x")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairfaucet",
        description="Max-min fair faucet simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario, write CSV outputs")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser("verify",
                              help="run and compare against the referee")
    verify_p.add_argument("--scenario", required=True)
    verify_p.add_argument("--seed", type=int, default=None)
    verify_p.add_argument("--inject-fault", action="store_true")
    verify_p.set_defaults(func=cmd_verify)

    cost_p = sub.add_parser("cost-report", help="summarize abstract costs")
    cost_p.add_argument("--scenario", required=True)
    cost_p.add_argument("--seed", type=int, default=None)
    cost_p.add_argument("--sweep", default=None,
                        help="user counts, e.g. n=10,50,100,500")
    cost_p.set_defaults(func=cmd_cost_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        # scenario input errors arrive as ScenarioError, so an OSError here
        # comes from creating or writing an output file or directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
