"""Command-line front end: run scenarios, verify them against the
oracle, summarize costs and regenerate golden fixtures.

Exit codes are a stable contract: 0 success, 1 verification mismatch,
2 usage, input or output error.  All outputs are pure functions of the
scenario file.
"""

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .costs import cost_report
from .sim import (Scenario, ScenarioError, balances_csv, distributions_csv,
                  load_scenario, worked_example_scenarios, receipts_csv,
                  run_scenario, trace_csv)
from .verify import verify_run

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

logger = logging.getLogger(__name__)


def _configure_logging():
    level_name = os.environ.get("FAIRFAUCET_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _load(args) -> Scenario:
    sc = load_scenario(args.scenario)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    return sc


def _write_text(path: Path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_outputs(result, out_dir: Path) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in _output_files(result):
        path = out_dir / name
        _write_text(path, text)
        written.append(path)
    return written


def _output_files(result):
    files = [("trace.csv", trace_csv(result)),
             ("receipts.csv", receipts_csv(result)),
             ("balances.csv", balances_csv(result))]
    if result.reports:
        files.append(("distributions.csv", distributions_csv(result)))
    return files


def cmd_run(args) -> int:
    sc = _load(args)
    result = run_scenario(sc)
    written = _write_outputs(result, Path(args.out))
    for path in written:
        print(f"wrote {path}")
    for finding in result.findings:
        print(f"finding: {finding}")
    over = result.over_budget_receipts()
    if over:
        print(f"warning: {len(over)} transaction(s) exceeded the block "
              f"budget ({sc.cost_model.block_budget}); first at block "
              f"{over[0].block} ({over[0].kind}, cost {over[0].cost})")
    return EXIT_OK


def cmd_verify(args) -> int:
    sc = _load(args)
    result = run_scenario(sc)
    if args.inject_fault:
        _corrupt(result)
    report = verify_run(result)
    for note in report.notes:
        print(f"note: {note}")
    for finding in result.findings:
        print(f"finding: {finding}")
    if not result.conservation_ok():
        print("verify FAILED: conservation violated "
              f"(balances {sum(result.balances.values())} + capacity "
              f"{result.final_capacity} != injected {result.injected})")
        return EXIT_MISMATCH
    if report.ok:
        print(f"verify OK: {len(report.checks)} epoch(s) checked against "
              f"the water-filling oracle")
        return EXIT_OK
    epoch, user, got, want = report.first_diff
    print(f"verify FAILED: epoch {epoch} user {user}: got {got}, want {want}")
    return EXIT_MISMATCH


def _corrupt(result):
    """Negative control: skew one granted amount so verification fails."""
    for summary in result.epoch_summaries:
        if summary.granted:
            user = sorted(summary.granted)[0]
            summary.granted[user] += 1
            logger.info("injected fault: epoch %d user %d", summary.epoch, user)
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
        result = run_scenario(sc)
        print(cost_report(result.receipts).render())
        return EXIT_OK

    if sc.scripted_demands is not None:
        raise ScenarioError("sweep requires a PRNG-driven scenario")
    sizes = _parse_sweep(args.sweep)
    print(f"{'n':>6} {'claim mean':>12} {'demand mean':>12} "
          f"{'distribute mean':>16} {'over budget':>12}")
    claim_means = {}
    distribute_means = {}
    for n in sizes:
        autonomous = sc.with_n(n)
        if autonomous.variant == "CMF":
            autonomous = replace(autonomous, variant="AMF")
        central = replace(sc.with_n(n), variant="CMF")
        auto_summary = cost_report(run_scenario(autonomous).receipts)
        central_result = run_scenario(central)
        central_summary = cost_report(central_result.receipts)
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


def cmd_golden(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    planned = []
    for name, sc in worked_example_scenarios().items():
        result = run_scenario(sc)
        for suffix, text in _output_files(result):
            planned.append((out_dir / f"{name}.{suffix}", text))
    existing = [path for path, _ in planned if path.exists()]
    if existing and not args.force:
        print(f"refusing to overwrite {len(existing)} golden file(s) "
              f"without --force (first: {existing[0]})")
        return EXIT_USAGE
    for path, text in planned:
        _write_text(path, text)
        print(f"wrote {path}")
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
                              help="run and compare against the oracle")
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

    golden_p = sub.add_parser("golden",
                              help="regenerate pinned golden fixtures")
    golden_p.add_argument("--out", default="tests/golden")
    golden_p.add_argument("--force", action="store_true")
    golden_p.set_defaults(func=cmd_golden)
    return parser


def main(argv=None) -> int:
    _configure_logging()
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
