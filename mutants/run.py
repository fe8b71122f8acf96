"""Mutant gate for the referee: would ``verify`` notice a broken protocol?

Each mutant is a one-line change to a file of ``src/fairfaucet``: the
contracts in ``faucet.py`` and ``cmf.py``, and the recorder in ``sim.py``
that writes the trace a user reads.  For the
unmutated tree and then each mutant, the script copies ``src/`` to a
temporary directory, applies the mutant there and, in a fresh interpreter
on that copy, runs ``verify_run`` and ``conservation_ok`` over a fixed grid
of 398 runs (see ``grid``).  A run fails when either check fails or the
run raises; a mutant is killed when at least one run fails.  A mutant's
old text must occur exactly once in its file, so a refactor cannot retire
a mutant silently.

    python3 mutants/run.py

prints, per tree, the number of runs that fail and whether the mutant is
killed or survives, in the words of its mark, and ends with one tally
line: mutants killed, mutants that survive, and honest runs failing.  A
mutant marked "survives" is a known gap of the referee, on record, not a
pass: the gate keeps it visible until a stronger check kills it and its
mark flips to "killed".  It exits 1 if the unmutated tree fails a run or
a mutant marked "killed" survives, and 2 if a mutant no longer applies or
a check cannot run.  Nothing under ``src/`` changes.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (file under src/fairfaucet, old text, new text, note, expected outcome)
MUTANTS = [
    ("faucet.py", "precision // acct.cumulative_demand",
     "precision // amount",
     "WAMF weight from the current demand, not the cumulative one",
     "killed"),
    ("faucet.py", "self.weight_total[i] -= weight",
     "self.weight_total[i] -= 0",
     "a satisfied user's weight stays in the total", "killed"),
    ("faucet.py", "if floored:\n            share = 1",
     "if floored:\n            share = 2",
     "a floored share is 2, not 1", "killed"),
    ("cmf.py", "MinHeap.from_ascending(rest, self._meter)",
     "MinHeap.from_ascending(rest[::-1], self._meter)",
     "the remainder heap is built from rest[::-1]", "killed"),
    ("cmf.py", "cut = share << USER_BITS", "cut = share - 1 << USER_BITS",
     "a remainder keeps one unit too many", "killed"),
    ("faucet.py", "if amount < 1:", "if amount < 20:",
     "demands below 20 are rejected", "killed"),
    # the recorder: verify reads the run's grants, not the trace, so
    # these make the written files lie and no run fails
    ("sim.py", "add_amount(granted)", "add_amount(granted + 1)",
     "a claim row records one more unit than was granted", "survives"),
    ("sim.py",
     "add_share(share)\n            add_capacity(pool.capacity)",
     "add_share(share)\n            add_capacity(pool.capacity + 1)",
     "a claim row's capacity column is one high", "survives"),
    ("sim.py", "self.pool.capacity, self.tx_base))",
     "self.pool.capacity, self.tx_base + 1))",
     "an idle row costs tx_base + 1", "survives"),
    ("sim.py", '"distribute", (AUTHORITY,), (total,),',
     '"distribute", (AUTHORITY,), (total + 1,),',
     "a distribute row records one more unit", "survives"),
    ("sim.py", "if max(costs) <= budget:",
     'if max(costs) <= budget or self.action == "claim":',
     "claims never flag over budget", "survives"),
]


def grid():
    """Yield (name, scenario) for the 398 runs: the eight scenario files;
    every variant at n in {10, 50, 100, 500}, capacity {8, 10, 12, 15, 20,
    25}n and seeds 0-4 over 6 epochs; and AMF and WAMF with two claim
    rounds per epoch (epoch span 3n), capacity 25n and demands in [20, 60)
    at n in {10, 50, 100} and seeds 0-4 over 6 epochs."""
    from fairfaucet.sim import VARIANTS, Scenario, load_scenario

    for path in sorted((REPO / "scenarios").glob("*.json")):
        yield path.name, load_scenario(path)
    for variant, n, k, seed in itertools.product(
            VARIANTS, (10, 50, 100, 500), (8, 10, 12, 15, 20, 25), range(5)):
        yield (f"{variant} n={n} capacity={k}n seed={seed}",
               Scenario(variant, n, epoch_capacity=k * n, epochs=6,
                        seed=seed))
    for variant, n, seed in itertools.product(("AMF", "WAMF"),
                                              (10, 50, 100), range(5)):
        yield (f"{variant} n={n} two claim rounds seed={seed}",
               Scenario(variant, n, epoch_capacity=25 * n, epoch_span=3 * n,
                        demand_lo=20, demand_hi=60, epochs=6, seed=seed))


def check(src: str) -> dict:
    """Run the grid on the package under ``src``; the names of the runs
    that fail, and how many ran."""
    import fairfaucet
    from fairfaucet.sim import run_scenario
    from fairfaucet.verify import verify_run

    if not Path(fairfaucet.__file__).resolve().is_relative_to(
            Path(src).resolve()):
        raise SystemExit(f"imported {fairfaucet.__file__}, not the copy "
                         f"under {src}")
    failed, runs = [], 0
    for name, sc in grid():
        runs += 1
        try:
            result = run_scenario(sc)
            ok = verify_run(result).ok and result.conservation_ok()
        except Exception:  # a run that raises is a failing run
            ok = False
        if not ok:
            failed.append(name)
    return {"runs": runs, "failed": failed}


def mutated(mutant) -> str:
    """The text of the mutant's file with the mutant applied; exits 2,
    naming the mutant, unless its old text occurs exactly once."""
    name, old, new, note, _ = mutant
    text = (REPO / "src" / "fairfaucet" / name).read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        print(f"mutant {name}: {note}: its old text occurs {count} times, "
              f"not once", file=sys.stderr)
        sys.exit(2)
    return text.replace(old, new)


def run_tree(mutant) -> dict:
    """Copy ``src/``, apply ``mutant`` (None for the unmutated tree) and
    check the copy in a fresh interpreter with this one's flags."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "src"
        shutil.copytree(REPO / "src", root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            (root / "fairfaucet" / mutant[0]).write_text(
                mutated(mutant), encoding="utf-8")
        flags = [f"-W{option}" for option in sys.warnoptions]
        if sys.flags.dev_mode:
            flags.append("-Xdev")
        env = dict(os.environ, PYTHONPATH=str(root),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, *flags, __file__, "--check", str(root)],
            capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        label = "unmutated tree" if mutant is None else mutant[3]
        print(f"the check of the {label} exited {proc.returncode}",
              file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main() -> int:
    if sys.argv[1:2] == ["--check"]:
        print(json.dumps(check(sys.argv[2])))
        return 0
    for mutant in MUTANTS:  # every mutant must apply before any check
        mutated(mutant)
    status = 0
    tally = {"killed": 0, "survives": 0}
    base = run_tree(None)
    print(f"unmutated tree: fails {len(base['failed'])} of {base['runs']} "
          f"runs")
    for name in base["failed"][:5]:
        print(f"  failing run: {name}")
    if base["failed"]:
        status = 1
    for mutant in MUTANTS:
        name, _, _, note, expected = mutant
        seen = run_tree(mutant)
        outcome = "killed" if seen["failed"] else "survives"
        tally[outcome] += 1
        print(f"{name}: {note}: fails {len(seen['failed'])} of "
              f"{seen['runs']} runs: {outcome} (marked {expected})")
        if expected == "killed" and not seen["failed"]:
            status = 1
    print(f"{len(MUTANTS)} mutants: {tally['killed']} killed, "
          f"{tally['survives']} survives; {len(base['failed'])} of "
          f"{base['runs']} honest runs failing")
    return status


if __name__ == "__main__":
    sys.exit(main())
