"""The mutant gate's own inputs: every mutant still applies to the
source, and the grid is the 398 runs it reports on.  The gate itself,
``mutants/run.py``, runs the grid once per mutant and is run in CI."""

import importlib.util
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "mutants" / "run.py"
spec = importlib.util.spec_from_file_location("mutant_gate", RUN)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


@pytest.mark.parametrize("mutant", gate.MUTANTS, ids=lambda m: m[3])
def test_every_mutant_applies_once(mutant):
    name, old, new, _, expected = mutant
    source = (RUN.parent.parent / "src" / "fairfaucet" / name).read_text(
        encoding="utf-8")
    assert gate.mutated(mutant) == source.replace(old, new) != source
    assert expected in ("killed", "survives")


def test_a_retired_mutant_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        gate.mutated(("cmf.py", "self.", "self.", "repeated text",
                      "survives"))
    assert exc.value.code == 2
    assert "mutant cmf.py: repeated text: its old text occurs" in (
        capsys.readouterr().err)


def test_the_grid_has_398_distinct_runs():
    names = [name for name, _ in gate.grid()]
    assert len(names) == len(set(names)) == 398


def test_the_marks_are_pinned():
    # a mutant that verify kills stays marked so: the gate exits 1 if it
    # survives, so a mark flipped back would hide a weaker referee; the
    # recorder's mutants survive, gaps on record until a check reads the
    # trace
    marks = {note: expected for _, _, _, note, expected in gate.MUTANTS}
    assert marks == {
        "WAMF weight from the current demand, not the cumulative one":
            "killed",
        "a satisfied user's weight stays in the total": "killed",
        "a floored share is 2, not 1": "killed",
        "the remainder heap is built from rest[::-1]": "killed",
        "a remainder keeps one unit too many": "killed",
        "demands below 20 are rejected": "killed",
        "a claim row records one more unit than was granted": "survives",
        "a claim row's capacity column is one high": "survives",
        "an idle row costs tx_base + 1": "survives",
        "a distribute row records one more unit": "survives",
        "claims never flag over budget": "survives",
    }
