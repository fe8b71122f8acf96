"""Byte pins for the demos: each script in ``demos/`` runs in a fresh
interpreter with ``PYTHONPATH=src`` and the sha256 of its stdout must
match the digest recorded here.  Demo 04 prints CMF distribute costs at
n = 10 to 500 and demo 05 cross-checks the heap distributor against the
water-filling oracle; no other pin covers those outputs.  The demos are
deterministic (two runs, or two hash seeds, print the same bytes), so a
digest may be re-recorded only by a change that means to alter what a
demo prints.

The README's Library block runs too: its import line names the package's
whole public API, ``fairfaucet.__all__``, which nothing else imports in
one statement."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairfaucet

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_central_distribution.py":
        "249082e4edecae41d47e19217d21dae66add8fb580eb8848d9347d2339104203",
    "02_autonomous_rounds.py":
        "5a8ffcc6554d4f3240948fe6d6d639e3190e58b168fc43d58f946806bf121224",
    "03_weighted_incentives.py":
        "6e791e73a2dd831cdcb18bb2b325fa7637d64f9eb6e9d0947bc124c7226b495f",
    "04_cost_scaling.py":
        "6bec33cb3a7e93e72fd53f861c5a07c47e3f2f4413216b286bd1a751f8ed8f9f",
    "05_oracle_crosscheck.py":
        "ae91eb40aea5eb4ac48b9fe3654865bbdc1516993b11ba04777a31fa5791cefd",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         env=env, cwd=ROOT, capture_output=True, check=True,
                         timeout=300).stdout
    assert hashlib.sha256(out).hexdigest() == DIGESTS[name]


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom)
                and node.module == "fairfaucet" for alias in node.names}
    assert imported == set(fairfaucet.__all__)
    assert namespace["report"].shares == [10, 3, 2]
    assert namespace["verify_run"](namespace["result"]).ok
