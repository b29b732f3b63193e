"""Each demo script runs to completion against the package in ``src/`` and prints its golden stdout.

``tests/data/golden/demo_NN.txt`` holds the exact stdout of ``demos/NN_*.py``.
Re-record one (``PYTHONPATH=src python demos/NN_*.py > tests/data/golden/demo_NN.txt``)
only when a change is meant to alter what the demo prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_DIR = ROOT / "tests" / "data" / "golden"


def test_every_demo_is_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN_DIR / f"demo_{demo.name[:2]}.txt").read_bytes()
