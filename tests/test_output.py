"""The output layer renders CSV and JSON with the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpigeon import output

OUTPUT_PY = Path(__file__).parent.parent / "src" / "qpigeon" / "output.py"

# numpy set to None in sys.modules makes any import of it raise ImportError
RENDER_WITHOUT_NUMPY = """
import importlib.util, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("output", sys.argv[1])
output = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output)
sys.stdout.write(output.csv_text(("name", "value", "ok"), [("a", 1 / 3, True), ("b", 2, False)]))
sys.stdout.write(output.json_text({"x": 2 / 3, "rows": (0.1 + 0.2, None), "ok": False}))
"""

EXPECTED = """name,value,ok
a,0.333333333333,true
b,2,false
{
  "x": 0.666666666667,
  "rows": [
    0.3,
    null
  ],
  "ok": false
}
"""


def test_output_renders_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", RENDER_WITHOUT_NUMPY, str(OUTPUT_PY)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXPECTED


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        output.write_text_atomic(str(tmp_path / "x.csv"), "a,b\n")
    assert list(tmp_path.iterdir()) == []
