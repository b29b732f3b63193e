"""The output layer renders CSV and JSON with the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpigeon import output

try:
    import numpy as np
except ImportError:  # the outputs are also checked where only pytest and hypothesis are installed
    np = None

OUTPUT_PY = Path(__file__).parent.parent / "src" / "qpigeon" / "output.py"

# numpy set to None in sys.modules makes any import of it raise ImportError
RENDER_WITHOUT_NUMPY = """
import importlib.util, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("output", sys.argv[1])
output = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output)
sys.stdout.writelines(output.csv_lines(("name", "value", "ok"), [("a", 1 / 3, True), ("b", 2, False)]))
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


def oracle_round12(obj):
    """Floats rounded to 12 significant digits, through dicts, lists and tuples, as a copy of the payload."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {key: oracle_round12(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_round12(value) for value in obj]
    return obj


_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308, 1e300])
_LEAVES = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64) if np is not None else st.nothing(),
    st.booleans(),
    st.none(),
    st.integers(),
    st.text(),
)
# str keys only: no payload has a float key, and json_chunks rounds one where the oracle does not
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
@example({"x": 2 / 3, "rows": (0.1 + 0.2, None), "ok": False, "ü": ["\u2603", -0.0, float("nan")]})
@example([])
@example({})
def test_json_chunks_match_the_rounded_copy(payload):
    expected = json.dumps(oracle_round12(payload), indent=2) + "\n"
    assert "".join(output.json_chunks(payload)) == expected
