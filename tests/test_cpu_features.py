"""The goldens hold without numpy's dispatched SIMD kernels and with OpenBLAS's oldest core.

The golden comparisons of ``tests/test_golden_cli.py`` and
``tests/test_golden_sampling.py``, the sampler's exact flip test and
one-shot oracle in ``tests/test_sampling_properties.py``, the state
core's bit-identity tests in ``tests/test_state_properties.py``, whose
kernel mixes array-by-array and scalar-by-array complex products, and the
overflowing-norm test of ``tests/test_states.py``, whose sum of squares
OpenBLAS kernels read as nan or inf, run again in a child process with
every dispatched SIMD feature this CPU has disabled
(``NPY_DISABLE_CPU_FEATURES``) and OpenBLAS pinned to its Prescott kernels
(``OPENBLAS_CORETYPE``), so the published bytes and values do not depend on
the CPU's vector extensions.  The variables act on the child only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

TESTS = Path(__file__).parent
ROOT = TESTS.parent


def run_child(args: list[str], disabled: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled), OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )


def test_goldens_hold_without_dispatched_simd_features():
    present = {name for name, on in _multiarray_umath.__cpu_features__.items() if on}
    disabled = sorted(set(_multiarray_umath.__cpu_dispatch__) & present)
    if not disabled:
        pytest.skip("numpy dispatches no SIMD feature this CPU has")
    # the child really runs without them
    still_on = (
        f"import importlib; m = importlib.import_module({_multiarray_umath.__name__!r}); "
        f"print(*[name for name in {disabled!r} if m.__cpu_features__[name]])"
    )
    probe = run_child(["-c", still_on], disabled)
    assert (probe.returncode, probe.stdout.strip()) == (0, ""), probe.stderr
    result = run_child(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(TESTS / "test_golden_cli.py"), str(TESTS / "test_golden_sampling.py"),
         str(TESTS / "test_sampling_properties.py"), str(TESTS / "test_state_properties.py"),
         str(TESTS / "test_states.py") + "::test_finite_amplitudes_whose_norm_overflows_are_accepted"],
        disabled,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
