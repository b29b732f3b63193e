"""Which modules load numpy, where each public name lives, and the names perfbench/ reads.

Only ``states``, ``circuits`` and ``operators`` import numpy.  The package
resolves its public names lazily, so ``import qpigeon`` and the four
subcommands that work on eight numbers or on text run without it.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpigeon
from qpigeon import amplitudes, boxes, circuits, gates, operators, states

ROOT = Path(__file__).resolve().parent.parent

NUMPY_FREE_COMMANDS = (
    "identities",
    "hiddenvars",
    "amplitudes --epsilon-t 0:6.2832:65",
    "qasm --circuit p",
)

# runs one CLI command with stdout discarded, then reports its exit code and
# whether the module named first was imported along the way
RUN_AND_REPORT = """
import contextlib, io, json, sys
module = sys.argv[1]
import qpigeon
loaded_by_package = module in sys.modules
from qpigeon import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(json.dumps({"code": code, "package": loaded_by_package, "command": module in sys.modules}))
"""


def run_and_report(command: str, module: str = "numpy") -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", RUN_AND_REPORT, module, *command.split()],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("command", NUMPY_FREE_COMMANDS)
def test_command_runs_without_numpy(command):
    assert run_and_report(command) == {"code": 0, "package": False, "command": False}


def test_state_vector_commands_do_load_numpy():
    # the check above can fail: a command that simulates does import numpy
    assert run_and_report("simulate --circuit pi")["command"] is True


def test_sampling_at_most_chunk_shots_does_not_import_the_thread_pool():
    # only a run of more than circuits.CHUNK shots starts the helper thread
    report = run_and_report("sample --circuit p --shots 8192", "concurrent.futures")
    assert report == {"code": 0, "package": False, "command": False}


# calls every public callable defined in qpigeon.amplitudes, then reports which
# it called, which the module defines, and whether numpy was imported
CALL_EVERY_AMPLITUDES_CALLABLE = """
import json, sys
from qpigeon import amplitudes as amp
label = amp.FinalStateLabel((1, -1, 1))
calls = {
    "FinalStateLabel": lambda: (amp.FinalStateLabel.from_bits(5).to_bits(), str(label), label.outcome_class),
    "AmplitudeRecord": lambda: amp.AmplitudeRecord(label, 0.5, 0.1, 0.1, amp.ONE_MINORITY_SIGN),
    "all_labels": amp.all_labels,
    "pair_matrix_element": lambda: amp.pair_matrix_element(label, 0, 1),
    "pair_matrix_element_closed": lambda: amp.pair_matrix_element_closed(label, 0, 1),
    "all_same_matrix_element": lambda: amp.all_same_matrix_element(label),
    "all_same_matrix_element_closed": lambda: amp.all_same_matrix_element_closed(label),
    "pair_count_matrix_element": lambda: amp.pair_count_matrix_element(label),
    "closed_form_probability": lambda: amp.closed_form_probability(label, 0.5),
    "amplitude_table": lambda: amp.amplitude_table(0.5),
    "first_order_derivative": amp.first_order_derivative,
}
for call in calls.values():
    call()
public = [name for name, value in vars(amp).items()
          if not name.startswith("_") and callable(value) and getattr(value, "__module__", None) == amp.__name__]
print(json.dumps({"called": sorted(calls), "public": sorted(public), "numpy": "numpy" in sys.modules}))
"""


def test_every_amplitudes_callable_runs_without_numpy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", CALL_EVERY_AMPLITUDES_CALLABLE], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["called"] == report["public"]
    assert report["numpy"] is False


@pytest.mark.parametrize("name", qpigeon.__all__)
def test_public_name_resolves_to_its_home_module(name):
    home = importlib.import_module(f"qpigeon.{qpigeon._HOMES[name]}")
    value = getattr(qpigeon, name)
    assert value is getattr(home, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        # the table names the defining module, not one that re-exports the name
        assert value.__module__ == home.__name__
    assert name in dir(qpigeon)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        qpigeon.no_such_name


# every module attribute the benchmark under perfbench/ reads; perfbench/ is
# fixed, so a name moved out of one of these modules must stay importable here
BENCHMARK_READS = {
    states: ("Gate", "H", "X", "RX", "CX", "basis_state", "apply_gate"),
    circuits: (
        "Circuit", "all_same_check_circuit", "PIGEON_CBITS", "ALL_SAME_ANCILLA_CBITS", "NoiseModel",
        "sample_shots", "simulate_ideal", "postselect_group", "histogram_json", "apply_gate",
    ),
    operators: ("verify_identities", "evolution_closed_form", "evolution_series"),
    amplitudes: ("amplitude_table",),
}


def test_operators_holds_only_the_evolution_oracle():
    # the boxes diagonals are not wrapped in dense matrices again; these four
    # stay until perfbench/ reads each name from its home module
    public = {name for name, value in vars(operators).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {"LinearOperator", "evolution_closed_form", "evolution_series", "verify_identities"}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in BENCHMARK_READS.items() for name in names],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_benchmark_reads_the_name_here(module, name):
    value = getattr(module, name)
    # a moved name is the one object, not a second definition
    for home in (gates, boxes):
        if hasattr(home, name):
            assert value is getattr(home, name)
