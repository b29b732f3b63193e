"""Sampled histograms pinned byte for byte against recorded goldens.

``tests/data/golden/sample_counts.json`` holds the sha256 of
``json.dumps(counts, sort_keys=True)`` for every combination of three
circuits, SHOTS, SEEDS and NOISES, plus the names of the files holding the
exact stdout of the README's two grouped ``sample`` commands.  The goldens
were recorded from the all-at-once sampler, before it was rewritten to
stream in chunks; re-record (``PYTHONPATH=src python tests/test_golden_sampling.py
--record``) only when a change is meant to alter published counts.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from qpigeon import cli
from qpigeon.circuits import NoiseModel, sample_shots
from qpigeon.gates import Circuit, Gate, all_same_check_circuit, pair_check_circuit

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
GOLDEN_FILE = GOLDEN_DIR / "sample_counts.json"

SHOTS = (1, 3, 65535, 65536, 65539, 200001)
SEEDS = (0, 42, 2**63 + 5)
NOISES = (None, 0.0, 0.02, 0.5)

README_COMMANDS = {
    "sample --circuit pi --shots 8192 --seed 42 --group --format csv": "sample_pi_8192_seed42_group.csv",
    "sample --circuit p --shots 8192 --seed 42 --group --format csv": "sample_p_8192_seed42_group.csv",
}


def rx_cx_circuit() -> Circuit:
    """A non-uniform distribution; cbit 1 is never written and the others are permuted."""
    gates = (
        Gate.rx(0, 0.7), Gate.cx(0, 1), Gate.rx(1, 1.9), Gate.rx(2, 0.3), Gate.cx(1, 2),
        Gate.measure(0, 2), Gate.measure(1, 0), Gate.measure(2, 3),
    )
    return Circuit(3, 4, gates)


CIRCUITS = {"pair_check": pair_check_circuit, "all_same": all_same_check_circuit, "rx_cx": rx_cx_circuit}


def counts_sha256(counts: dict[str, int]) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()


def combinations():
    for name, builder in CIRCUITS.items():
        for shots in SHOTS:
            for seed in SEEDS:
                for prob in NOISES:
                    noise = None if prob is None else NoiseModel(prob)
                    yield f"{name}/{shots}/{seed}/{prob}", builder, shots, seed, noise


def cli_stdout(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split()) == 0
    return out.getvalue()


def record() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    digests = {key: counts_sha256(sample_shots(builder(), shots, seed, noise).counts)
               for key, builder, shots, seed, noise in combinations()}
    for command, filename in README_COMMANDS.items():
        (GOLDEN_DIR / filename).write_bytes(cli_stdout(command).encode())
    payload = {"counts_sha256": digests, "cli_stdout": README_COMMANDS}
    GOLDEN_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def test_sampled_counts_match_goldens(golden):
    recorded = golden["counts_sha256"]
    assert len(recorded) == len(CIRCUITS) * len(SHOTS) * len(SEEDS) * len(NOISES)
    mismatched = [key for key, builder, shots, seed, noise in combinations()
                  if counts_sha256(sample_shots(builder(), shots, seed, noise).counts) != recorded[key]]
    assert mismatched == []


def test_readme_sample_commands_match_goldens(golden, capsys):
    assert golden["cli_stdout"] == README_COMMANDS
    for command, filename in README_COMMANDS.items():
        assert cli.main(command.split()) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN_DIR / filename).read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_sampling.py --record")
    record()
