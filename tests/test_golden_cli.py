"""The README's headline commands and the other output formats, pinned byte for byte.

Each command in the README's "Reproducing the headline results" table that
``tests/test_golden_sampling.py`` does not already pin, and each other
output shape of the subcommands (the other format, ``--group``, readout
noise), has its exact stdout in ``tests/data/golden/``.  Re-record (``PYTHONPATH=src python
tests/test_golden_cli.py --record``) only when a change is meant to alter
published output.
"""

import contextlib
import io
import sys
from pathlib import Path

from qpigeon import cli

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

README_COMMANDS = {
    "identities": "identities.json",
    "amplitudes --epsilon-t 0:6.2832:65 --format csv": "amplitudes_0_6.2832_65.csv",
    "qasm --circuit pi": "qasm_pi.qasm",
    "qasm --circuit p": "qasm_p.qasm",
    "hiddenvars": "hiddenvars.json",
}

FORMAT_COMMANDS = {
    "identities --format csv": "identities.csv",
    "amplitudes --epsilon-t 0:6.2832:65 --format json": "amplitudes_0_6.2832_65.json",
    "simulate --circuit pi": "simulate_pi.csv",
    "simulate --circuit p --group --format json": "simulate_p_group.json",
    "hiddenvars --format csv": "hiddenvars.csv",
    "sample --circuit pi --shots 8192 --seed 42": "sample_pi_8192_seed42.json",
    "sample --circuit pi --shots 8192 --seed 42 --format csv": "sample_pi_8192_seed42.csv",
    "sample --circuit p --shots 8192 --seed 42 --group": "sample_p_8192_seed42_group.json",
    "sample --circuit p --shots 8192 --seed 42 --noise-readout 0.02": "sample_p_8192_seed42_noise0.02.json",
    "sample --circuit p --shots 8192 --seed 42 --noise-readout 0.02 --group":
        "sample_p_8192_seed42_noise0.02_group.json",
    "simulate --circuit p --format json": "simulate_p.json",
    "simulate --circuit pi --format json": "simulate_pi.json",
    "simulate --circuit pi --group": "simulate_pi_group.csv",
    "simulate --circuit p --group": "simulate_p_group.csv",
    "sample --circuit pi --shots 8192 --seed 42 --noise-readout 0.02 --group --format csv":
        "sample_pi_8192_seed42_noise0.02_group.csv",
}


def cli_stdout(command: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split()) == 0
    return out.getvalue().encode()


def mismatched(commands: dict[str, str]) -> list[str]:
    return [command for command, filename in commands.items()
            if cli_stdout(command) != (GOLDEN_DIR / filename).read_bytes()]


def test_readme_headline_commands_match_goldens():
    assert mismatched(README_COMMANDS) == []


def test_other_output_formats_match_goldens():
    assert mismatched(FORMAT_COMMANDS) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_cli.py --record")
    for command, filename in {**README_COMMANDS, **FORMAT_COMMANDS}.items():
        (GOLDEN_DIR / filename).write_bytes(cli_stdout(command))
