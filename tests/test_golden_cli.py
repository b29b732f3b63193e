"""The README's headline commands pinned byte for byte against recorded stdout.

Each command in the README's "Reproducing the headline results" table that
``tests/test_golden_sampling.py`` does not already pin has its exact stdout
in ``tests/data/golden/``.  Re-record (``PYTHONPATH=src python
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


def cli_stdout(command: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split()) == 0
    return out.getvalue().encode()


def test_readme_headline_commands_match_goldens():
    mismatched = [command for command, filename in README_COMMANDS.items()
                  if cli_stdout(command) != (GOLDEN_DIR / filename).read_bytes()]
    assert mismatched == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_cli.py --record")
    for command, filename in README_COMMANDS.items():
        (GOLDEN_DIR / filename).write_bytes(cli_stdout(command))
