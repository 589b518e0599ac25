"""Byte-exact stdout, stderr and exit code of every subcommand in every format.

The fixture pins sha256 digests, so any change to what the CLI writes shows
up here. After an intended output change, regenerate it with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from abelian3.cli import cli

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"
ASYMPTOTIC = ["asymptotic", "--x-values", "100,500", "--prime-limit", "1000", "--tail-terms", "20000"]
# (arguments, whether -q changes the output)
INPUTS = [
    (["count", "4", "6", "8"], False),
    (["count", "4", "6", "8", "--order", "8"], False),
    (["count", "4", "6", "8", "--cyclic"], False),
    (["enumerate", "3", "4", "6"], True),
    (["enumerate", "3", "4", "6", "--elements"], True),
    (["table", "1", "--limit", "5"], True),
    (["table", "2", "--limit", "4"], True),
    (["table", "3", "--limit", "3"], True),
    (["poly", "2", "3", "4", "--eval", "5"], False),
    (["poly", "3", "--closed-form"], False),
    (["type-count", "2,1", "1", "--eval", "3"], False),
    (["type-count", "2,1", "0"], False),
    (["verify", "--max-order", "12"], True),
    (ASYMPTOTIC, True),
]


def argvs() -> list[list[str]]:
    out = []
    for args, quiet_matters in INPUTS:
        for fmt in ("text", "json", "csv"):
            for quiet in (False, True) if quiet_matters else (False,):
                out.append(["--format", fmt, *["-q"] * quiet, *args])
    return out


def digest(argv: list[str]) -> dict:
    result = CliRunner().invoke(cli, argv)
    return {
        "stdout": hashlib.sha256(result.stdout_bytes).hexdigest(),
        "stderr": hashlib.sha256(result.stderr_bytes).hexdigest(),
        "exit": result.exit_code,
    }


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in argvs())


@pytest.mark.parametrize("argv", argvs(), ids=" ".join)
def test_output_bytes(argv):
    assert digest(argv) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({" ".join(a): digest(a) for a in argvs()}, indent=1, sort_keys=True) + "\n")
