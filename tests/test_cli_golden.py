"""Byte-exact stdout, stderr and exit code of every subcommand in every format.

The fixture pins sha256 digests, so any change to what the CLI writes shows
up here. After an intended output change, regenerate it with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from abelian3.cli import main
from conftest import CliRunner

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"
ASYMPTOTIC = ["asymptotic", "--x-values", "100,500"]
# (arguments, the -q settings to pin: both when -q changes the output)
PLAIN, BOTH, QUIET = (False,), (False, True), (True,)
INPUTS = [
    (["count", "4", "6", "8"], PLAIN),
    (["count", "4", "6", "8", "--order", "8"], PLAIN),
    (["count", "4", "6", "8", "--cyclic"], PLAIN),
    (["enumerate", "3", "4", "6"], BOTH),
    (["enumerate", "3", "4", "6", "--elements"], BOTH),
    # one run of 1,024 rows (about 80 KB), longer than a chunk
    (["enumerate", "1024", "1", "1024"], BOTH),
    # the stream of the benchmark's enumerate-verify workload at seed 1
    (["enumerate", "80", "80", "90"], QUIET),
    (["table", "1", "--limit", "5"], BOTH),
    (["table", "2", "--limit", "4"], BOTH),
    (["table", "3", "--limit", "3"], BOTH),
    (["poly", "2", "3", "4", "--eval", "5"], PLAIN),
    (["poly", "3", "--closed-form"], PLAIN),
    (["type-count", "2,1", "1", "--eval", "3"], PLAIN),
    (["type-count", "2,1", "0"], PLAIN),
    (["verify", "--max-order", "12"], BOTH),
    (ASYMPTOTIC, BOTH),
]


def argvs() -> list[list[str]]:
    out = []
    for args, quiets in INPUTS:
        for fmt in ("text", "json", "csv"):
            for quiet in quiets:
                out.append(["--format", fmt, *["-q"] * quiet, *args])
    return out


def digest(argv: list[str]) -> dict:
    result = CliRunner().invoke(main, argv)
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
