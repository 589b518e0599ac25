"""The README's examples run as shown.

Every fenced ``python`` block is executed. Every ``$ abelian3 ...`` line in a
fenced block is run in process by conftest's CliRunner, and its stdout must
equal the lines shown after it, up to the next command or the end of the
block, with runs of whitespace collapsed (the README shows tabs as spaces). A
``...`` line ends the comparison for its command.
"""

import re
import shlex
from pathlib import Path

import pytest

from abelian3.cli import main
from conftest import CliRunner

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]


def _collapsed(lines: list[str]) -> list[str]:
    return [" ".join(line.split()) for line in lines]


def cli_examples() -> list[tuple[str, list[str], bool]]:
    """(command, lines shown after it, whether they are the whole output)."""
    examples = []
    for _, body in BLOCKS:
        for example in re.split(r"^(?=\$ )", body, flags=re.M):
            if not example.startswith("$ abelian3 "):
                continue
            command, *shown = example.splitlines()
            complete = "..." not in shown
            examples.append((command[2:], shown if complete else shown[: shown.index("...")], complete))
    return examples


CLI_EXAMPLES = cli_examples()


def test_examples_found():
    assert len(PYTHON_BLOCKS) >= 3
    assert len(CLI_EXAMPLES) >= 8


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=lambda source: source.splitlines()[0])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec", optimize=0), {})  # asserts run under python -O too


@pytest.mark.parametrize(("command", "shown", "complete"), CLI_EXAMPLES, ids=[cmd for cmd, _, _ in CLI_EXAMPLES])
def test_cli_example_output(command, shown, complete):
    result = CliRunner().invoke(main, shlex.split(command)[1:])
    assert result.exit_code == 0, result.output
    got = _collapsed(result.stdout.splitlines())
    assert (got if complete else got[: len(shown)]) == _collapsed(shown)
