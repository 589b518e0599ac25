"""The README's examples run as shown.

Every fenced ``python`` block is executed. Every ``$ abelian3 ...`` line in a
fenced block is run in process by conftest's CliRunner, and its stdout must
equal the lines shown after it, up to the next command or the end of the
block, with runs of whitespace collapsed (the README shows tabs as spaces). A
``...`` line ends the comparison for its command.

The guarantees and caps tables must hold what they claim: each cap's value is
its constant's, and each test or ``ci row`` they name exists.
"""

import ast
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from abelian3 import arith, asymptotics, cli, config, oracle
from abelian3.cli import main
from conftest import CliRunner

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
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


def table_rows(heading: str) -> list[list[str]]:
    """The cells of each row below the header of the table in README's section `## heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return [line[2:-2].split(" | ") for line in section.splitlines() if line.startswith("| ")][1:]


def cites_a_test(cell: str) -> bool:
    return "`tests/" in cell or "ci row" in cell


def test_caps_table_matches_the_constants():
    rows = table_rows("Caps")
    assert all(len(row) == 4 and all(row) and cites_a_test(row[3]) for row in rows), rows
    # a row whose first cell is one code span names a constant, evaluated among cli's names
    caps = {row[0].strip("`"): int(row[1].replace(",", "")) for row in rows if re.fullmatch(r"`[^`]+`", row[0])}
    required = {name for name in vars(cli) if name.startswith("MAX_")} | {"config.ELEMENT_BOUND", "oracle.MAX_JOINS"}
    assert required <= caps.keys(), required - caps.keys()
    namespace = {**vars(cli), "arith": arith, "asymptotics": asymptotics, "config": config, "oracle": oracle}
    for name, value in caps.items():
        assert eval(name, namespace) == value, name


def defined_tests() -> set[str]:
    """Each test of tests/ as `tests/<file>.py::<name>` or `tests/<file>.py::<Class>::<name>`."""
    found = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                found.add(f"tests/{path.name}::{node.name}")
            elif isinstance(node, ast.ClassDef):
                found |= {f"tests/{path.name}::{node.name}::{item.name}" for item in node.body if isinstance(item, ast.FunctionDef)}
    return found


def ci_commands() -> list[str]:
    """The command of each row of ci/test_ci.py."""
    spec = importlib.util.spec_from_file_location("ci_rows", ROOT / "ci" / "test_ci.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [getattr(row, "values", row)[0] for row in module.ROWS]  # a pytest.param keeps its row in values


def test_every_cited_test_exists():
    rows = table_rows("Guarantees")
    statuses = ("proved", "checked", "empirical", "assumed")
    assert all(len(row) == 5 and all(row) and row[3].startswith(statuses) and cites_a_test(row[4]) for row in rows), rows
    text = README.read_text()
    cited = set(re.findall(r"`(tests/\w+\.py::[\w:]+)`", text))
    assert cited and cited <= defined_tests(), cited - defined_tests()
    commands = ci_commands()
    for row in re.findall(r"ci row `([^`]+)`", text):
        assert any(row in command for command in commands), row
