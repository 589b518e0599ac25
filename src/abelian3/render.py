"""Output engine: _render_rows writes a command's rows and _note its
commentary, in the format of an OutputConfig. They are the only code that
reads the output format."""

from __future__ import annotations

import argparse
import re
import sys
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence


class OutputConfig(NamedTuple):
    fmt: str
    quiet: bool


def _same(value):
    return value


class Column(NamedTuple):
    """One output column: its name, and how a row's value for it becomes a CSV
    cell and a JSON value. None leaves the column out of that format."""

    name: str
    csv: Callable | None = _same
    json: Callable | None = _same


Columns = Sequence[Column]

# A quarter of Linux's default 64-KiB pipe capacity: a chunk written to a pipe
# whose reader keeps up never waits for the reader, while a chunk at least as
# large as the pipe makes every write wait until the reader has drained it.
# Under python -u (or PYTHONUNBUFFERED=1) every write is a system call: line by
# line, `-q table 1 --limit 1000000` took 1.97 s against 1.18 s chunked (README,
# Command line). Measure any change here under -u.
_CHUNK_CHARS = 16 * 1024


def _note(cfg: OutputConfig, message: str) -> None:
    """Commentary channel: text-mode header lines, stderr otherwise."""
    if cfg.quiet:
        return
    print(message, file=sys.stdout if cfg.fmt == "text" else sys.stderr)


def _render_rows(
    cfg: OutputConfig,
    rows: Iterable[tuple],
    columns: Columns,
    text: Callable[[tuple], str] | str,
    header: tuple[Columns, tuple, str] | None = None,
    run: tuple[int, int] | None = None,
) -> None:
    """Write each row to stdout in cfg's format, in chunks of about _CHUNK_CHARS.

    A row holds one value per column. text turns a row into one or more lines
    of text output, or, for rows of ints in plain columns, is a str.format
    line template showing {0}, {1}, ... once each, in order. The line of the
    format (that template, the CSV cells, or the JSON object of the names)
    then becomes a % template with a %d hole per cell, which each row fills.
    With run = (i, j), an item of rows is a run (row, length, step): the rows
    k < length with row[i] + k and row[j] + step k (step >= 1); the template
    shows {i}, then {j}, once each, and its other cells, filled once per run,
    as often as it likes. A template that breaks its rule raises ValueError
    before any output. header is an optional leading record with columns, row
    and text: the first JSON line, or else commentary (see _note), as its text
    or, for CSV, as name=value lines. A write ends with the first line that
    brings it to _CHUNK_CHARS; the lines formatted before rows raises go too.
    """
    fmt, lead = cfg.fmt, []
    if isinstance(text, str):
        want = [str(k) for k in run or range(len(columns))]
        # the field names of text as str.format reads them: {{ and }} are no field, a stray brace reads as None
        names = [field[1] for field in re.finditer(r"\{\{|\}\}|\{([^{}!:]*)(?:![^{}])?(?::(?:[^{}]|\{[^{}]*\})*)?\}|[{}]", text) if field[0] not in ("{{", "}}")]
        if [name for name in names if name in want or run is None or name is None] != want:
            raise ValueError(f"line template {text!r} must show each of the cells {', '.join(want)} once, in that order")

    def shown(cols: Columns) -> tuple[list[str], Callable[[tuple], Sequence]]:
        """Names of the columns fmt shows, and row -> their values in fmt."""
        picked = [(i, col.name, getattr(col, fmt)) for i, col in enumerate(cols) if getattr(col, fmt) is not None]
        return [name for _, name, _ in picked], lambda row: [get(row[i]) for i, _, get in picked]

    fields = [f"{{{k}}}" for k in range(len(columns))]  # cell k of a line template
    if fmt == "text":
        if header is not None:
            _note(cfg, header[2])
        line = f"{text}\n"  # the line template, when text is one
        lines = map("%s\n".__mod__, map(text, rows))
    elif fmt == "json":
        from json import JSONEncoder
        # rows are built fresh from numbers, strings and lists, so no cycle check
        json_line = JSONEncoder(separators=(",", ":"), check_circular=False).encode
        names, values = shown(columns)
        line = "{{" + ",".join(json_line(name).replace("{", "{{").replace("}", "}}") + ":" + field for name, field in zip(names, fields)) + "}}\n"
        lines = map(lambda row: json_line(dict(zip(names, values(row)))) + "\n", rows)
        if header is not None:
            head_names, head_values = shown(header[0])
            lead.append(json_line(dict(zip(head_names, head_values(header[1])))) + "\n")
    else:
        if header is not None:
            head_names, head_values = shown(header[0])
            _note(cfg, "\n".join(f"{name}={value}" for name, value in zip(head_names, head_values(header[1]))))
        import csv
        names, values = shown(columns)
        # writerow returns what write returns, and str(line) is the line itself
        writer = csv.writer(argparse.Namespace(write=str), lineterminator="\r\n")
        lead.append(writer.writerow(names))
        line = ",".join(fields) + "\r\n"
        lines = map(writer.writerow, map(values, rows))
    if isinstance(text, str):
        line = line.replace("%", "%%")

        def holes(row: Sequence, at: Iterable[int]) -> str:
            """line as a % template: row's cells filled in, a %d hole at each index in at."""
            row = list(row)
            for k in at:
                row[k] = "%d"
            return line.format(*row)

        if run is None:
            lines = map(holes(fields, range(len(fields))).__mod__, rows)
        else:
            i, j = run
            lines = chain.from_iterable(map(holes(row, run).__mod__, zip(range(row[i], row[i] + length), range(row[j], row[j] + step * length, step))) for row, length, step in rows)
    pending, size = [], 0  # the lines not written yet, and their length
    try:
        for item in chain(lead, lines):
            pending.append(item)
            size += len(item)
            if size >= _CHUNK_CHARS:
                sys.stdout.write("".join(pending))
                pending, size = [], 0
    finally:
        sys.stdout.write("".join(pending))
        sys.stdout.flush()
