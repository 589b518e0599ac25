"""Output engine: _render_rows writes a command's rows and _note its
commentary, in the format of an OutputConfig. They are the only code that
reads the output format."""

from __future__ import annotations

import sys
from itertools import chain
from operator import itemgetter
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


def _csv_record(cells: Iterable) -> str:
    """cells as one CRLF-ended RFC 4180 record: None is an empty cell, and a cell that holds a comma, a quote, CR or LF is quoted, with its quotes doubled."""
    cells = ["" if cell is None else str(cell) for cell in cells]
    return ",".join('"%s"' % cell.replace('"', '""') if any(c in cell for c in ',"\r\n') else cell for cell in cells) + "\r\n"


class _Cell(str):  # cell k of a line template in _render_rows' check: a bare {k} shows \0k\0, a format spec or a conversion raises
    __repr__ = __str__ = None  # so a conversion raises TypeError

    def __format__(self, spec: str) -> str:
        if spec:
            raise ValueError(spec)
        return self


# A quarter of Linux's default 64-KiB pipe capacity: a chunk written to a pipe
# whose reader keeps up never waits for the reader, while a chunk at least as
# large as the pipe makes every write wait until the reader has drained it.
# Under python -u (or PYTHONUNBUFFERED=1) every write is a system call: line by
# line, `-q table 1 --limit 1000000` took 1.97 s against 1.18 s chunked (README,
# Command line). Measure any change here under -u.
_CHUNK_CHARS = 16 * 1024


def _note(cfg: OutputConfig, message: str) -> None:
    """Commentary channel: text-mode header lines, stderr otherwise."""
    if not cfg.quiet:
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
    of text output, or, for rows of ints in plain columns, is a str.format line
    template showing {0}, {1}, ... once each, in order, as bare fields.
    Formatted with cell k as \\0k\\0, it splits into literal text and cells, as
    do the JSON and CSV lines of the shown names; each format's line becomes a
    % template once per call, with %d at each cell for one % per row. With
    run = (i, j), an item of rows is a run (row, length, step): the rows k <
    length with row[i] + k and row[j] + step k (step >= 1); the template shows
    {i}, then {j}, once each, and its other cells as often as it likes, all
    filled by one % per run. A template that breaks its rule raises ValueError
    before any output. _csv_record builds every CSV record: names, line and
    rows. header is an optional leading record with columns, row and text: the
    first JSON line, or else commentary (see _note), as its text or, for CSV,
    as name=value lines. A write ends with the first line that brings it to
    _CHUNK_CHARS; the lines formatted before rows raises go too.
    """
    fmt, lead = cfg.fmt, []
    if isinstance(text, str):
        want = [str(k) for k in run or range(len(columns))]
        try:  # the k between the \0s are the cells text shows, in order
            line = text.format(*(_Cell(f"\0{k}\0") for k in range(len(columns)))) + "\n"
        except (AttributeError, LookupError, TypeError, ValueError):  # a stray brace, a field that is no cell, a spec or a conversion
            line = "\0"  # shows a cell "", which no template may show
        if [k for k in line.split("\0")[1::2] if k in want or run is None] != want:
            raise ValueError(f"line template {text!r} must show each of the cells {', '.join(want)} once, in that order")

    def shown(cols: Columns) -> tuple[list[str], Callable[[tuple], Sequence]]:
        """Names of the columns fmt shows, and row -> their values in fmt."""
        picked = [(i, col.name, getattr(col, fmt)) for i, col in enumerate(cols) if getattr(col, fmt) is not None]
        return [name for _, name, _ in picked], lambda row: [get(row[i]) for i, _, get in picked]

    if fmt == "text":
        if header is not None:
            _note(cfg, header[2])
        lines = map("%s\n".__mod__, map(text, rows))
    elif fmt == "json":
        from json import JSONEncoder
        # rows are built fresh from numbers, strings and lists, so no cycle check
        json_line = JSONEncoder(separators=(",", ":"), check_circular=False).encode
        names, values = shown(columns)
        line = "{" + ",".join(f"{json_line(name)}:\0{k}\0" for k, name in enumerate(names)) + "}\n"
        lines = map(lambda row: json_line(dict(zip(names, values(row)))) + "\n", rows)
        if header is not None:
            head_names, head_values = shown(header[0])
            lead.append(json_line(dict(zip(head_names, head_values(header[1])))) + "\n")
    else:
        if header is not None:
            head_names, head_values = shown(header[0])
            _note(cfg, "\n".join(f"{name}={value}" for name, value in zip(head_names, head_values(header[1]))))
        names, values = shown(columns)
        lead.append(_csv_record(names))
        line = _csv_record(f"\0{k}\0" for k in range(len(names)))
        lines = map(_csv_record, map(values, rows))
    if isinstance(text, str) and run is None:
        lines = map("%d".join(line.replace("%", "%%").split("\0")[::2]).__mod__, rows)
    elif isinstance(text, str):  # one % per run fills the cells other than i and j, and leaves a %d at each of those
        i, j = run
        pieces = line.replace("%", "%%%%").split("\0")
        others = [int(k) for k in pieces[1::2] if k not in want]
        get = itemgetter(*others) if others else lambda row: ()
        line = "".join(piece if n % 2 == 0 else "%%d" if piece in want else "%d" for n, piece in enumerate(pieces))
        lines = chain.from_iterable(map((line % get(row)).__mod__, zip(range(row[i], row[i] + length), range(row[j], row[j] + step * length, step))) for row, length, step in rows)
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
