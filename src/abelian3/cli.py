"""Command-line interface.

Subcommands:

    count       total / by-order / cyclic subgroup counts of Z_m x Z_n x Z_r
    enumerate   stream every subgroup basis (optionally with element sets)
    table       reference tables: s(n) values and symbolic counts
    poly        symbolic subgroup count of a p-group as a polynomial in p
    type-count  subgroups of one isomorphism type inside a p-group type
    verify      cross-check the structured enumeration against brute force
    asymptotic  exact partial sums of s(n) against the main term

Global flags: --format {text,json,csv} and --quiet. JSON output is one
object per line; CSV follows RFC 4180. Exit codes: 0 success, 1 verification
failure or stdout closed by its reader, 2 usage error.

Every command hands its results to _render_rows as plain tuples (enumerate as
runs of rows), a column spec and a text line template or callable; _render_rows
and _note are the only code that looks at the format.
Start-up is most of what a command costs, so the library modules and the json
and csv modules are imported where they are first needed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from bisect import bisect_left
from itertools import accumulate, chain, islice, product
from typing import Callable, Iterable, NamedTuple, Sequence

from . import typecounts
from .config import ELEMENT_BOUND

_FORMATS = ("text", "json", "csv")
# Input bounds, so that no accepted input runs for minutes. On a 2-core Xeon VM
# (Python 3.11), end to end: `asymptotic --x-values 1000000000` (sublinear in x)
# takes 2.5-2.9 s and 24 MB, `--tail-terms 2000000` 2.0-2.8 s and 22 MB,
# `--prime-limit 10000000` 2.0-2.7 s and 22 MB, `table 1 --limit 10000000` 48 MB and
# 7.6, 7.6 and 7.4 s as text, CSV and JSON (medians), `poly 120` 0.5 s, `poly
# 1000000 --closed-form` 2.1 s, `table 2 --limit 50` 0.5-0.6 s, `table 3 --limit 18`
# 0.6-0.7 s, `type-count` of 110 ones over 55 ones 0.3-0.4 s, `verify --max-order
# 200` 1.2-1.8 s and `enumerate 16 16 16 --elements` (order config.ELEMENT_BOUND)
# 0.4-0.5 s. Sessions on such a VM differ by up to a factor of two.
MAX_SIEVE = 10**7
# Each asymptotic checkpoint x costs about x^(3/4) steps; together they may cost two at this cap.
MAX_PARTIAL_SUM_X = 10**9
MAX_TAIL_TERMS = 2 * 10**6
MAX_EXPONENT = 120
# count and count --order build one term per exponent triple: (nu1+1)(nu2+1)(nu3+1)
# of them for each distinct (v_p(m), v_p(n), v_p(r)). (2^78, 2^78, 2^78) has
# 493,039 and takes 0.2-0.3 s end to end by either route on the VM above.
MAX_EXPONENT_TRIPLES = 500_000
MAX_CLOSED_FORM_EXPONENT = 10**6
# type-count's LAM may have parts summing to at most this; all ones over half
# as many ones is the slowest shape of a given size.
MAX_PARTITION_SIZE = 110
# Largest --eval value shown, in decimal digits: CPython's default limit on
# converting an int to a string (lower when the interpreter's limit is lower).
MAX_EVAL_DIGITS = 4300
# verify checks every group of order at most --max-order; its time grows about
# as the 1.9th power of the bound.
MAX_VERIFY_ORDER = 200
_TABLE_LIMITS = {"1": MAX_SIEVE, "2": 50, "3": 18}
_TABLE_DEFAULTS = {"1": 50, "2": 10, "3": 4}


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
_CHUNK_CHARS = 16 * 1024
_BATCH_LINES = 256  # lines formatted before they are cut into chunks


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
    of text output; for rows of ints in plain columns it may instead be a
    str.format line template with {k} for cell k, showing each cell once, in
    column order. Such rows share one mechanism: the line of the format (that
    template, the CSV cells, or the JSON object of the names) becomes a %
    template with a %d hole per cell, which each row fills. With run = (i, j)
    and a template, an item of rows is a run (row, length, step): the rows
    k < length with row[i] + k and row[j] + step k (step >= 1). Its other
    cells are filled in once, which may repeat them, leaving holes at i and j
    for each row. header is an optional leading record with columns, row and
    text of its own: the first JSON line, or else commentary (see _note), as
    its text or, for CSV, as name=value lines. A write ends with the first
    line that brings it to _CHUNK_CHARS, so long runs are written in pieces;
    the lines formatted before rows raises are written too.
    """
    fmt, lead = cfg.fmt, []

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
        from json import encoder
        # JSONEncoder.encode builds a new C encoder on every call, which costs
        # about a third of encoding a 13-key row. This one is built once with the
        # settings of JSONEncoder(separators=(",", ":")); markers=None skips the
        # cycle check, as rows are built fresh from numbers, strings and lists.
        chunks = encoder.c_make_encoder(None, encoder.JSONEncoder().default, encoder.encode_basestring_ascii, None, ":", ",", False, False, True)
        json_line = lambda value: "".join(chunks(value, 0))
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
    lines, pending, start = chain(lead, lines), [], 0
    try:
        while True:
            pending, start = ["".join(pending[start:])], 0  # what is not written yet, as one string
            pending.extend(islice(lines, _BATCH_LINES))
            if len(pending) == 1:
                break
            ends = list(accumulate(map(len, pending)))
            while (end := bisect_left(ends, (start and ends[start - 1]) + _CHUNK_CHARS, start)) < len(ends):
                sys.stdout.write("".join(pending[start : end + 1]))
                start = end + 1
    finally:
        sys.stdout.write("".join(pending[start:]))
        sys.stdout.flush()


class UsageError(Exception):
    """A bad command line that the parser could not see; main reports it as argparse does, with exit code 2."""


def _int_range(lo: int, hi: int | None = None) -> Callable[[str], int]:
    """An argparse type: an int from lo to hi (no upper bound when hi is None)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"{value} is not in the range " + (f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"))
        return value

    parse.__name__ = "int"  # argparse names the type so in "invalid int value" errors
    return parse


def cmd_count(cfg: OutputConfig, m: int, n: int, r: int, order_: int | None, cyclic: bool) -> None:
    """Number of subgroups of Z_M x Z_N x Z_R."""
    if order_ is not None and cyclic:
        raise UsageError("--order and --cyclic are mutually exclusive")
    from . import rank3
    group = (m, n, r)
    try:
        if cyclic:
            kind, value = "cyclic", rank3.count_cyclic(group)
        else:
            patterns = {tuple(exps) for exps in rank3.prime_exponents(group).values()}
            if (triples := sum(math.prod(e + 1 for e in exps) for exps in patterns)) > MAX_EXPONENT_TRIPLES:
                raise UsageError(f"the prime exponents of m, n and r give {triples} exponent triples; count takes at most {MAX_EXPONENT_TRIPLES} (count --cyclic takes any)")
            kind, value = ("by-order", rank3.count_by_order(group, order_)) if order_ is not None else ("total", rank3.count_total(group))
    except ValueError as exc:  # an order not dividing m n r, or an entry too hard to factor
        raise UsageError(str(exc)) from exc
    columns = [Column(name) for name in ("m", "n", "r", "kind", "order", "count")]
    _render_rows(cfg, [(m, n, r, kind, order_, value)], columns, lambda row: str(row[-1]))


def cmd_enumerate(cfg: OutputConfig, m: int, n: int, r: int, with_elements: bool) -> None:
    """Stream one line per subgroup, in deterministic (a,b,c,t,w,z) order."""
    from . import rank3
    group = (m, n, r)
    if with_elements and m * n * r > ELEMENT_BOUND:
        raise UsageError(f"group order {m * n * r} exceeds the element bound {ELEMENT_BOUND}")
    try:
        total = rank3.count_total(group)
    except ValueError as exc:  # an entry too hard to factor
        raise UsageError(str(exc)) from exc
    _note(cfg, f"# {total} subgroups of Z_{m} x Z_{n} x Z_{r}")

    fields = rank3.Subgroup._fields
    line = "a={a} b={b} c={c} t={t} w={w} z={z} | basis ({a},0,0) ({s},{b},0) ({u},{v},{c}) | order {order}"
    line = line.format(**{name: f"{{{k}}}" for k, name in enumerate(fields)})  # cell k as {k}
    columns = [*map(Column, fields)]
    if with_elements:  # a row's last cell is its element mask, which picks from the group's elements in code order
        from .oracle import decode
        elements = list(product(range(m), range(n), range(r)))
        cells = [f"{x},{y},{z}" for x, y, z in elements]
        rows = ((*sub, rank3.subgroup_elements(sub)) for sub in rank3.subgroup_stream(group))
        columns.append(Column("elements", csv=lambda mask: " ".join(decode(mask, cells)), json=lambda mask: decode(mask, elements)))
        _render_rows(cfg, rows, columns, lambda row: f"{line.format(*row)} | elements ({') ('.join(decode(row[-1], cells))})")
    else:  # the rows of a run differ in z and u only
        _render_rows(cfg, rank3.subgroup_runs(group), columns, line, run=(fields.index("z"), fields.index("u")))


# A polynomial is shown as text in CSV and as its coefficient list in JSON.
_POLY_COLUMNS = (Column("s_poly", json=None), Column("coefficients", csv=None))


def _poly_cells(poly: typecounts.IntPolynomial) -> tuple[str, tuple[int, ...]]:
    return str(poly), poly.coefficients


def cmd_table(cfg: OutputConfig, which: str, limit: int | None) -> None:
    """Reference tables: 1 = s(n) values, 2 = s(p^v) polynomials, 3 = mixed exponents."""
    top = limit if limit is not None else _TABLE_DEFAULTS[which]
    if top > _TABLE_LIMITS[which]:
        raise UsageError(f"table {which} takes --limit at most {_TABLE_LIMITS[which]}, got {top}")
    if which == "1":
        from . import arith, asymptotics
        _note(cfg, "# n  s(n)")
        _render_rows(cfg, enumerate(arith.multiplicative_stream(asymptotics.S_DIAGONAL, top), 1), [Column("n"), Column("s")], "{0}\t{1}")
        return
    if which == "2":
        shapes = [(nu, nu, nu) for nu in range(1, top + 1)]
        keys = ["nu"]
        _note(cfg, "# nu  s(p^nu x p^nu x p^nu)")
    else:
        shapes = [(nu1, nu2, nu3) for nu3 in range(1, top + 1) for nu2 in range(1, nu3 + 1) for nu1 in range(1, nu2 + 1)]
        keys = ["nu1", "nu2", "nu3"]
        _note(cfg, "# nu1 nu2 nu3  s(p^nu1 x p^nu2 x p^nu3)")
    rows = ((*shape[-len(keys):], *_poly_cells(typecounts.symbolic_count(*shape))) for shape in shapes)
    columns = [*map(Column, keys), *_POLY_COLUMNS]
    _render_rows(cfg, rows, columns, lambda row: ",".join(map(str, row[:-2])) + "\t" + row[-2])


def _eval_columns(eval_p: int | None) -> list[Column]:
    """p and the value there: empty CSV cells and no JSON keys without --eval."""
    json_value = None if eval_p is None else _same
    return [Column("p", json=json_value), Column("value", json=json_value)]


def _with_value(build: Callable[[], typecounts.IntPolynomial], degree: int, p: int | None) -> tuple:
    """(build(), its value at p or None without --eval); a usage error for a
    value of more than MAX_EVAL_DIGITS digits, or of more than the
    interpreter's int-to-string limit when that is lower. Counting polynomials
    have nonnegative coefficients, so p^degree bounds the value from below,
    which refuses most such values before build runs."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    digits = min(MAX_EVAL_DIGITS, limit) if limit else MAX_EVAL_DIGITS
    too_long = UsageError(f"--eval {p}: the value would have more than {digits} digits")
    if p is not None and degree * math.log10(p) >= digits:
        raise too_long
    poly = build()
    value = None if p is None else poly(p)
    if value is not None and value >= 10**digits:
        raise too_long
    return poly, value


def _poly_text(row: tuple) -> str:
    """The polynomial, then its value at p when there is one."""
    poly, _, p, value = row[-4:]
    return poly if p is None else f"{poly}\nat p={p}: {value}"


def cmd_poly(cfg: OutputConfig, exponents: list[int], eval_p: int | None, closed_form: bool) -> None:
    """Subgroup count of Z_p^NU1 x Z_p^NU2 x Z_p^NU3 as a polynomial in p.

    Pass one exponent for the equal-exponent case or all three.
    """
    if len(exponents) == 1:
        nu1 = nu2 = nu3 = exponents[0]
    elif len(exponents) == 3:
        nu1, nu2, nu3 = exponents
    else:
        raise UsageError("pass exactly one exponent or exactly three")
    if closed_form and not (nu1 == nu2 == nu3):
        raise UsageError("--closed-form needs equal exponents")
    bound = MAX_CLOSED_FORM_EXPONENT if closed_form else MAX_EXPONENT
    if max(exponents) > bound:
        raise UsageError(f"exponents must be <= {bound}{' with --closed-form' * closed_form}, got {max(exponents)}")
    build = (lambda: typecounts.general_form(nu1)) if closed_form else (lambda: typecounts.symbolic_count(nu1, nu2, nu3))
    poly, value = _with_value(build, typecounts.count_degree(nu1, nu2, nu3), eval_p)
    row = (nu1, nu2, nu3, *_poly_cells(poly), eval_p, value)
    columns = [Column("nu1"), Column("nu2"), Column("nu3"), *_POLY_COLUMNS, *_eval_columns(eval_p)]
    _render_rows(cfg, [row], columns, _poly_text)


def _parse_partition(text: str) -> typecounts.Partition:
    text = text.strip()
    if not text or text == "0":
        return typecounts.Partition(())
    try:
        parts = tuple(int(piece) for piece in text.split(","))
        return typecounts.Partition(parts)
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


def cmd_type_count(cfg: OutputConfig, lam: str, mu: str, eval_p: int | None) -> None:
    """Subgroups of type MU inside a p-group of type LAM (partitions like 3,2,1)."""
    lam_part = _parse_partition(lam)
    mu_part = _parse_partition(mu)
    if lam_part.size > MAX_PARTITION_SIZE:
        raise UsageError(f"LAM must have parts summing to at most {MAX_PARTITION_SIZE}, got {lam_part.size}")
    try:
        degree = typecounts.type_count_degree(lam_part, mu_part)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    poly, value = _with_value(lambda: typecounts.type_count(lam_part, mu_part), degree, eval_p)
    row = (lam_part.parts, mu_part.parts, *_poly_cells(poly), eval_p, value)
    joined = lambda parts: ",".join(map(str, parts))
    columns = [Column("lam", csv=joined), Column("mu", csv=joined), Column("poly", json=None), Column("coefficients", csv=None), *_eval_columns(eval_p)]
    _render_rows(cfg, [row], columns, _poly_text)


class VerificationReport(NamedTuple):
    max_order: int
    rank3_shapes: int
    rank2_shapes: int
    ok: bool
    failures: list[str]


def _difference_note(got: set[int], want: set[int], group: tuple[int, int, int], strides: Sequence[int]) -> str:
    """The masks in one set only (codes x sx + y sy + z sz for strides (sx, sy,
    sz)), decoded to sorted element lists, the first three of each side in
    ascending order."""
    from .oracle import decode
    elements = sorted(product(*map(range, group)), key=lambda e: sum(x * s for x, s in zip(e, strides)))
    bits = []
    for side, masks in (("unexpected", got - want), ("missing", want - got)):
        if masks:
            shown = "; ".join(map(str, sorted(sorted(decode(mask, elements)) for mask in masks)[:3]))
            bits.append(f"{len(masks)} {side} sets (first: {shown})")
    return ", ".join(bits) if bits else "sets differ"


def run_lattice_verification(
    max_order: int = 120,
    progress: Callable[[str], None] | None = None,
) -> VerificationReport:
    """Compare structured enumeration against the brute-force oracle.

    Covers every group Z_m x Z_n x Z_r with m n r <= max_order: equality of
    the element masks with the oracle lattice, stream length against every
    counting route (the per-prime count_total and the paper's divisor sum),
    and pairwise distinctness. Z_m x Z_n is the shape (m, n, 1), whose stream
    length is also checked against the rank-2 gcd sum count_rank2(m, n);
    rank2_shapes counts these shapes.
    The oracle walks each distinct lattice once per run, keyed by a shape's
    orders above 1 stably sorted ((1,) for the trivial group), and each
    shape's masks are built in that key's codes: axis i of the shape takes the
    stride of its key axis, and an order-1 axis, whose digit is 0, stride 1.
    Permuting the factors is an isomorphism, so the shape's subgroups in those
    codes are the key's lattice as walked. The stream, masks and counts stay
    per shape.
    Any exception inside one shape is recorded as a failure for that shape
    rather than aborting the campaign.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    from . import oracle, rank2, rank3
    lattices: dict[tuple[int, ...], set[int]] = {}
    failures: list[str] = []
    rank3_shapes = rank2_shapes = 0
    for m in range(1, max_order + 1):
        for n in range(1, max_order // m + 1):
            for r in range(1, max_order // (m * n) + 1):
                rank3_shapes += 1
                rank2_shapes += r == 1
                group = (m, n, r)
                try:
                    axes = sorted((i for i in range(3) if group[i] > 1), key=group.__getitem__) or [0]
                    key = tuple(group[i] for i in axes)
                    strides = [1, 1, 1]
                    for k, i in enumerate(axes):
                        strides[i] = math.prod(key[k + 1:])
                    if key not in lattices:
                        lattices[key] = oracle.all_subgroups(key)
                    want = lattices[key]
                    masks = [rank3.subgroup_elements(sub, strides) for sub in rank3.subgroup_stream(group)]
                    stream, seen = len(masks), set(masks)
                    formulas = {"per prime": rank3.count_total(group), "divisor sum": rank3.count_total_divisor_sum(group)}
                    if r == 1:
                        formulas["rank-2 gcd sum"] = rank2.count_rank2(m, n)
                    if any(stream != formula for formula in formulas.values()):
                        note = f"formulas {tuple(formulas.values())} ({', '.join(formulas)})"
                        failures.append(f"{group}: stream {stream} != {note}")
                    elif len(seen) != stream:
                        failures.append(f"{group}: {stream - len(seen)} duplicate element sets")
                    elif seen != want:
                        failures.append(f"{group}: {_difference_note(seen, want, group, strides)}")
                except Exception as exc:  # noqa: BLE001 - campaign must report, not die
                    failures.append(f"{group}: {type(exc).__name__}: {exc}")
        if progress is not None and m % 10 == 0:
            progress(f"checked m <= {m}")
    return VerificationReport(max_order, rank3_shapes, rank2_shapes, not failures, failures)


def _verify_text(row: tuple) -> str:
    _, rank3_shapes, rank2_shapes, ok, failures = row
    lines = [f"rank-3 groups checked: {rank3_shapes}", f"rank-2 groups checked: {rank2_shapes}"]
    return "\n".join([*lines, *(f"FAIL {failure}" for failure in failures), f"result: {'PASS' if ok else 'FAIL'}"])


def cmd_verify(cfg: OutputConfig, max_order: int) -> None:
    """Cross-check enumeration, counting, and the brute-force lattice."""
    progress = None if cfg.quiet else (lambda msg: print(msg, file=sys.stderr))
    report = run_lattice_verification(max_order, progress=progress)
    columns = [*map(Column, ("max_order", "rank3_shapes", "rank2_shapes")), Column("ok", csv=int), Column("failures", csv="; ".join)]
    _render_rows(cfg, [report], columns, _verify_text)
    if not report.ok:
        sys.exit(1)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}") from exc
    if not values:
        raise UsageError(f"empty {what}")
    return values


def cmd_asymptotic(cfg: OutputConfig, x_values: str, prime_limit: int, tail_terms: int) -> None:
    """Exact partial sums of s(n) against the main term."""
    xs = _parse_int_list(x_values, "x values")
    if min(xs) < 2:
        raise UsageError("x values must be >= 2")
    if max(xs) > MAX_PARTIAL_SUM_X or sum(x**0.75 for x in set(xs)) > 2 * MAX_PARTIAL_SUM_X**0.75:
        raise UsageError(f"x values must be <= {MAX_PARTIAL_SUM_X}, and their x^(3/4) sum to at most twice {MAX_PARTIAL_SUM_X}^(3/4)")
    from . import asymptotics
    est = asymptotics.h3_and_h3prime(prime_limit=prime_limit, tail_terms=tail_terms)
    head_columns = [Column("kind"), *map(Column, asymptotics.H3Estimate._fields), Column("euler_gamma"), Column("theta_reference")]
    head_row = ("constants", *est, asymptotics.EULER_GAMMA, asymptotics.THETA_REFERENCE)
    head_text = (
        f"H3  = {est.h3!r} (+- {est.h3_bound:.3e}); direct {est.direct_h3!r} (+- {est.direct_h3_bound:.3e})\n"
        f"H3' = {est.h3prime!r} (+- {est.h3prime_bound:.3e}); direct {est.direct_h3prime!r} (+- {est.direct_h3prime_bound:.3e})\n"
        f"euler_gamma = {asymptotics.EULER_GAMMA!r}; theta_reference = {asymptotics.THETA_REFERENCE}\n"
        "# x  exact_sum  main_term  relative_error  error_exponent"
    )
    rows = [("report", *rep) for rep in asymptotics.average_order_reports(xs, estimate=est)]
    columns = [Column("kind", csv=None), *map(Column, asymptotics.AsymptoticReport._fields)]
    text = lambda row: f"{row[1]}\t{row[2]}\t{row[3]!r}\t{row[4]:.6e}\t{row[5]:.4f}"
    _render_rows(cfg, rows, columns, text, header=(head_columns, head_row, head_text))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abelian3", description="Subgroup counting and enumeration for Z_m x Z_n x Z_r.")
    parser.add_argument("--format", "-f", dest="fmt", choices=_FORMATS, default="text", help="Output format for results on stdout (default: text).")
    parser.add_argument("--quiet", "-q", action="store_true", help="Suppress headers and progress chatter.")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(name: str, run: Callable, *dims: str, eval_p: bool = False) -> argparse.ArgumentParser:
        """A subparser for run, with a positional int of at least 1 per name in dims and, with eval_p, --eval."""
        sub = commands.add_parser(name, help=run.__doc__.splitlines()[0], description=run.__doc__)
        sub.set_defaults(run=run, usage_error=sub.error)
        for dim in dims:
            sub.add_argument(dim, type=_int_range(1), metavar=dim.upper())
        if eval_p:
            sub.add_argument("--eval", dest="eval_p", type=_int_range(2), metavar="P", help="Also evaluate at P >= 2; the value is a subgroup count when P is prime.")
        return sub

    sub = command("count", cmd_count, "m", "n", "r")
    sub.add_argument("--order", dest="order_", type=int, metavar="ORDER", help="Count only subgroups of this order.")
    sub.add_argument("--cyclic", action="store_true", help="Count only cyclic subgroups.")
    sub = command("enumerate", cmd_enumerate, "m", "n", "r")
    sub.add_argument("--elements", dest="with_elements", action="store_true", help="Include the full element set of each subgroup.")
    sub = command("table", cmd_table)
    sub.add_argument("which", choices=["1", "2", "3"])
    sub.add_argument("--limit", type=_int_range(1), help="Rows: table 1 max n, table 2 max exponent, table 3 max largest exponent.")
    sub = command("poly", cmd_poly, eval_p=True)
    sub.add_argument("exponents", type=_int_range(0), nargs="+", metavar="NU")
    sub.add_argument("--closed-form", action="store_true", help="Use the closed-form route (equal exponents only).")
    sub = command("type-count", cmd_type_count, eval_p=True)
    sub.add_argument("lam", metavar="LAM")
    sub.add_argument("mu", metavar="MU")
    sub = command("verify", cmd_verify)
    sub.add_argument("--max-order", type=_int_range(1, MAX_VERIFY_ORDER), default=120, help="Check all groups with m*n*r up to this bound (default: 120).")
    sub = command("asymptotic", cmd_asymptotic)
    sub.add_argument("--x-values", default="1000,10000,100000", help="Comma-separated checkpoints (default: 1000,10000,100000).")
    sub.add_argument("--prime-limit", type=_int_range(100, MAX_SIEVE), default=100_000, help="Euler-product truncation (default: 100000).")
    sub.add_argument("--tail-terms", type=_int_range(16, MAX_TAIL_TERMS), default=200_000, help="Direct-sum truncation for the cross-check (default: 200000).")
    return parser


def main() -> None:
    """Run `abelian3 ARGS` for the arguments in sys.argv; exit code 1 when verify fails or the reader closes stdout, 2 on a usage error."""
    options = vars(_parser().parse_args(sys.argv[1:]))
    run, usage_error = options.pop("run"), options.pop("usage_error")
    cfg = OutputConfig(options.pop("fmt"), options.pop("quiet"))
    try:
        run(cfg, **options)
    except UsageError as exc:
        usage_error(str(exc))
    except BrokenPipeError:
        # The reader left: point stdout at /dev/null so that flushing at exit
        # raises nothing, and end as a failed write.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
