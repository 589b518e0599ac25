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
failure, 2 usage error.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import click

from . import asymptotics, oracle, rank2, rank3, typecounts
from .config import ELEMENT_BOUND_ENV

_FORMATS = ("text", "json", "csv")


@dataclass
class OutputConfig:
    fmt: str
    quiet: bool


def _emit_json(record: dict) -> None:
    click.echo(json.dumps(record, separators=(",", ":")))


class _CsvOut:
    """csv.writer wrapper that feeds click.echo line by line (keeps CRLF)."""

    def __init__(self, columns: Sequence[str]):
        self._columns = list(columns)
        self._writer = csv.writer(self, lineterminator="\r\n")
        self._writer.writerow(self._columns)

    def write(self, data: str) -> None:
        sys.stdout.write(data)

    def row(self, record: dict) -> None:
        self._writer.writerow([record.get(col, "") for col in self._columns])


def _note(cfg: OutputConfig, message: str) -> None:
    """Commentary channel: text-mode header lines, stderr otherwise."""
    if cfg.quiet:
        return
    if cfg.fmt == "text":
        click.echo(message)
    else:
        click.echo(message, err=True)


def _render_rows(
    cfg: OutputConfig,
    records: Iterator[dict] | list[dict],
    columns: Sequence[str],
    to_text: Callable[[dict], str],
) -> None:
    if cfg.fmt == "csv":
        out = _CsvOut(columns)
        for record in records:
            out.row(record)
    elif cfg.fmt == "json":
        for record in records:
            _emit_json(record)
    else:
        for record in records:
            click.echo(to_text(record))


@click.group()
@click.option(
    "--format",
    "-f",
    "fmt",
    type=click.Choice(_FORMATS),
    default="text",
    show_default=True,
    help="Output format for results on stdout.",
)
@click.option("--quiet", "-q", is_flag=True, help="Suppress headers and progress chatter.")
@click.pass_context
def cli(ctx: click.Context, fmt: str, quiet: bool) -> None:
    """Subgroup counting and enumeration for Z_m x Z_n x Z_r."""
    ctx.obj = OutputConfig(fmt=fmt, quiet=quiet)


@cli.command("count")
@click.argument("m", type=click.IntRange(min=1))
@click.argument("n", type=click.IntRange(min=1))
@click.argument("r", type=click.IntRange(min=1))
@click.option("--order", "order_", type=int, default=None, help="Count only subgroups of this order.")
@click.option("--cyclic", is_flag=True, help="Count only cyclic subgroups.")
@click.pass_obj
def cmd_count(cfg: OutputConfig, m: int, n: int, r: int, order_: int | None, cyclic: bool) -> None:
    """Number of subgroups of Z_M x Z_N x Z_R."""
    if order_ is not None and cyclic:
        raise click.UsageError("--order and --cyclic are mutually exclusive")
    group = (m, n, r)
    if cyclic:
        kind, value = "cyclic", rank3.count_cyclic(group)
    elif order_ is not None:
        try:
            value = rank3.count_by_order(group, order_)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        kind = "by-order"
    else:
        kind, value = "total", rank3.count_total(group)
    record = {"m": m, "n": n, "r": r, "kind": kind, "order": order_, "count": value}
    _render_rows(cfg, [record], ["m", "n", "r", "kind", "order", "count"], lambda rec: str(rec["count"]))


@cli.command("enumerate")
@click.argument("m", type=click.IntRange(min=1))
@click.argument("n", type=click.IntRange(min=1))
@click.argument("r", type=click.IntRange(min=1))
@click.option("--elements", "with_elements", is_flag=True, help="Include the full element set of each subgroup.")
@click.pass_obj
def cmd_enumerate(cfg: OutputConfig, m: int, n: int, r: int, with_elements: bool) -> None:
    """Stream one line per subgroup, in deterministic (a,b,c,t,w,z) order."""
    group = (m, n, r)
    total = rank3.count_total(group)
    _note(cfg, f"# {total} subgroups of Z_{m} x Z_{n} x Z_{r}")

    def records() -> Iterator[dict]:
        for sx in rank3.enumerate_sextuples(group):
            basis = rank3.materialize(sx, group)
            rec = {
                "m": m, "n": n, "r": r,
                "a": sx.a, "b": sx.b, "c": sx.c,
                "t": sx.t, "w": sx.w, "z": sx.z,
                "s": basis.s, "u": basis.u, "v": basis.v,
                "order": basis.order,
            }
            if with_elements:
                elems = sorted(rank3.subgroup_elements(basis))
                rec["elements"] = [list(e) for e in elems]
            yield rec

    def to_text(rec: dict) -> str:
        line = (
            f"a={rec['a']} b={rec['b']} c={rec['c']} "
            f"t={rec['t']} w={rec['w']} z={rec['z']} | "
            f"basis ({rec['a']},0,0) ({rec['s']},{rec['b']},0) ({rec['u']},{rec['v']},{rec['c']}) | "
            f"order {rec['order']}"
        )
        if with_elements:
            shown = " ".join(f"({x},{y},{z})" for x, y, z in rec["elements"])
            line += f" | elements {shown}"
        return line

    columns = ["m", "n", "r", "a", "b", "c", "t", "w", "z", "s", "u", "v", "order"]
    if with_elements:
        columns.append("elements")

    def csv_ready(rec_iter: Iterator[dict]) -> Iterator[dict]:
        for rec in rec_iter:
            if with_elements:
                rec = dict(rec)
                rec["elements"] = " ".join(f"{x},{y},{z}" for x, y, z in rec["elements"])
            yield rec

    try:
        source = csv_ready(records()) if cfg.fmt == "csv" else records()
        _render_rows(cfg, source, columns, to_text)
    except ValueError as exc:
        if "element bound" in str(exc):
            raise click.UsageError(f"{exc} (set {ELEMENT_BOUND_ENV} to raise the cap)") from exc
        raise


@cli.command("table")
@click.argument("which", type=click.Choice(["1", "2", "3"]))
@click.option("--limit", type=click.IntRange(min=1), default=None, help="Rows: table 1 max n, table 2 max exponent, table 3 max largest exponent.")
@click.pass_obj
def cmd_table(cfg: OutputConfig, which: str, limit: int | None) -> None:
    """Reference tables: 1 = s(n) values, 2 = s(p^v) polynomials, 3 = mixed exponents."""
    if which == "1":
        top = limit if limit is not None else 50
        values = asymptotics.sieve_s(top)
        records = [{"n": n, "s": values[n]} for n in range(1, top + 1)]
        _note(cfg, "# n  s(n)")
        _render_rows(cfg, records, ["n", "s"], lambda rec: f"{rec['n']}\t{rec['s']}")
    elif which == "2":
        top = limit if limit is not None else 10
        records = []
        for nu in range(1, top + 1):
            poly = typecounts.symbolic_count(nu, nu, nu)
            records.append({"nu": nu, "s_poly": str(poly), "coefficients": list(poly.coefficients)})
        _note(cfg, "# nu  s(p^nu x p^nu x p^nu)")
        if cfg.fmt == "json":
            for rec in records:
                _emit_json({"nu": rec["nu"], "coefficients": rec["coefficients"]})
        else:
            _render_rows(cfg, records, ["nu", "s_poly"], lambda rec: f"{rec['nu']}\t{rec['s_poly']}")
    else:
        top = limit if limit is not None else 4
        records = []
        for nu3 in range(1, top + 1):
            for nu2 in range(1, nu3 + 1):
                for nu1 in range(1, nu2 + 1):
                    poly = typecounts.symbolic_count(nu1, nu2, nu3)
                    records.append(
                        {
                            "nu1": nu1, "nu2": nu2, "nu3": nu3,
                            "s_poly": str(poly), "coefficients": list(poly.coefficients),
                        }
                    )
        _note(cfg, "# nu1 nu2 nu3  s(p^nu1 x p^nu2 x p^nu3)")
        if cfg.fmt == "json":
            for rec in records:
                _emit_json({"nu1": rec["nu1"], "nu2": rec["nu2"], "nu3": rec["nu3"], "coefficients": rec["coefficients"]})
        else:
            _render_rows(
                cfg,
                records,
                ["nu1", "nu2", "nu3", "s_poly"],
                lambda rec: f"{rec['nu1']},{rec['nu2']},{rec['nu3']}\t{rec['s_poly']}",
            )


@cli.command("poly")
@click.argument("exponents", type=click.IntRange(min=0), nargs=-1, required=True)
@click.option("--eval", "eval_p", type=click.IntRange(min=2), default=None, help="Also evaluate at this prime p.")
@click.option("--closed-form", is_flag=True, help="Use the closed-form route (equal exponents only).")
@click.pass_obj
def cmd_poly(cfg: OutputConfig, exponents: tuple[int, ...], eval_p: int | None, closed_form: bool) -> None:
    """Subgroup count of Z_p^NU1 x Z_p^NU2 x Z_p^NU3 as a polynomial in p.

    Pass one exponent for the equal-exponent case or all three.
    """
    if len(exponents) == 1:
        nu1 = nu2 = nu3 = exponents[0]
    elif len(exponents) == 3:
        nu1, nu2, nu3 = exponents
    else:
        raise click.UsageError("pass exactly one exponent or exactly three")
    if closed_form:
        if not (nu1 == nu2 == nu3):
            raise click.UsageError("--closed-form needs equal exponents")
        poly = typecounts.general_form(nu1)
    else:
        poly = typecounts.symbolic_count(nu1, nu2, nu3)
    record: dict = {"nu1": nu1, "nu2": nu2, "nu3": nu3, "s_poly": str(poly), "coefficients": list(poly.coefficients)}
    if eval_p is not None:
        record["p"] = eval_p
        record["value"] = poly(eval_p)

    if cfg.fmt == "json":
        out = {"nu1": nu1, "nu2": nu2, "nu3": nu3, "coefficients": record["coefficients"]}
        if eval_p is not None:
            out["p"] = eval_p
            out["value"] = record["value"]
        _emit_json(out)
    elif cfg.fmt == "csv":
        _render_rows(cfg, [record], ["nu1", "nu2", "nu3", "s_poly", "p", "value"], str)
    else:
        click.echo(str(poly))
        if eval_p is not None:
            click.echo(f"at p={eval_p}: {record['value']}")


def _parse_partition(text: str) -> typecounts.Partition:
    text = text.strip()
    if not text or text == "0":
        return typecounts.Partition(())
    try:
        parts = tuple(int(piece) for piece in text.split(","))
        return typecounts.Partition(parts)
    except ValueError as exc:
        raise click.UsageError(f"bad partition {text!r}: {exc}") from exc


@cli.command("type-count")
@click.argument("lam")
@click.argument("mu")
@click.option("--eval", "eval_p", type=click.IntRange(min=2), default=None, help="Also evaluate at this prime p.")
@click.pass_obj
def cmd_type_count(cfg: OutputConfig, lam: str, mu: str, eval_p: int | None) -> None:
    """Subgroups of type MU inside a p-group of type LAM (partitions like 3,2,1)."""
    lam_part = _parse_partition(lam)
    mu_part = _parse_partition(mu)
    try:
        poly = typecounts.type_count(lam_part, mu_part)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    record: dict = {
        "lam": ",".join(map(str, lam_part.parts)),
        "mu": ",".join(map(str, mu_part.parts)),
        "poly": str(poly),
        "coefficients": list(poly.coefficients),
    }
    if eval_p is not None:
        record["p"] = eval_p
        record["value"] = poly(eval_p)
    if cfg.fmt == "json":
        out = {"lam": list(lam_part.parts), "mu": list(mu_part.parts), "coefficients": record["coefficients"]}
        if eval_p is not None:
            out["p"] = eval_p
            out["value"] = record["value"]
        _emit_json(out)
    elif cfg.fmt == "csv":
        _render_rows(cfg, [record], ["lam", "mu", "poly", "p", "value"], str)
    else:
        click.echo(str(poly))
        if eval_p is not None:
            click.echo(f"at p={eval_p}: {record['value']}")


@dataclass
class VerificationReport:
    max_order: int
    rank3_shapes: int
    rank2_shapes: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _difference_note(got: set, want: set) -> str:
    extra = sorted(got - want)
    missing = sorted(want - got)
    bits = []
    if extra:
        shown = "; ".join(str(list(s)) for s in extra[:3])
        bits.append(f"{len(extra)} unexpected sets (first: {shown})")
    if missing:
        shown = "; ".join(str(list(s)) for s in missing[:3])
        bits.append(f"{len(missing)} missing sets (first: {shown})")
    return ", ".join(bits) if bits else "sets differ"


def run_lattice_verification(
    max_order: int = 120,
    progress: Callable[[str], None] | None = None,
) -> VerificationReport:
    """Compare structured enumeration against the brute-force oracle.

    Covers every group Z_m x Z_n x Z_r with m n r <= max_order (and every
    Z_m x Z_n with m n <= max_order): element-set equality with the oracle
    lattice, stream length against both counting routes (the per-prime
    count_total and the paper's divisor sum), and pairwise distinctness.
    The oracle lattice of Z_m x Z_n is that of Z_m x Z_n x Z_1 with the third
    coordinate dropped, so each (m, n) costs one oracle call.
    Any exception inside one shape is recorded as a failure for that shape
    rather than aborting the campaign.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    failures: list[str] = []
    rank3_shapes = 0
    rank2_shapes = 0
    for m in range(1, max_order + 1):
        for n in range(1, max_order // m + 1):
            rank2_shapes += 1
            lattice = None
            try:
                lattice = oracle.all_subgroups((m, n, 1))
                want2 = {tuple(x[:2] for x in sub) for sub in lattice}
                seen2 = set()
                stream2 = 0
                for basis2 in rank2.enumerate_rank2(m, n):
                    stream2 += 1
                    seen2.add(tuple(sorted(rank2.subgroup_elements_rank2(basis2))))
                formula2 = rank2.count_rank2(m, n)
                if stream2 != formula2:
                    failures.append(f"({m},{n}): stream {stream2} != formula {formula2}")
                elif len(seen2) != stream2:
                    failures.append(f"({m},{n}): {stream2 - len(seen2)} duplicate element sets")
                elif seen2 != want2:
                    failures.append(f"({m},{n}): {_difference_note(seen2, want2)}")
            except Exception as exc:  # noqa: BLE001 - campaign must report, not die
                failures.append(f"({m},{n}): {type(exc).__name__}: {exc}")
            for r in range(1, max_order // (m * n) + 1):
                rank3_shapes += 1
                group = (m, n, r)
                try:
                    want3 = lattice if r == 1 and lattice is not None else oracle.all_subgroups(group)
                    seen3 = set()
                    stream3 = 0
                    for sx in rank3.enumerate_sextuples(group):
                        stream3 += 1
                        basis3 = rank3.materialize(sx, group)
                        seen3.add(tuple(sorted(rank3.subgroup_elements(basis3))))
                    formulas3 = (rank3.count_total(group), rank3.count_total_divisor_sum(group))
                    if any(stream3 != formula for formula in formulas3):
                        note = f"formulas {formulas3} (per prime, divisor sum)"
                        failures.append(f"{group}: stream {stream3} != {note}")
                    elif len(seen3) != stream3:
                        failures.append(f"{group}: {stream3 - len(seen3)} duplicate element sets")
                    elif seen3 != want3:
                        failures.append(f"{group}: {_difference_note(seen3, want3)}")
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{group}: {type(exc).__name__}: {exc}")
        if progress is not None and m % 10 == 0:
            progress(f"checked m <= {m}")
    return VerificationReport(
        max_order=max_order,
        rank3_shapes=rank3_shapes,
        rank2_shapes=rank2_shapes,
        failures=failures,
    )


@cli.command("verify")
@click.option("--max-order", type=click.IntRange(min=1), default=120, show_default=True, help="Check all groups with m*n*r up to this bound.")
@click.pass_context
def cmd_verify(ctx: click.Context, max_order: int) -> None:
    """Cross-check enumeration, counting, and the brute-force lattice."""
    cfg: OutputConfig = ctx.obj
    progress = None if cfg.quiet else (lambda msg: click.echo(msg, err=True))
    report = run_lattice_verification(max_order, progress=progress)
    record = {
        "max_order": report.max_order,
        "rank3_shapes": report.rank3_shapes,
        "rank2_shapes": report.rank2_shapes,
        "ok": report.ok,
        "failures": report.failures,
    }
    if cfg.fmt == "json":
        _emit_json(record)
    elif cfg.fmt == "csv":
        flat = dict(record, ok=int(report.ok), failures="; ".join(report.failures))
        _render_rows(cfg, [flat], ["max_order", "rank3_shapes", "rank2_shapes", "ok", "failures"], str)
    else:
        click.echo(f"rank-3 groups checked: {report.rank3_shapes}")
        click.echo(f"rank-2 groups checked: {report.rank2_shapes}")
        for failure in report.failures:
            click.echo(f"FAIL {failure}")
        click.echo("result: PASS" if report.ok else "result: FAIL")
    if not report.ok:
        ctx.exit(1)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad {what} {text!r}") from exc
    if not values:
        raise click.UsageError(f"empty {what}")
    return values


@cli.command("asymptotic")
@click.option("--x-values", default="1000,10000,100000", show_default=True, help="Comma-separated checkpoints.")
@click.option("--prime-limit", type=click.IntRange(min=100), default=100_000, show_default=True, help="Euler-product truncation.")
@click.option("--tail-terms", type=click.IntRange(min=16), default=200_000, show_default=True, help="Direct-sum truncation for the cross-check.")
@click.pass_obj
def cmd_asymptotic(cfg: OutputConfig, x_values: str, prime_limit: int, tail_terms: int) -> None:
    """Exact partial sums of s(n) against the main term."""
    xs = _parse_int_list(x_values, "x values")
    if min(xs) < 2:
        raise click.UsageError("x values must be >= 2")
    est = asymptotics.h3_and_h3prime(prime_limit=prime_limit, tail_terms=tail_terms)
    constants = asymptotics.Constants()
    header = {
        "kind": "constants",
        "h3": est.h3,
        "h3prime": est.h3prime,
        "h3_bound": est.h3_bound,
        "h3prime_bound": est.h3prime_bound,
        "direct_h3": est.direct_h3,
        "direct_h3prime": est.direct_h3prime,
        "direct_h3_bound": est.direct_h3_bound,
        "direct_h3prime_bound": est.direct_h3prime_bound,
        "prime_limit": est.prime_limit,
        "tail_terms": est.tail_terms,
        "euler_gamma": constants.euler_gamma,
        "theta_reference": str(constants.theta_reference),
    }
    reports = asymptotics.average_order_reports(xs, estimate=est)
    records = [
        {
            "kind": "report",
            "x": rep.x,
            "exact_sum": rep.exact_sum,
            "main_term": rep.main_term,
            "relative_error": rep.relative_error,
            "error_exponent_estimate": rep.error_exponent_estimate,
        }
        for rep in reports
    ]
    if cfg.fmt == "json":
        _emit_json(header)
        for record in records:
            _emit_json(record)
    elif cfg.fmt == "csv":
        for key, value in header.items():
            _note(cfg, f"{key}={value}")
        _render_rows(
            cfg,
            records,
            ["x", "exact_sum", "main_term", "relative_error", "error_exponent_estimate"],
            str,
        )
    else:
        _note(cfg, f"H3  = {est.h3!r} (+- {est.h3_bound:.3e}); direct {est.direct_h3!r} (+- {est.direct_h3_bound:.3e})")
        _note(cfg, f"H3' = {est.h3prime!r} (+- {est.h3prime_bound:.3e}); direct {est.direct_h3prime!r} (+- {est.direct_h3prime_bound:.3e})")
        _note(cfg, f"euler_gamma = {constants.euler_gamma!r}; theta_reference = {constants.theta_reference}")
        _note(cfg, "# x  exact_sum  main_term  relative_error  error_exponent")
        for record in records:
            click.echo(
                f"{record['x']}\t{record['exact_sum']}\t{record['main_term']!r}\t"
                f"{record['relative_error']:.6e}\t{record['error_exponent_estimate']:.4f}"
            )


def main() -> None:
    cli(prog_name="abelian3")


if __name__ == "__main__":
    main()
