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
runs of rows), a column spec and a text line template or callable; render.py,
where _render_rows and _note live, is the only module that reads the format.
The commands call _render_rows and run_lattice_verification, which loads
verify.py (the verification campaign), through this module's globals, so that a
tracer that wraps either sees every call. Start-up is most of what a command
costs, so verify, the library modules and json are imported where they are
first needed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import product
from typing import Callable, Iterable

from . import typecounts
from .config import ELEMENT_BOUND
from .render import Column, Columns, OutputConfig, _note, _render_rows, _same

_FORMATS = ("text", "json", "csv")
# Input bounds, so that no accepted input runs for minutes: README's Caps table gives each one's reason and the check at it.
MAX_SIEVE = 10**7
# Each asymptotic checkpoint x costs about x^(3/4) steps; together they may cost two at this cap.
MAX_PARTIAL_SUM_X = 10**9
MAX_EXPONENT = 120
# count, count --order and enumerate's header build one term per exponent
# triple: (nu1+1)(nu2+1)(nu3+1) of them for each distinct (v_p(m), v_p(n), v_p(r)).
# (2^78, 2^78, 2^78) has 493,039; its row in ci/test_ci.py holds the timeout of `count` on it.
MAX_EXPONENT_TRIPLES = 500_000
MAX_CLOSED_FORM_EXPONENT = 10**6
# type-count's LAM may have parts summing to at most this; all ones over half
# as many ones is the slowest shape of a given size.
MAX_PARTITION_SIZE = 110
# Largest --eval value or count shown, in decimal digits: CPython's default
# limit on converting an int to a string (lower when the interpreter's is lower).
MAX_EVAL_DIGITS = 4300
# Largest entry of count and enumerate, in decimal digits: a prime entry, tested outside the rho budget, takes seconds here.
MAX_ENTRY_DIGITS = 3000
# verify checks every group of order at most --max-order; its time grows about
# as the 1.9th power of the bound.
MAX_VERIFY_ORDER = 200
_TABLE_LIMITS = {"1": MAX_SIEVE, "2": 50, "3": 18}
_TABLE_DEFAULTS = {"1": 50, "2": 10, "3": 4}


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


def _digit_checked(what: str, value: Callable[[], int], log10_floor: float = 0.0) -> int:
    """value(), unless it has more than MAX_EVAL_DIGITS digits (or the interpreter's lower int-to-string limit), or
    log10_floor, a lower bound on its log10 checked before value is called, shows that it would: then a usage error."""
    digits = min(MAX_EVAL_DIGITS, getattr(sys, "get_int_max_str_digits", lambda: 0)() or MAX_EVAL_DIGITS)  # 0: no limit
    if log10_floor >= digits or (result := value()) >= 10**digits:
        raise UsageError(f"{what} would have more than {digits} digits")
    return result


def _counted(group: tuple[int, int, int], order_: int | None = None, cyclic: bool = False) -> tuple[str, int]:
    """The kind and number of group's subgroups (of order order_, or cyclic). A usage error: an entry of more than MAX_ENTRY_DIGITS
    digits or too hard to factor, an order_ not dividing m n r, more than MAX_EXPONENT_TRIPLES exponent triples (but for
    cyclic), or a count past _digit_checked."""
    if max(group) >= 10**MAX_ENTRY_DIGITS:
        raise UsageError(f"m, n and r must have at most {MAX_ENTRY_DIGITS} digits each")
    from . import rank3
    try:
        if cyclic:
            kind, value = "cyclic", rank3.count_cyclic(group)
        else:
            patterns = {tuple(exps) for exps in rank3.prime_exponents(group).values()}
            if (triples := sum(math.prod(e + 1 for e in exps) for exps in patterns)) > MAX_EXPONENT_TRIPLES:
                raise UsageError(f"the prime exponents of m, n and r give {triples} exponent triples; count and enumerate take at most {MAX_EXPONENT_TRIPLES} (count --cyclic takes any)")
            kind, value = ("by-order", rank3.count_by_order(group, order_)) if order_ is not None else ("total", rank3.count_total(group))
    except ValueError as exc:  # an order not dividing m n r, or an entry too hard to factor
        raise UsageError(str(exc)) from exc
    return kind, _digit_checked(f"the {kind} count", lambda: value)


def cmd_count(cfg: OutputConfig, m: int, n: int, r: int, order_: int | None, cyclic: bool) -> None:
    """Number of subgroups of Z_M x Z_N x Z_R."""
    kind, value = _counted((m, n, r), order_, cyclic)
    columns = [Column(name) for name in ("m", "n", "r", "kind", "order", "count")]
    _render_rows(cfg, [(m, n, r, kind, order_, value)], columns, lambda row: str(row[-1]))


def cmd_enumerate(cfg: OutputConfig, m: int, n: int, r: int, with_elements: bool) -> None:
    """Stream one line per subgroup, in deterministic (a,b,c,t,w,z) order."""
    from . import rank3
    group = (m, n, r)
    if with_elements and m * n * r > ELEMENT_BOUND:
        raise UsageError(f"group order {m * n * r} exceeds the element bound {ELEMENT_BOUND}")
    _, total = _counted(group)
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


def _render_polys(cfg: OutputConfig, key_columns: Columns, name: str, polys: Iterable[tuple[tuple, typecounts.IntPolynomial]], evaluate: bool = False, p: int | None = None) -> None:
    """Write a row per pair (cells, polynomial) in polys: the cells, then the
    polynomial, as text under name in CSV and as its coefficients in JSON;
    text shows the cells joined by commas, a tab and the polynomial.
    With evaluate (one pair, from a command that takes --eval), the row goes on
    with p and the value there (empty CSV cells and no JSON keys without p),
    text is the polynomial, then `at p=P: VALUE`, and a value past
    _digit_checked is a usage error. Counting polynomials have nonnegative
    coefficients, so p to the degree of the polynomial bounds the value from
    below and refuses most such values before the polynomial is evaluated.
    """
    columns = [*key_columns, Column(name, csv=str, json=None), Column("coefficients", csv=None, json=lambda poly: poly.coefficients)]
    if not evaluate:  # the polynomial fills both of its cells, so JSON never builds its text
        rows = ((*cells, poly, poly) for cells, poly in polys)
        _render_rows(cfg, rows, columns, lambda row: ",".join(map(str, row[:-2])) + "\t" + str(row[-2]))
        return
    ((cells, poly),) = polys
    value = None if p is None else _digit_checked(f"--eval {p}: the value", lambda: poly(p), (len(poly.coefficients) - 1) * math.log10(p))
    columns += [Column(key, json=None if p is None else _same) for key in ("p", "value")]
    _render_rows(cfg, [(*cells, poly, poly, p, value)], columns, lambda row: str(row[-4]) if p is None else f"{row[-4]}\nat p={p}: {value}")


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
        keys, cells, build = ["nu"], [(nu,) for nu in range(1, top + 1)], lambda nu: typecounts.symbolic_count(nu, nu, nu)
        _note(cfg, "# nu  s(p^nu x p^nu x p^nu)")
    else:
        keys, build = ["nu1", "nu2", "nu3"], typecounts.symbolic_count
        cells = [(nu1, nu2, nu3) for nu3 in range(1, top + 1) for nu2 in range(1, nu3 + 1) for nu1 in range(1, nu2 + 1)]
        _note(cfg, "# nu1 nu2 nu3  s(p^nu1 x p^nu2 x p^nu3)")
    _render_polys(cfg, [*map(Column, keys)], "s_poly", ((key, build(*key)) for key in cells))


def cmd_poly(cfg: OutputConfig, exponents: list[int], eval_p: int | None, closed_form: bool) -> None:
    """Subgroup count of Z_p^NU1 x Z_p^NU2 x Z_p^NU3 as a polynomial in p.

    Pass one exponent for the equal-exponent case or all three.
    """
    if len(exponents) not in (1, 3):
        raise UsageError("pass exactly one exponent or exactly three")
    nu1, nu2, nu3 = exponents * 3 if len(exponents) == 1 else exponents
    if closed_form and not (nu1 == nu2 == nu3):
        raise UsageError("--closed-form needs equal exponents")
    bound = MAX_CLOSED_FORM_EXPONENT if closed_form else MAX_EXPONENT
    if max(exponents) > bound:
        raise UsageError(f"exponents must be <= {bound}{' with --closed-form' * closed_form}, got {max(exponents)}")
    poly = typecounts.general_form(nu1) if closed_form else typecounts.symbolic_count(nu1, nu2, nu3)
    _render_polys(cfg, [*map(Column, ("nu1", "nu2", "nu3"))], "s_poly", [((nu1, nu2, nu3), poly)], True, eval_p)


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
        poly = typecounts.type_count(lam_part, mu_part)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    columns = [Column(key, csv=lambda part: ",".join(map(str, part.parts)), json=lambda part: part.parts) for key in ("lam", "mu")]
    _render_polys(cfg, columns, "poly", [((lam_part, mu_part), poly)], True, eval_p)


def _verify_text(row: tuple) -> str:
    _, rank3_shapes, rank2_shapes, ok, failures = row
    lines = [f"rank-3 groups checked: {rank3_shapes}", f"rank-2 groups checked: {rank2_shapes}"]
    return "\n".join([*lines, *(f"FAIL {failure}" for failure in failures), f"result: {'PASS' if ok else 'FAIL'}"])


def run_lattice_verification(max_order: int, progress: Callable[[str], None] | None = None):
    """verify.run_lattice_verification, loaded on the first call so that no other command compiles verify."""
    from .verify import run_lattice_verification
    return run_lattice_verification(max_order, progress)


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


def cmd_asymptotic(cfg: OutputConfig, x_values: str) -> None:
    """Exact partial sums of s(n) against the main term."""
    xs = _parse_int_list(x_values, "x values")
    if min(xs) < 2:
        raise UsageError("x values must be >= 2")
    if max(xs) > MAX_PARTIAL_SUM_X or sum(x**0.75 for x in set(xs)) > 2 * MAX_PARTIAL_SUM_X**0.75:
        raise UsageError(f"x values must be <= {MAX_PARTIAL_SUM_X}, and their x^(3/4) sum to at most twice {MAX_PARTIAL_SUM_X}^(3/4)")
    from . import asymptotics
    est = asymptotics.h3_and_h3prime()
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

    kind = command("count", cmd_count, "m", "n", "r").add_mutually_exclusive_group()
    kind.add_argument("--order", dest="order_", type=int, metavar="ORDER", help="Count only subgroups of this order.")
    kind.add_argument("--cyclic", action="store_true", help="Count only cyclic subgroups.")
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
