"""Seeded workloads for the abelian3 benchmark, with their output checks.

Each workload is a fixed list of CLI command lines (one "pass"). The seed is
the only input; the program sees nothing but the generated command lines.
Every command carries a check that compares its stdout with a reference
computed here before any timing starts:

- subgroup counts come from the Gaussian-binomial route (sum of
  ``typecounts.type_count(lam, mu)(p)`` over the subpartitions ``mu`` of each
  prime's exponent partition ``lam``, multiplied across primes), which shares
  no code with the divisor-triple kernels in ``rank3``;
- factorizations are known by construction (divisors of 720720, and
  semiprimes built from two generated primes), so the program's ``factorize``
  is never used for a reference.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

from abelian3.typecounts import Partition, general_form, subpartitions, type_count

WORKLOADS = ("count-series", "enumerate-verify")

Check = Callable[[bytes], Optional[str]]  # stdout -> error message, or None when correct


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Check
    triples: int = 0  # divisor triples visited by count_total / count_cyclic calls


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    nominal_pass_s: float  # one pass at the seed commit (2-core Xeon); fixes the pass count


# --------------------------------------------------------------------------
# Reference route: Gaussian binomials over exponent partitions.

BASE = 720720  # 2^4 3^2 5 7 11 13
BASE_FACTORS = ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))


def _factor_small(n: int) -> dict[int, int]:
    """Trial division; only called on numbers whose factors are all small."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def tau(factors: dict[int, int]) -> int:
    return math.prod(e + 1 for e in factors.values())


@functools.lru_cache(maxsize=None)
def _local_counts(p: int, lam: tuple[int, ...], order_exp: Optional[int]) -> tuple[int, int, int]:
    """(total, cyclic, sum of orders) of subgroups of the p-group of type lam.

    With order_exp set, only subgroups of order p^order_exp are counted.
    """
    lam_part = Partition(lam)
    total = cyclic = orders = 0
    for mu in subpartitions(lam_part):
        if order_exp is not None and mu.size != order_exp:
            continue
        value = type_count(lam_part, mu)(p)
        total += value
        if len(mu.parts) <= 1:
            cyclic += value
        orders += value * p**mu.size
    return total, cyclic, orders


def reference_counts(
    factored: tuple[dict[int, int], ...], order: Optional[dict[int, int]] = None
) -> tuple[int, int, int]:
    """(total, cyclic, sum of subgroup orders) for the product of cyclic groups.

    ``factored`` holds the factorization of each cyclic factor; with ``order``
    (a factorization) the total counts only subgroups of that order.
    """
    primes = sorted(set().union(*factored))
    total = cyclic = orders = 1
    for p in primes:
        lam = tuple(sorted((f[p] for f in factored if f.get(p)), reverse=True))
        order_exp = None if order is None else order.get(p, 0)
        t, c, o = _local_counts(p, lam, order_exp)
        total, cyclic, orders = total * t, cyclic * c, orders * o
    if order is not None and any(p not in primes for p in order):
        total = 0
    return total, cyclic, orders


def reference_for(group: tuple[int, int, int]) -> tuple[int, int, int]:
    return reference_counts(tuple(_factor_small(x) for x in group))


def _triples(group: tuple[int, ...]) -> int:
    return math.prod(tau(_factor_small(x)) for x in group)


def reference_poly_value(exponents: tuple[int, ...], p: int) -> int:
    """Subgroup count of the p-group with these cyclic exponents, at prime p."""
    lam = tuple(sorted((e for e in exponents if e), reverse=True))
    return _local_counts(p, lam, None)[0] if lam else 1


# --------------------------------------------------------------------------
# Output checks.


def _expect_exact(expected: str) -> Check:
    def check(out: bytes) -> Optional[str]:
        got = out.decode()
        return None if got == expected else f"expected {expected!r}, got {got[:200]!r}"

    return check


_TEXT_ROW = re.compile(
    r"a=(\d+) b=(\d+) c=(\d+) t=(\d+) w=(\d+) z=(\d+) \| "
    r"basis \((\d+),0,0\) \((\d+),(\d+),0\) \((\d+),(\d+),(\d+)\) \| order (\d+)"
)
# Row fields compared across formats: the sextuple, then s, u, v and the order.
ROW_FIELDS = ("a", "b", "c", "t", "w", "z", "s", "u", "v", "order")


def _parse_text_row(line: str) -> tuple[int, ...]:
    match = _TEXT_ROW.match(line)
    if match is None:
        raise ValueError(f"unparsable line {line[:120]!r}")
    a, b, c, t, w, z, a2, s, b2, u, v, c2, order = map(int, match.groups())
    if (a2, b2, c2) != (a, b, c):
        raise ValueError(f"basis does not match the sextuple in {line[:120]!r}")
    return (a, b, c, t, w, z, s, u, v, order)


def _check_stream(rows: list[tuple[int, ...]], expected_count: int) -> Optional[str]:
    if len(rows) != expected_count:
        return f"{len(rows)} subgroup lines, reference count {expected_count}"
    for prev, cur in zip(rows, rows[1:]):
        if cur[:6] <= prev[:6]:
            return f"sextuples not strictly ascending at {cur[:6]}"
    return None


class _RowAgreement:
    """Rows parsed from one format; the other formats must match them field by field."""

    def __init__(self) -> None:
        self.rows: Optional[list[tuple[int, ...]]] = None

    def compare(self, rows: list[tuple[int, ...]], fmt: str) -> Optional[str]:
        if self.rows is None:
            self.rows = rows
            return None
        for i, (want, got) in enumerate(zip(self.rows, rows)):
            if want != got:
                return f"{fmt} row {i} is {got}, other formats give {want}"
        return None


def _enumerate_check(fmt: str, group: tuple[int, int, int], count: int, agree: _RowAgreement) -> Check:
    m, n, r = group

    def check(out: bytes) -> Optional[str]:
        try:
            if fmt == "text":
                lines = out.decode().split("\n")
                header = f"# {count} subgroups of Z_{m} x Z_{n} x Z_{r}"
                if lines[0] != header or lines[-1] != "":
                    return f"text header {lines[0]!r}, expected {header!r}"
                rows = [_parse_text_row(line) for line in lines[1:-1]]
            elif fmt == "json":
                rows = []
                for line in out.decode().splitlines():
                    rec = json.loads(line)
                    if (rec["m"], rec["n"], rec["r"]) != group:
                        return f"json record for the wrong group: {line[:120]}"
                    rows.append(tuple(rec[key] for key in ROW_FIELDS))
            else:
                text = out.decode()
                if not text.endswith("\r\n"):
                    return "csv output does not end in CRLF"
                records = list(csv.reader(text[:-2].split("\r\n")))
                if records[0] != ["m", "n", "r", *ROW_FIELDS[:6], "s", "u", "v", "order"]:
                    return f"csv header {records[0]}"
                rows = []
                for rec in records[1:]:
                    if tuple(map(int, rec[:3])) != group:
                        return f"csv record for the wrong group: {rec}"
                    row = dict(zip(records[0], rec))
                    rows.append(tuple(int(row[key]) for key in ROW_FIELDS))
        except (ValueError, KeyError, IndexError) as exc:
            return f"{fmt}: {exc}"
        return _check_stream(rows, count) or agree.compare(rows, fmt)

    return check


def _elements_check(group: tuple[int, int, int], count: int) -> Check:
    m, n, r = group

    def check(out: bytes) -> Optional[str]:
        lines = out.decode().split("\n")
        header = f"# {count} subgroups of Z_{m} x Z_{n} x Z_{r}"
        if lines[0] != header or lines[-1] != "":
            return f"text header {lines[0]!r}, expected {header!r}"
        rows = []
        for line in lines[1:-1]:
            head, sep, elements = line.partition(" | elements ")
            try:
                row = _parse_text_row(head)
            except ValueError as exc:
                return str(exc)
            shown = elements.split(" ")
            if not sep or len(shown) != row[-1] or len(set(shown)) != len(shown):
                return f"element list does not have {row[-1]} distinct elements: {head}"
            rows.append(row)
        return _check_stream(rows, count)

    return check


def _parse_poly(text: str) -> list[int]:
    """Coefficients of an IntPolynomial rendering such as ``7+5 p-8 p^2+p^3``."""
    coeffs: dict[int, int] = {}
    for term in text.replace("-", "+-").split("+"):
        if not term:
            continue
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("-")
        if "p" not in body:
            coeff, deg = int(body), 0
        else:
            head, _, tail = body.partition("p")
            coeff = int(head) if head.strip() else 1
            deg = int(tail[1:]) if tail.startswith("^") else 1
        coeffs[deg] = coeffs.get(deg, 0) + sign * coeff
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def _eval_poly(coeffs: list[int], p: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def _poly_value_check(p: int, expected: int) -> Check:
    """Two-line ``poly``/``type-count`` output: the polynomial, then its value at p."""

    def check(out: bytes) -> Optional[str]:
        lines = out.decode().split("\n")
        if len(lines) != 3 or lines[2] != "" or lines[1] != f"at p={p}: {expected}":
            return f"expected value {expected} at p={p}, got {out[:200]!r}"
        if _eval_poly(_parse_poly(lines[0]), p) != expected:
            return f"polynomial {lines[0]!r} does not evaluate to {expected} at p={p}"
        return None

    return check


def _table2_check(limit: int) -> Check:
    expected = "# nu  s(p^nu x p^nu x p^nu)\n" + "".join(
        f"{nu}\t{general_form(nu)}\n" for nu in range(1, limit + 1)
    )
    return _expect_exact(expected)


def _table3_check(limit: int, p: int) -> Check:
    shapes = [
        (nu1, nu2, nu3)
        for nu3 in range(1, limit + 1)
        for nu2 in range(1, nu3 + 1)
        for nu1 in range(1, nu2 + 1)
    ]
    values = [reference_poly_value(shape, p) for shape in shapes]

    def check(out: bytes) -> Optional[str]:
        lines = out.decode().split("\n")
        if lines[0] != "# nu1 nu2 nu3  s(p^nu1 x p^nu2 x p^nu3)" or len(lines) != len(shapes) + 2:
            return f"table 3 has {len(lines) - 2} rows, expected {len(shapes)}"
        for line, shape, value in zip(lines[1:], shapes, values):
            label, _, poly = line.partition("\t")
            if label != ",".join(map(str, shape)) or _eval_poly(_parse_poly(poly), p) != value:
                return f"table 3 row {line!r}: expected {value} at p={p}"
        return None

    return check


# Exact partial sums of s(n) published in the README.
PUBLISHED_SUMS = {1000: 8760275149, 10_000: 11900842447200, 100_000: 15036607291154046}
_CONSTANT_LINE = re.compile(r"(H3'?) *= (\S+) \(\+- (\S+)\); direct (\S+) \(\+- (\S+)\)")


def _asymptotic_check(xs: tuple[int, ...]) -> Check:
    def check(out: bytes) -> Optional[str]:
        lines = out.decode().split("\n")
        constants = [_CONSTANT_LINE.match(line) for line in lines[:2]]
        if None in constants:
            return f"unparsable constants header {lines[:2]}"
        for match in constants:
            name, value, bar, direct, direct_bar = match.groups()
            if abs(float(value) - float(direct)) > float(bar) + float(direct_bar):
                return f"{name} routes disagree beyond their bars: {match.group(0)}"
        rows = [line.split("\t") for line in lines[4:-1]]
        if [int(row[0]) for row in rows] != list(xs):
            return f"checkpoints {[row[0] for row in rows]}, expected {list(xs)}"
        for row in rows:
            want = PUBLISHED_SUMS.get(int(row[0]))
            if want is not None and int(row[1]) != want:
                return f"partial sum at x={row[0]} is {row[1]}, published {want}"
        return None

    return check


# --------------------------------------------------------------------------
# Generators.


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_from(start: int) -> int:
    while not _is_prime(start):
        start += 1
    return start


def _base_divisors() -> list[dict[int, int]]:
    divs: list[dict[int, int]] = [{}]
    for p, e in BASE_FACTORS:
        divs = [{**d, p: k} if k else d for d in divs for k in range(e + 1)]
    return divs


def _value(factors: dict[int, int]) -> int:
    return math.prod(p**e for p, e in factors.items())


# count queries: every total / cyclic query visits TRIPLES_PER_QUERY divisor
# triples to within TRIPLE_SLACK, so a pass totals ~1e6 triples on every seed.
# Each of m, n, r has at least MIN_TAU divisors: count_total also calls
# divisors(r) once per pair (a, b), and balanced shapes keep that share of a
# query's cost from varying with the seed.
TRIPLES_PER_QUERY = 125_000
TRIPLE_SLACK = 0.02
MIN_TAU = 36
# Both factors of each semiprime lie in [1e6, 1e7]; the smaller one is at least
# SEMIPRIME_SMALL_MIN. Trial division runs up to the smaller factor, so these
# queries cost about as much as a total query, sit on the latency tail, and do
# not move the median from seed to seed.
SEMIPRIME_FACTOR_RANGE = (1_000_000, 10_000_000)
SEMIPRIME_SMALL_MIN = 8_000_000


def _count_mix(rng: random.Random) -> list[Command]:
    divs = _base_divisors()
    by_tau: dict[int, list[dict[int, int]]] = {}
    for d in divs:
        by_tau.setdefault(tau(d), []).append(d)
    taus = sorted(by_tau)
    lo, hi = TRIPLES_PER_QUERY * (1 - TRIPLE_SLACK), TRIPLES_PER_QUERY * (1 + TRIPLE_SLACK)
    shapes = [
        (x, y, z) for x in taus for y in taus for z in taus if lo <= x * y * z <= hi and min(x, y, z) >= MIN_TAU
    ]

    used: set[tuple[int, int, int]] = set()

    def pick_group(tau_shape: Optional[tuple[int, int, int]]) -> tuple[dict[int, int], ...]:
        while True:
            if tau_shape is None:
                factored = tuple(rng.choice(divs) for _ in range(3))
            else:
                factored = tuple(rng.choice(by_tau[t]) for t in tau_shape)
            group = tuple(_value(f) for f in factored)
            if group not in used:
                used.add(group)
                return factored

    commands = []
    for kind in ("total", "cyclic"):
        for _ in range(4):
            factored = pick_group(rng.choice(shapes))
            group = tuple(_value(f) for f in factored)
            total, cyclic, _ = reference_counts(factored)
            flag = ("--cyclic",) if kind == "cyclic" else ()
            commands.append(
                Command(
                    args=("count", *map(str, group), *flag),
                    check=_expect_exact(f"{total if kind == 'total' else cyclic}\n"),
                    triples=math.prod(tau(f) for f in factored),
                )
            )
    for _ in range(4):
        factored = pick_group(None)
        group = tuple(_value(f) for f in factored)
        # a random subgroup shape gives an order that divides m n r
        order: dict[int, int] = {}
        for f in factored:
            for p, e in f.items():
                k = rng.randint(0, e)
                if k:
                    order[p] = order.get(p, 0) + k
        total, _, _ = reference_counts(factored, order)
        commands.append(
            Command(
                args=("count", *map(str, group), "--order", str(_value(order))),
                check=_expect_exact(f"{total}\n"),
            )
        )
    hi_f = SEMIPRIME_FACTOR_RANGE[1] - 1000  # room for _prime_from to step past the start
    for _ in range(2):
        small = _prime_from(rng.randrange(SEMIPRIME_SMALL_MIN, hi_f - 1000))
        large = _prime_from(rng.randrange(small + 1, hi_f))
        commands.append(
            Command(args=("count", str(small * large), "1", "1"), check=_expect_exact("4\n"), triples=4)
        )
    return commands


# enumeration: entries are two-digit divisors of 720720, so the sextuple and
# basis fields of a row have at most two digits on every seed;
# the group's subgroup count lies in STREAM_BAND, and the --elements group
# (m n r <= 4096) has a total element count (sum of subgroup orders) in
# ELEMENTS_BAND.
STREAM_BAND = (57_000, 63_000)
ELEMENTS_BAND = (180_000, 220_000)
ELEMENT_BOUND = 4096


def _stream_candidates() -> list[tuple[int, int, int]]:
    entries = [d for d in range(12, 100) if BASE % d == 0]
    out = []
    for i, m in enumerate(entries):
        for j in range(i, len(entries)):
            n = entries[j]
            for r in entries[j:]:
                if STREAM_BAND[0] <= reference_for((m, n, r))[0] <= STREAM_BAND[1]:
                    out.append((m, n, r))
    return out


def _elements_candidates() -> list[tuple[int, int, int]]:
    out = []
    for m in range(2, ELEMENT_BOUND + 1):
        if m**3 > ELEMENT_BOUND:
            break
        for n in range(m, math.isqrt(ELEMENT_BOUND // m) + 1):
            for r in range(n, ELEMENT_BOUND // (m * n) + 1):
                if ELEMENTS_BAND[0] <= reference_for((m, n, r))[2] <= ELEMENTS_BAND[1]:
                    out.append((m, n, r))
    return out


def _enumerate_stream(rng: random.Random) -> list[Command]:
    group = rng.choice(_stream_candidates())
    count = reference_for(group)[0]
    agree = _RowAgreement()
    commands = [
        Command(
            args=("--format", fmt, "enumerate", *map(str, group)),
            check=_enumerate_check(fmt, group, count, agree),
            triples=_triples(group),  # the header's count_total call
        )
        for fmt in ("text", "json", "csv")
    ]
    elements_group = rng.choice(_elements_candidates())
    elements_count = reference_for(elements_group)[0]
    commands.append(
        Command(
            args=("enumerate", *map(str, elements_group), "--elements"),
            check=_elements_check(elements_group, elements_count),
            triples=_triples(elements_group),
        )
    )
    return commands


VERIFY_MAX_ORDER = 60


def _verify_lattice() -> Command:
    """``verify --max-order 60``: deterministic, so it takes no seed."""
    top = VERIFY_MAX_ORDER
    rank3_shapes = [
        (m, n, r) for m in range(1, top + 1) for n in range(1, top // m + 1) for r in range(1, top // (m * n) + 1)
    ]
    rank2_shapes = sum(1 for m in range(1, top + 1) for n in range(1, top // m + 1))
    expected = (
        f"rank-3 groups checked: {len(rank3_shapes)}\n"
        f"rank-2 groups checked: {rank2_shapes}\n"
        "result: PASS\n"
    )
    triples = sum(_triples(shape) for shape in rank3_shapes)
    return Command(args=("verify", "--max-order", str(top)), check=_expect_exact(expected), triples=triples)


ASYMPTOTIC_XS = (1000, 10_000, 100_000, 1_000_000)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _random_partition(rng: random.Random, parts: int, top: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(1, top) for _ in range(parts)), reverse=True))


def _series(rng: random.Random) -> list[Command]:
    commands = [
        Command(
            args=("asymptotic", "--x-values", ",".join(map(str, ASYMPTOTIC_XS))),
            check=_asymptotic_check(ASYMPTOTIC_XS),
        ),
        Command(args=("table", "2", "--limit", "30"), check=_table2_check(30)),
        Command(args=("table", "3", "--limit", "8"), check=_table3_check(8, 2)),
    ]
    nu, p = rng.randint(4, 12), rng.choice(SMALL_PRIMES)
    commands.append(
        Command(
            args=("poly", str(nu), "--closed-form", "--eval", str(p)),
            check=_poly_value_check(p, reference_poly_value((nu, nu, nu), p)),
        )
    )
    exps, p = tuple(rng.randint(1, 8) for _ in range(3)), rng.choice(SMALL_PRIMES)
    commands.append(
        Command(
            args=("poly", *map(str, exps), "--eval", str(p)),
            check=_poly_value_check(p, reference_poly_value(exps, p)),
        )
    )
    for _ in range(2):
        lam = _random_partition(rng, 3, 6)
        mu = rng.choice(list(subpartitions(Partition(lam))))
        p = rng.choice(SMALL_PRIMES)
        # type_count is itself the Gaussian-binomial route, so this checks the
        # CLI's parsing and rendering rather than an independent count.
        value = type_count(Partition(lam), mu)(p)
        commands.append(
            Command(
                args=("type-count", ",".join(map(str, lam)), ",".join(map(str, mu.parts)) or "0", "--eval", str(p)),
                check=_poly_value_check(p, value),
            )
        )
    return commands


def _count_series(rng: random.Random) -> list[Command]:
    """Counting: the count queries, then the series commands."""
    return _count_mix(rng) + _series(rng)


def _enumerate_verify(rng: random.Random) -> list[Command]:
    """Listing: the enumeration streams, then the lattice verification."""
    return _enumerate_stream(rng) + [_verify_lattice()]


_GENERATORS = {
    "count-series": (_count_series, 14.4),
    "enumerate-verify": (_enumerate_verify, 12.3),
}


def build(name: str, seed: int) -> Workload:
    """The workload's command lines and checks; the same seed gives the same lines."""
    generate, nominal = _GENERATORS[name]
    commands = generate(random.Random(f"{name}:{seed}"))
    return Workload(name=name, commands=tuple(commands), nominal_pass_s=nominal)
