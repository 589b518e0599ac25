"""Whole-package acceptance checks.

One test per numbered criterion. Each prints a single verdict line of the
form "[acceptance] NN name: PASS" with capture suspended so the verdicts
reach the terminal even on green runs; stated runtime ceilings are asserted
with perf_counter around the timed work. Reference values live in
tests/data/.
"""

import math
import random
import time
from contextlib import contextmanager
from csv import DictReader
from pathlib import Path

import pytest

from abelian3.arith import (
    PILLAI,
    odd_spf_sieve,
    sieve_multiplicative,
)
from abelian3.asymptotics import (
    _euler_route,
    average_order_reports,
    h3_and_h3prime,
    h_values,
    sieve_s,
)
from abelian3.cli import run_lattice_verification
from abelian3.rank3 import (
    count_by_order,
    count_total,
    count_total_divisor_sum,
    subgroup_stream,
)
from abelian3.typecounts import (
    Partition,
    gaussian_binomial,
    general_form,
    h_closed_form,
    h_recurrence,
    subpartitions,
    symbolic_count,
    type_count,
)
from reference import TAU, count_cyclic_divisor_sum, gcd_sum_direct

DATA = Path(__file__).parent / "data"


@pytest.fixture(name="criterion")
def criterion_fixture(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    @contextmanager
    def criterion(number: int, name: str):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            line = f"[acceptance] {number:02d} {name}: {verdict}"
            if capman is None:
                print(line, flush=True)
            else:
                with capman.global_and_fixture_disabled():
                    print(line, flush=True)

    return criterion


def read_rows(name: str) -> list[dict]:
    with open(DATA / name, newline="") as handle:
        return list(DictReader(handle))


def test_01_diagonal_value_table(criterion):
    with criterion(1, "table-1-values"):
        start = time.perf_counter()
        values = sieve_s(50)
        rows = read_rows("table1.csv")
        assert len(rows) == 50
        for row in rows:
            assert values[int(row["n"])] == int(row["s"]), row
        assert values[12] == 3612
        assert values[36] == 57405
        assert values[48] == 122836
        assert time.perf_counter() - start < 1.0


def test_02_diagonal_polynomial_table(criterion):
    with criterion(2, "table-2-polynomials"):
        start = time.perf_counter()
        rows = read_rows("table2.csv")
        assert [int(row["nu"]) for row in rows] == list(range(1, 11))
        for row in rows:
            nu = int(row["nu"])
            assert str(symbolic_count(nu, nu, nu)) == row["s_poly"], nu
        top = symbolic_count(10, 10, 10)
        assert len(top.coefficients) == 21
        assert top.coefficients[-1] == 11
        assert time.perf_counter() - start < 5.0


def test_03_mixed_polynomial_table(criterion):
    with criterion(3, "table-3-polynomials"):
        start = time.perf_counter()
        rows = read_rows("table3.csv")
        assert len(rows) == 20
        seen = set()
        for row in rows:
            nus = int(row["nu1"]), int(row["nu2"]), int(row["nu3"])
            assert str(symbolic_count(*nus)) == row["s_poly"], nus
            seen.add(nus)
        want = {
            (n1, n2, n3)
            for n3 in range(1, 5)
            for n2 in range(1, n3 + 1)
            for n1 in range(1, n2 + 1)
        }
        assert seen == want
        assert time.perf_counter() - start < 1.0


def test_04_lattice_oracle_equivalence(criterion):
    with criterion(4, "oracle-equivalence"):
        start = time.perf_counter()
        report = run_lattice_verification(120)
        elapsed = time.perf_counter() - start
        assert report.ok, report.failures[:5]
        assert report.rank3_shapes == 1900
        assert report.rank2_shapes == 602
        assert elapsed < 30.0


def test_05_closed_form_identity(criterion):
    with criterion(5, "closed-form-identity"):
        start = time.perf_counter()
        for nu in range(1, 13):
            assert general_form(nu) == symbolic_count(nu, nu, nu), nu
        assert time.perf_counter() - start < 10.0


def test_06_gaussian_order_consistency(criterion):
    with criterion(6, "gaussian-order-consistency"):
        for p in (2, 3, 5, 7):
            group = (p, p, p)
            total = 0
            for k in range(4):
                want = gaussian_binomial(3, k)(p)
                assert count_by_order(group, p**k) == want, (p, k)
                total += want
            assert count_total(group) == total == 2 * (p * p + p + 2)


def _bounded_partitions() -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for a in range(1, 4):
        out.append((a,))
        for b in range(1, a + 1):
            out.append((a, b))
            for c in range(1, b + 1):
                out.append((a, b, c))
    return out


def test_07_type_count_cross_check(criterion):
    with criterion(7, "type-count-cross-check"):
        for parts in _bounded_partitions():
            lam = Partition(parts)
            padded = (list(parts) + [0, 0, 0])[:3]
            for p in (2, 3):
                group = (p ** padded[0], p ** padded[1], p ** padded[2])
                by_size: dict[int, int] = {}
                for mu in subpartitions(lam):
                    value = type_count(lam, mu)(p)
                    by_size[mu.size] = by_size.get(mu.size, 0) + value
                assert set(by_size) == set(range(lam.size + 1))
                for k, total in by_size.items():
                    assert total == count_by_order(group, p**k), (parts, p, k)
                assert sum(by_size.values()) == count_total(group)


def test_08_multiplicativity_suite(criterion):
    with criterion(8, "multiplicativity-suite"):
        rng = random.Random(89221)
        limit = 10_000

        # three-variable multiplicativity on 100 seeded coprime group pairs
        checked = 0
        while checked < 100:
            g1 = (rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30))
            g2 = (rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30))
            if math.gcd(g1[0] * g1[1] * g1[2], g2[0] * g2[1] * g2[2]) != 1:
                continue
            joint = (g1[0] * g2[0], g1[1] * g2[1], g1[2] * g2[2])
            product = count_total_divisor_sum(g1) * count_total_divisor_sum(g2)
            assert count_total_divisor_sum(joint) == product, (g1, g2)
            checked += 1

        spf = odd_spf_sieve(limit)

        def canonical_split(n: int) -> tuple[int, int]:
            p = (spf[n // 2] or n) if n % 2 else 2
            block = 1
            while n % p == 0:
                n //= p
                block *= p
            return block, n

        def coprime_pairs(count: int) -> list[tuple[int, int]]:
            pairs = []
            while len(pairs) < count:
                u = rng.randint(2, 99)
                v = rng.randint(2, limit // u)
                if math.gcd(u, v) == 1:
                    pairs.append((u, v))
            return pairs

        # s: the multiplicative sieve against the direct divisor-triple route,
        # exhaustively low and sampled across the full range
        svals = sieve_s(limit)
        for n in range(1, 401):
            assert count_total_divisor_sum((n, n, n)) == svals[n], n
        for n in rng.sample(range(401, limit + 1), 60):
            assert count_total_divisor_sum((n, n, n)) == svals[n], n
        for u, v in coprime_pairs(40):
            direct = count_total_divisor_sum((u * v, u * v, u * v))
            product = count_total_divisor_sum((u, u, u)) * count_total_divisor_sum((v, v, v))
            assert direct == product, (u, v)

        # c: the divisor-sum route is not multiplicative by construction, so
        # the identity itself is the check
        for n in range(2, 401):
            u, v = canonical_split(n)
            if v > 1:
                lhs = count_cyclic_divisor_sum((n, n, n))
                product = count_cyclic_divisor_sum((u, u, u)) * count_cyclic_divisor_sum((v, v, v))
                assert lhs == product, n
        for u, v in coprime_pairs(40):
            lhs = count_cyclic_divisor_sum((u * v, u * v, u * v))
            product = count_cyclic_divisor_sum((u, u, u)) * count_cyclic_divisor_sum((v, v, v))
            assert lhs == product, (u, v)

        # P: brute-force gcd sums against the multiplicative evaluation
        pvals = sieve_multiplicative(PILLAI, 3000)
        for n in range(1, 3001):
            assert gcd_sum_direct(n) == pvals[n], n
        for u, v in coprime_pairs(100):
            assert gcd_sum_direct(u * v) == gcd_sum_direct(u) * gcd_sum_direct(v), (u, v)

        # h: deconvolve s = (n^2 tau) * h with no multiplicativity assumption,
        # then check every n <= 10^4 against its canonical coprime split
        hvals = h_values(limit)
        tau = sieve_multiplicative(TAU, limit)
        divisor_lists: list[list[int]] = [[] for _ in range(limit + 1)]
        for d in range(2, limit + 1):
            for mult in range(d, limit + 1, d):
                divisor_lists[mult].append(d)
        h_direct = [0] * (limit + 1)
        h_direct[1] = 1
        for n in range(2, limit + 1):
            acc = svals[n]
            for d in divisor_lists[n]:
                acc -= d * d * tau[d] * h_direct[n // d]
            h_direct[n] = acc
        assert h_direct == hvals
        for n in range(2, limit + 1):
            u, v = canonical_split(n)
            if v > 1:
                assert h_direct[n] == h_direct[u] * h_direct[v], n


def test_09_convolution_identity(criterion):
    with criterion(9, "convolution-identity"):
        x = 10_000
        svals = sieve_s(x)
        hvals = h_values(x)
        tau = sieve_multiplicative(TAU, x)
        conv = [0] * (x + 1)
        for d in range(1, x + 1):
            weight = d * d * tau[d]
            for mult in range(d, x + 1, d):
                conv[mult] += weight * hvals[mult // d]
        assert conv[1:] == svals[1:]
        for nu in range(1, 11):
            closed = h_closed_form(nu)
            recurred = h_recurrence(nu)
            for p in (2, 3, 5, 7, 11, 13):
                assert closed(p) == recurred(p), (nu, p)


def test_10_average_order_convergence(criterion):
    with criterion(10, "asymptotic-behavior"):
        start = time.perf_counter()
        est = h3_and_h3prime(prime_limit=100_000)
        assert abs(est.h3 - est.direct_h3) <= est.h3_bound + est.direct_h3_bound
        assert (
            abs(est.h3prime - est.direct_h3prime)
            <= est.h3prime_bound + est.direct_h3prime_bound
        )
        narrow_h3, *_ = _euler_route(10_000)
        assert abs(narrow_h3 - est.h3) < 1e-9
        reports = average_order_reports(
            [10**3, 10**4, 10**5, 10**6], estimate=est
        )
        errors = [rep.relative_error for rep in reports]
        assert all(late < early for early, late in zip(errors, errors[1:])), errors
        assert errors[-1] < 0.01
        assert time.perf_counter() - start < 120.0


def test_11_performance_floor(criterion):
    with criterion(11, "performance-floor"):
        start = time.perf_counter()
        values = sieve_s(1_000_000)
        sieve_elapsed = time.perf_counter() - start
        assert values[999_983] == 2 * 999_983**2 + 2 * 999_983 + 4  # prime p
        assert sieve_elapsed < 10.0

        start = time.perf_counter()
        total = count_total((2**20, 3**13, 5**9))
        count_elapsed = time.perf_counter() - start
        assert total > 0
        assert count_elapsed < 1.0

        start = time.perf_counter()
        semiprime_total = count_total((100000000003 * 999999999989, 1, 1))  # two 12-digit primes
        semiprime_elapsed = time.perf_counter() - start
        assert semiprime_total == 4
        assert semiprime_elapsed < 1.0

        start = time.perf_counter()
        walked = sum(1 for _ in subgroup_stream((60, 60, 60)))
        walk_elapsed = time.perf_counter() - start
        assert walked == 231_168
        assert walk_elapsed < 2.5
