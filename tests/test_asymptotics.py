import csv
import math
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest

from abelian3.arith import TAU, evaluate, sieve_multiplicative
from abelian3.asymptotics import (
    DLOG_ZETA2,
    DLOG_ZETA3,
    EULER_GAMMA,
    H_COMPLEMENT,
    S_DIAGONAL,
    ZETA2,
    ZETA3,
    average_order_reports,
    divisor_sum_check,
    h3_and_h3prime,
    h_values,
    main_term,
    sieve_s,
)
from abelian3.cli import MAX_SIEVE
from abelian3.rank3 import count_total_divisor_sum
from abelian3.typecounts import general_form, h_closed_form, h_recurrence, symbolic_count

DATA = Path(__file__).parent / "data"

H3_REFERENCE = 4.097828370243545
H3PRIME_REFERENCE = -5.439673428401127
# sum_{n <= x} s(n) as published in the README
PUBLISHED_SUMS = {10**3: 8760275149, 10**4: 11900842447200, 10**5: 15036607291154046}


@pytest.fixture(scope="module")
def quick_estimate():
    return h3_and_h3prime(prime_limit=1000, tail_terms=20000)


class TestSieveS:
    def test_matches_reference_table(self):
        values = sieve_s(50)
        with open(DATA / "table1.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                assert values[int(row["n"])] == int(row["s"]), row

    def test_matches_divisor_triple_route(self):
        values = sieve_s(30)
        for n in range(1, 31):
            assert values[n] == count_total_divisor_sum((n, n, n)), n

    def test_zero_slot(self):
        assert sieve_s(3) == [0, 1, 16, 28]


class TestHValues:
    def test_first_values(self):
        assert h_values(6) == [0, 1, 8, 10, 17, 14, 80]

    def test_prime_powers_match_polynomial_route(self):
        limit = 3**6
        values = h_values(limit)
        for p in (2, 3, 5, 7, 11, 13):
            for nu in range(1, 7):
                q = p**nu
                if q > limit:
                    break
                assert values[q] == h_recurrence(nu)(p), (p, nu)

    def test_multiplicative(self):
        values = h_values(1000)
        for a, b in [(4, 3), (8, 9), (5, 7), (27, 25), (16, 11)]:
            assert values[a * b] == values[a] * values[b], (a, b)

    def test_prime_rule_via_evaluate(self):
        for p in (2, 3, 5, 101):
            assert evaluate(H_COMPLEMENT, p) == 2 * p + 4


class TestPrimePowerRules:
    def test_rules_match_reference_routes_up_to_the_sieve_bound(self):
        top = MAX_SIEVE.bit_length() - 1  # the largest e with 2^e <= MAX_SIEVE
        assert top == 23
        for e in range(1, top + 1):
            assert general_form(e) == symbolic_count(e, e, e), e
            assert h_closed_form(e) == h_recurrence(e), e
            for p in (2, 3, 5, 7, 101):
                assert S_DIAGONAL.prime_power_rule(p, e) == symbolic_count(e, e, e)(p), (p, e)
                assert H_COMPLEMENT.prime_power_rule(p, e) == h_recurrence(e)(p), (p, e)


class TestConvolution:
    def test_h_complements_weighted_tau(self):
        limit = 2000
        s = sieve_s(limit)
        h = h_values(limit)
        tau = sieve_multiplicative(TAU, limit)
        for n in range(1, limit + 1):
            acc = 0
            d = 1
            while d * d <= n:
                if n % d == 0:
                    e = n // d
                    acc += d * d * tau[d] * h[e]
                    if e != d:
                        acc += e * e * tau[e] * h[d]
                d += 1
            assert acc == s[n], n


class TestConstants:
    def test_reference_values(self, quick_estimate):
        assert abs(quick_estimate.h3 - H3_REFERENCE) < 1e-5
        assert abs(quick_estimate.h3prime - H3PRIME_REFERENCE) < 1e-4

    def test_routes_agree_within_bounds(self, quick_estimate):
        est = quick_estimate
        assert abs(est.h3 - est.direct_h3) <= est.h3_bound + est.direct_h3_bound
        assert (
            abs(est.h3prime - est.direct_h3prime)
            <= est.h3prime_bound + est.direct_h3prime_bound
        )

    def test_signs_and_bounds(self, quick_estimate):
        est = quick_estimate
        assert est.h3 > 4
        assert est.h3prime < 0
        assert est.direct_h3 > 4
        assert est.direct_h3prime < 0
        # proved Euler tails are tiny; empirical direct tails are looser
        assert 0 < est.h3_bound < 1e-6
        assert 0 < est.h3prime_bound < 1e-5
        assert 0 < est.direct_h3_bound < 0.01
        assert 0 < est.direct_h3prime_bound < 0.1

    def test_parameters_echoed(self, quick_estimate):
        assert quick_estimate.prime_limit == 1000
        assert quick_estimate.tail_terms == 20000

    def test_euler_route_stable_under_prime_limit(self, quick_estimate):
        wider = h3_and_h3prime(prime_limit=5000, tail_terms=16)
        assert abs(wider.h3 - quick_estimate.h3) < 1e-8
        assert abs(wider.h3prime - quick_estimate.h3prime) < 1e-7

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            h3_and_h3prime(prime_limit=50)
        with pytest.raises(ValueError):
            h3_and_h3prime(tail_terms=8)


class TestZetaLiterals:
    def test_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            assert ZETA2 == float(mpmath.zeta(2))
            assert ZETA3 == float(mpmath.zeta(3))
            assert DLOG_ZETA2 == float(mpmath.zeta(2, derivative=1) / mpmath.zeta(2))
            assert DLOG_ZETA3 == float(mpmath.zeta(3, derivative=1) / mpmath.zeta(3))


class TestMainTerm:
    def test_formula_instantiation(self):
        x = 100
        want = x**3 / 3 * (math.log(x) + 2 * EULER_GAMMA - 1 / 3)
        assert main_term(x, 1.0, 0.0) == pytest.approx(want, rel=1e-15)
        want2 = x**3 / 3 * (2.0 * (math.log(x) + 2 * EULER_GAMMA - 1 / 3) + 3.0)
        assert main_term(x, 2.0, 3.0) == pytest.approx(want2, rel=1e-15)

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            main_term(1, 1.0, 0.0)


class TestReports:
    def test_exact_sums_and_accuracy(self, quick_estimate):
        reports = average_order_reports([100, 1000], estimate=quick_estimate)
        assert [rep.x for rep in reports] == [100, 1000]
        values = sieve_s(1000)
        assert reports[0].exact_sum == sum(values[: 100 + 1])
        assert reports[1].exact_sum == sum(values)
        for rep in reports:
            want = main_term(rep.x, quick_estimate.h3, quick_estimate.h3prime)
            assert rep.main_term == want
        assert reports[0].relative_error < 0.05
        assert reports[1].relative_error < 0.005
        assert reports[1].relative_error < reports[0].relative_error

    def test_published_sums(self, quick_estimate):
        reports = average_order_reports([*PUBLISHED_SUMS], estimate=quick_estimate)
        assert {rep.x: rep.exact_sum for rep in reports} == PUBLISHED_SUMS

    def test_published_sums_by_convolution(self):
        # sum_{n <= x} s(n) = sum_{d <= x} h(d) W(x // d) with W(q) = sum_{k <= q}
        # k^2 tau(k), from the hyperbola identity in divisor_sum_check
        weighted = lru_cache(maxsize=None)(lambda q: divisor_sum_check(q).weighted_exact if q > 1 else 1)
        for x, want in PUBLISHED_SUMS.items():
            assert sum(evaluate(H_COMPLEMENT, d) * weighted(x // d) for d in range(1, x + 1)) == want, x

    @pytest.mark.parametrize("limit", [2, 3, 1000, 1001])
    def test_checkpoints_at_the_walk_edges(self, quick_estimate, limit):
        # 2 and 3 are the first values walked, limit // 2 the last stored odd
        # n or its neighbour; duplicates and unsorted order collapse
        s = [evaluate(S_DIAGONAL, n) for n in range(1, limit + 1)]
        xs = [x for x in (limit, 3, limit // 2 + 1, 2, limit // 2, 3, limit) if 2 <= x <= limit]
        reports = average_order_reports(xs, estimate=quick_estimate)
        assert [rep.x for rep in reports] == sorted(set(xs))
        for rep in reports:
            assert rep.exact_sum == sum(s[: rep.x]), rep.x

    def test_sums_without_holding_the_values(self, quick_estimate):
        # the partial sums are added up as s is walked: they never hold the
        # whole table, which sieve_multiplicative has to
        def peak(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        streamed = peak(lambda: average_order_reports([10**5], estimate=quick_estimate))
        tabulated = peak(lambda: sieve_multiplicative(S_DIAGONAL, 10**5))
        assert streamed < tabulated / 2, (streamed, tabulated)

    def test_duplicates_collapse(self, quick_estimate):
        reports = average_order_reports([500, 100, 500], estimate=quick_estimate)
        assert [rep.x for rep in reports] == [100, 500]

    def test_error_exponent_below_full_order(self, quick_estimate):
        (rep,) = average_order_reports([2000], estimate=quick_estimate)
        # error should grow strictly slower than the x^3 main term
        assert rep.error_exponent_estimate < 2.9

    def test_rejects_bad_x_values(self, quick_estimate):
        with pytest.raises(ValueError):
            average_order_reports([], estimate=quick_estimate)
        with pytest.raises(ValueError):
            average_order_reports([1, 10], estimate=quick_estimate)


class TestDivisorSumCheck:
    def test_small_exact_values(self):
        assert divisor_sum_check(100).tau_exact == 482
        assert divisor_sum_check(10).weighted_exact == 1266

    def test_main_terms_close(self):
        check = divisor_sum_check(10_000)
        assert check.tau_relative_error < 1e-3
        assert check.weighted_relative_error < 1e-3

    def test_errors_shrink(self):
        small = divisor_sum_check(100)
        large = divisor_sum_check(10_000)
        assert large.tau_relative_error < small.tau_relative_error
        assert large.weighted_relative_error < small.weighted_relative_error

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            divisor_sum_check(1)
