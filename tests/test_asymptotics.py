import csv
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from abelian3.arith import evaluate, multiplicative_stream, primes_up_to, sieve_multiplicative
from abelian3.asymptotics import (
    DIRECT_TERMS,
    DLOG_ZETA2,
    DLOG_ZETA3,
    EULER_GAMMA,
    H_COMPLEMENT,
    S_DIAGONAL,
    ZETA2,
    ZETA3,
    _FIX,
    H3Estimate,
    _euler_route,
    average_order_reports,
    h3_and_h3prime,
    h_values,
    main_term,
    s_partial_sum,
    sieve_s,
)
from abelian3.cli import MAX_PARTIAL_SUM_X, MAX_SIEVE
from abelian3.rank3 import count_total_divisor_sum
from abelian3.typecounts import general_form, h_closed_form, h_recurrence, symbolic_count
from reference import TAU, divisor_sum_check, h3_partial_sum_upper, h3prime_partial_sum

DATA = Path(__file__).parent / "data"

H3_REFERENCE = 4.097828370243545
H3PRIME_REFERENCE = -5.439673428401127
# sum_{n <= x} s(n) as published in the README
PUBLISHED_SUMS = {10**3: 8760275149, 10**4: 11900842447200, 10**5: 15036607291154046}


def euler_coefficients(p):
    """(c2, c3, c4) of the local factor n_p = 1 - c2 x^2 + c3 x^3 - c4 x^4 + p^3 x^6, x = p^-z, of
    h3_and_h3prime's Euler product, for an int or a sympy symbol p. TestDiagonalGeneratingFunction proves them."""
    return 3 * (p * p + p + 1), 2 * (p + 1) ** 3, 3 * (p**3 + p * p + p)


def euler_route(prime_limit):
    """h3, h3prime and their bars as h3_and_h3prime(prime_limit) gives them, without its direct sums."""
    return SimpleNamespace(**dict(zip(H3Estimate._fields, _euler_route(prime_limit))), prime_limit=prime_limit)


@pytest.fixture(scope="module")
def quick_estimate():
    return h3_and_h3prime(prime_limit=1000)


@pytest.fixture(scope="module")
def euler_reference():
    return euler_route(10**6)


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

    def test_stream_in_bounded_memory(self):
        # the stored odd values and the sieve are typed arrays: streaming s to
        # 10^6 raises a fresh interpreter's peak RSS by about 3.1 MB, and by about
        # 12.7 MB with the odd values in a list of ints. (Under tracemalloc, which
        # traces every int the stream boxes, the stream runs 30 times slower.)
        # The peak is Linux's VmHWM, which exec resets; ru_maxrss would keep this
        # process's peak at the fork.
        code = (
            "from abelian3.arith import multiplicative_stream; from abelian3.asymptotics import S_DIAGONAL\n"
            "peak = lambda: int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
            "before = peak(); total = sum(multiplicative_stream(S_DIAGONAL, 10**6)); print(peak() - before, total)"
        )
        grown, total = map(int, subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, timeout=60).stdout.split())
        assert total == s_partial_sum(10**6)
        assert grown < 5 * 1024, grown  # in KiB


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
                assert S_DIAGONAL(p, e) == symbolic_count(e, e, e)(p), (p, e)
                assert H_COMPLEMENT(p, e) == h_recurrence(e)(p), (p, e)

    def test_s_rule_matches_reference_route_up_to_the_partial_sum_bound(self):
        # s_partial_sum evaluates s(p^e) for every p^e <= x
        top = MAX_PARTIAL_SUM_X.bit_length() - 1
        assert top == 29
        for e in range(1, top + 1):
            assert general_form(e) == symbolic_count(e, e, e), e


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
        assert quick_estimate.tail_terms == DIRECT_TERMS == 200_000

    def test_euler_route_stable_under_prime_limit(self, quick_estimate):
        wider = euler_route(5000)
        assert abs(wider.h3 - quick_estimate.h3) < 1e-8
        assert abs(wider.h3prime - quick_estimate.h3prime) < 1e-7

    def test_rounding_ratios_peak_at_two(self):
        # the three ratios the rounding bound of h3_and_h3prime rests on; past
        # the primes walked here each ratio is within 1e-3 of 1
        for p in primes_up_to(10_000):
            c2, c3, c4 = euler_coefficients(p)
            t2, t3, t4, t6 = Fraction(c2, p**6), Fraction(c3, p**9), Fraction(c4, p**12), Fraction(1, p**15)
            small = t3 - t2 - t4 + t6
            slope = 2 * t2 - 3 * t3 + 4 * t4 - 6 * t6
            assert 1 + small >= Fraction(767, 1000) and small < 0 < slope, p
            assert t2 + t3 + t4 + t6 <= Fraction(191, 100) * -small, p
            assert 2 * t2 + 3 * t3 + 4 * t4 + 6 * t6 <= Fraction(267, 100) * slope, p

    def test_bars_enclose_40_digit_product(self):
        # the same truncated product at 40 digits differs from the floats by
        # rounding alone, which the bars must cover on top of the tail
        mpmath = pytest.importorskip("mpmath")
        est = euler_route(100_000)
        with mpmath.workdps(40):
            log_sum = dlog_sum = mpmath.mpf(0)
            for p in primes_up_to(est.prime_limit):
                c2, c3, c4 = euler_coefficients(p)
                local = 1 + mpmath.mpf(-c2 * p**12 + c3 * p**9 - c4 * p**6 + p**3) / p**18
                slope = mpmath.mpf(2 * c2 * p**12 - 3 * c3 * p**9 + 4 * c4 * p**6 - 6 * p**3) / p**18
                log_sum += mpmath.log(local)
                dlog_sum += mpmath.log(p) * slope / local
            h3 = mpmath.zeta(3) ** 4 * mpmath.zeta(2) ** 2 * mpmath.exp(log_sum)
            dlog_zeta = [mpmath.zeta(z, derivative=1) / mpmath.zeta(z) for z in (2, 3)]
            h3prime = h3 * (2 * dlog_zeta[0] + 4 * dlog_zeta[1] + dlog_sum)
            assert abs(est.h3 - h3) <= est.h3_bound
            assert abs(est.h3prime - h3prime) <= est.h3prime_bound

    @pytest.mark.parametrize("length", [DIRECT_TERMS])  # the one length the direct route sums
    def test_direct_sums_equal_buffered_fsum_bit_for_bit(self, length):
        # the reference holds every term and sums them, and their first half, with math.fsum
        terms, log_terms = [], []
        for n, h in enumerate(multiplicative_stream(H_COMPLEMENT, length), 1):
            terms.append(h / n**3)
            log_terms.append(h * math.log(n) / n**3)
        half = length // 2
        h3, h3_half = math.fsum(terms), math.fsum(terms[:half])
        h3prime, h3prime_half = -math.fsum(log_terms), -math.fsum(log_terms[:half])
        est = h3_and_h3prime(prime_limit=100)
        assert est.direct_h3.hex() == h3.hex()
        assert est.direct_h3prime.hex() == h3prime.hex()
        assert est.direct_h3_bound.hex() == (4 * abs(h3 - h3_half)).hex()
        assert est.direct_h3prime_bound.hex() == (4 * abs(h3prime - h3prime_half)).hex()

    @pytest.mark.parametrize("prime_limit", [100, 1000, 10_000])
    def test_bars_enclose_the_constants(self, prime_limit, euler_reference):
        # the reference's bar is far below these, so a bar that misses the
        # constant itself, tail and all, fails here
        est, ref = euler_route(prime_limit), euler_reference
        assert abs(est.h3 - ref.h3) <= est.h3_bound + ref.h3_bound
        assert abs(est.h3prime - ref.h3prime) <= est.h3prime_bound + ref.h3prime_bound

    def test_exact_streamed_sum_equals_fsum_bit_for_bit(self):
        # both routes add int(x * _FIX) per term and divide once; for doubles of
        # 0 or at least 2^-148 in magnitude, signs mixed, that is math.fsum
        rng = random.Random(26)
        for _ in range(2000):
            terms = [rng.choice((-1, 1)) * rng.uniform(1, 2) * 2.0 ** rng.randint(-148, 8) for _ in range(rng.randint(1, 40))]
            terms += [2.0**-148, 0.0, -terms[0]]
            assert (sum(int(x * _FIX) for x in terms) / _FIX).hex() == math.fsum(terms).hex(), terms

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            h3_and_h3prime(prime_limit=50)
        # the direct sums divide by every n^3 up to DIRECT_TERMS as an exact double
        assert DIRECT_TERMS**3 < 2**53


class TestDiagonalGeneratingFunction:
    """sum_nu s(p^nu) x^nu = R = (1 + 2(p+1) x + p x^2) / ((1 - x)^2 (1 - p^2 x)^2) for every nu, and
    what follows from it: general_form's coefficients and the Euler factor n_p. Only the first identity
    rests on a theorem: the Gaussian-binomial count of subgroups by type (Delsarte 1948, Djubjuk 1948,
    Yeh 1948; see Butler, Subgroup lattices and symmetric functions, 1994), which type_count computes
    and which is independent of the paper's divisor sums."""

    # general_form(nu)'s coefficients split by the parity of j: EVEN(nu, k) on p^(2(nu - k)), k = 0..nu,
    # and ODD(nu, k) on p^(2(nu - k) - 1), k = 0..nu - 1
    EVEN = staticmethod(lambda nu, k: (nu - k + 1) * (3 * k + 1))
    ODD = staticmethod(lambda nu, k: (nu - k) * (3 * k + 2))

    @pytest.fixture(scope="class")
    def sympy(self):
        return pytest.importorskip("sympy")

    @pytest.fixture(scope="class")
    def x_p(self, sympy):
        return sympy.symbols("x p")

    def numerator(self, x, p):
        return 1 + 2 * (p + 1) * x + p * x**2

    def rational(self, x, p):
        return self.numerator(x, p) / ((1 - x) ** 2 * (1 - p**2 * x) ** 2)

    def test_type_counts_sum_to_the_rational_function(self, sympy, x_p):
        # For lam = (nu, nu, nu), lam' is (3, ..., 3), and a type mu inside it has mu' a weakly
        # decreasing word over {3, 2, 1, 0} of length nu. type_count's factor at column j is
        # p^(m'(3 - m)) [3 - m', m - m']_p for mu'_j = m and mu'_(j+1) = m' (0 past the word), which
        # is p^(m(3 - m)) inside a run. So each nonempty decreasing set of values m_1 > ... > m_s gives
        # prod_i x / (1 - p^(m_i (3 - m_i)) x) times its transition factors, and nu = 0 gives 1.
        x, p = x_p

        def gaussian(r, k):  # the textbook quotient [r, k]_p, divided exactly
            top = sympy.Poly(sympy.prod([1 - p ** (r - i) for i in range(k)]), p)
            return top.exquo(sympy.Poly(sympy.prod([1 - p ** (i + 1) for i in range(k)]), p)).as_expr()

        denominator = (1 - x) ** 2 * (1 - p**2 * x) ** 2
        total = denominator  # every term times the denominator, which each term's own denominator divides
        for size in range(1, 5):
            for values in combinations((3, 2, 1, 0), size):
                term = denominator
                for m, after in zip(values, values[1:] + (0,)):
                    term = sympy.cancel(term * x / (1 - p ** (m * (3 - m)) * x)) * p ** (after * (3 - m)) * gaussian(3 - after, m - after)
                total += term
        assert sympy.expand(total - self.numerator(x, p)) == 0

    def test_parity_split_is_the_coefficient(self, sympy, x_p):
        # By partial fractions, [x^nu] R = A + B (nu + 1) + (C + D (nu + 1)) p^(2 nu). With y = p^2 and
        # Y = y^nu, S_a = sum_{j <= nu} j^a y^j is (y Y - 1) / (y - 1) for a = 0 and y d/dy S_(a-1)
        # after, where dY/dy = nu Y / y. The even part, with j = nu - k, is sum_j EVEN(nu, nu - j) y^j;
        # the odd part is sum_j ODD(nu, nu - j) y^j / p, whose j = 0 term ODD(nu, nu) is 0.
        x, p = x_p
        y, big_y, nu, j = sympy.symbols("y Y nu j")
        q, r = (p - 1) ** 2 * (p + 1), p**2 + p + 1
        a, b, c, d = 2 * r / (q * (p**2 - 1)), 3 / q, -2 * p**2 * r / (q * (p**2 - 1)), p * r / q
        fractions = a / (1 - x) + b / (1 - x) ** 2 + c / (1 - p**2 * x) + d / (1 - p**2 * x) ** 2
        assert sympy.numer(sympy.together(fractions - self.rational(x, p))).expand() == 0
        sums = [(y * big_y - 1) / (y - 1)]
        for _ in range(2):
            sums.append(y * (sympy.diff(sums[-1], y) + sympy.diff(sums[-1], big_y) * nu * big_y / y))

        def summed(word):
            return sum(coefficient * sums[k] for (k,), coefficient in sympy.Poly(word(nu, nu - j), j).terms())

        split = (summed(self.EVEN) + summed(self.ODD) / p).subs(y, p**2)
        coefficient = a + b * (nu + 1) + (c + d * (nu + 1)) * big_y
        assert sympy.numer(sympy.together(split - coefficient)).expand() == 0

    def test_general_form_has_the_proved_coefficients(self):
        for nu in range(201):
            coefficients = [0] * (2 * nu + 1)
            for k in range(nu + 1):
                coefficients[2 * (nu - k)] = self.EVEN(nu, k)
            for k in range(nu):
                coefficients[2 * (nu - k) - 1] = self.ODD(nu, k)
            assert general_form(nu).coefficients == tuple(coefficients), nu

    def test_euler_factor_and_h(self, sympy, x_p):
        # s = (n^2 tau) * h and sum_i (i + 1) p^(2i) x^i = 1 / (1 - p^2 x)^2, so h's series is
        # R (1 - p^2 x)^2 = N / (1 - x)^2 for the numerator N, whose x^nu coefficient (nu >= 1) is
        # (nu + 1) N_0 + nu N_1 + (nu - 1) N_2. Its Euler factor times (1 - p x)^2 (1 - x)^4, the
        # factors of zeta(z - 1)^2 zeta(z)^4 at x = p^-z, is n_p.
        x, p = x_p
        c2, c3, c4 = euler_coefficients(p)
        n_p = 1 - c2 * x**2 + c3 * x**3 - c4 * x**4 + p**3 * x**6
        assert sympy.expand(sympy.cancel(self.rational(x, p) * (1 - p**2 * x) ** 2 * (1 - p * x) ** 2 * (1 - x) ** 4) - n_p) == 0
        n0, n1, n2 = sympy.Poly(self.numerator(x, p), x).all_coeffs()[::-1]
        for nu in range(1, 201):
            h = sympy.Poly((nu + 1) * n0 + nu * n1 + (nu - 1) * n2, p)
            assert h_closed_form(nu).coefficients == tuple(h.all_coeffs()[::-1]), nu


class TestDirectPartialSums:
    # h > 0, so the direct partial sums of H3 = sum h(n)/n^3 and of
    # -H3' = sum h(n) log(n)/n^3 stay below the constants: the proved Euler
    # bars must leave room for them
    @pytest.fixture(scope="class")
    def estimate(self):
        return h3_and_h3prime()

    def test_h3_partial_sum_below_the_bar(self, estimate):
        assert h3_partial_sum_upper(200_000) <= Fraction(estimate.h3) + Fraction(estimate.h3_bound)

    def test_h3prime_partial_sum_above_the_bar(self, estimate):
        mpmath = pytest.importorskip("mpmath")
        total, margin = h3prime_partial_sum(20_000)
        with mpmath.workdps(60):  # exact for these operands
            assert -total - margin >= mpmath.mpf(estimate.h3prime) - estimate.h3prime_bound


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


def _walked_sums(xs):
    # {x: sum_{n <= x} s(n)} for each x in xs, from one cumulative walk of s
    want = set(xs)
    out = {}
    acc = 0
    for n, s in enumerate(multiplicative_stream(S_DIAGONAL, max(want)), 1):
        acc += s
        if n in want:
            out[n] = acc
    return out


def _edge_checkpoints(top):
    # isqrt(x) and x // isqrt(x) step at k^2 and k (k + 1); every k below 100,
    # then a sparse spread of k (primes among them) up to isqrt(top)
    ks = [*range(1, 100), *range(100, math.isqrt(top), 73), 997, math.isqrt(top)]
    return sorted({x for k in ks for x in (k * k - 1, k * k, k * k + 1, k * (k + 1)) if 1 <= x <= top})


# every proper prime power up to 10^4, then the powers of 2, 3, 5, 7 and the
# squares of the ten largest primes below 1000 up to 10^6
_PRIME_POWERS = sorted(
    {p**e for p in primes_up_to(100) for e in range(2, 14) if p**e <= 10**4}
    | {p**e for p in (2, 3, 5, 7) for e in range(1, 20) if p**e <= 10**6}
    | {p * p for p in primes_up_to(1000)[-10:]}
)


class TestPartialSum:
    @pytest.fixture(scope="class")
    def walked(self):
        return _walked_sums([*_edge_checkpoints(10**6), *_PRIME_POWERS, 10**6])

    def test_every_x_up_to_3000(self):
        acc = 0
        for x, s in enumerate(multiplicative_stream(S_DIAGONAL, 3000), 1):
            acc += s
            assert s_partial_sum(x) == acc, x

    def test_square_edges(self, walked):
        for x in _edge_checkpoints(10**6):
            assert s_partial_sum(x) == walked[x], x

    def test_prime_powers(self, walked):
        for x in _PRIME_POWERS:
            assert s_partial_sum(x) == walked[x], x

    def test_a_million(self, walked):
        assert s_partial_sum(10**6) == walked[10**6] == 18180133262721163994

    def test_rejects_x_below_one(self):
        with pytest.raises(ValueError):
            s_partial_sum(0)


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
        # 2 and 3 are the smallest checkpoints, limit // 2 and its neighbour the
        # edge of the walk's stored odd n; duplicates and unsorted order collapse
        s = [evaluate(S_DIAGONAL, n) for n in range(1, limit + 1)]
        xs = [x for x in (limit, 3, limit // 2 + 1, 2, limit // 2, 3, limit) if 2 <= x <= limit]
        reports = average_order_reports(xs, estimate=quick_estimate)
        assert [rep.x for rep in reports] == sorted(set(xs))
        for rep in reports:
            assert rep.exact_sum == sum(s[: rep.x]), rep.x

    def test_sums_without_holding_the_values(self, quick_estimate):
        # s_partial_sum keeps O(sqrt(x)) prime sums: it never holds the whole
        # table, which sieve_multiplicative has to
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

    def test_ten_million_in_bounded_memory(self, quick_estimate):
        # an O(x) table of s at 10^7 would take well over 100 MB
        tracemalloc.start()
        try:
            (rep,) = average_order_reports([10**7], estimate=quick_estimate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.exact_sum == 21324853476244529645898
        assert peak < 2 * 2**20, peak

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
