"""Average order of the diagonal subgroup count s(n) (subgroups of
Z_n x Z_n x Z_n).

s splits as the Dirichlet convolution s = (n^2 tau(n)) * h with h
multiplicative and small, and the partial sums obey

    sum_{n <= x} s(n) = (x^3 / 3) (H3 (log x + 2 gamma - 1/3) + H3') + error,

where H3 = sum_n h(n)/n^3 and H3' is the z-derivative of sum_n h(n)/n^z at
z = 3. This module computes the pair two independent ways (an accelerated
Euler product with proved bounds, and direct series sums with an
empirical tail estimate), exposes exact sieves for s and h, and sets the
main term against exact partial sums that s_partial_sum takes sublinearly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .arith import iter_primes, multiplicative_stream, primes_up_to, sieve_multiplicative
from .typecounts import general_form

# Exact streamed sums: for a double x = 0 or |x| >= 2^-148, x * _FIX is an integer, so an
# int total of int(x * _FIX) is exact, and total / _FIX rounds it once, as math.fsum does.
_FIX = 2.0**200

EULER_GAMMA = 0.5772156649015329
# zeta(2), zeta(3) and the logarithmic derivatives zeta'/zeta at 2 and 3, each
# the double nearest to the value (mpmath at 30 digits reproduces them).
ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595942
DLOG_ZETA2 = -0.5699609930945329
DLOG_ZETA3 = -0.16482268215827725

# Best-published exponent in the divisor-problem error term that the
# literature quotes for this average order; recorded for reference output,
# not used in any computation.
THETA_REFERENCE = "131/416"


# The terms of h3_and_h3prime's direct sums: every n^3 up to it is below 2^53, an exact double.
DIRECT_TERMS = 200_000

# s(p^e) by the paper's closed form; typecounts.symbolic_count is the reference route.
S_DIAGONAL = lambda p, e: general_form(e)(p)
# Convolution complement of n^2 tau(n) inside s: h(p^e) = (3e - 1) p + (3e + 1),
# proved in typecounts.h_closed_form; typecounts.h_recurrence is the defining route.
H_COMPLEMENT = lambda p, e: (3 * e - 1) * p + 3 * e + 1


def sieve_s(limit: int) -> list[int]:
    """[s(0..limit)] with s(0) slot 0; single-threaded, exact integers."""
    return sieve_multiplicative(S_DIAGONAL, limit)


def h_values(limit: int) -> list[int]:
    """[h(0..limit)] for the convolution complement h."""
    return sieve_multiplicative(H_COMPLEMENT, limit)


# sum_{n <= v} n^k for k = 0, 1, 2, the powers of p in s(p) = general_form(1)(p).
_POWER_SUMS = (lambda v: v, lambda v: v * (v + 1) // 2, lambda v: v * (v + 1) * (2 * v + 1) // 6)


def s_partial_sum(x: int) -> int:
    """sum_{n <= x} s(n), exact, in about x^(3/4) / log x steps and sqrt(x) memory.

    Phase 1, Lucy_Hedgehog's prime-sum recursion, turns sum_{2 <= n <= v} n^k
    into sum_{p <= v} p^k at every v = x // i, so that small[v] (v <= isqrt(x))
    and large[i] (v = x // i) hold P(v) = sum_{p <= v} s(p). Phase 2, the second
    phase of the min_25 sieve, recurses over prime powers: rest(v, j) sums s(n)
    over 2 <= n <= v whose least prime factor is at least primes[j].
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    r = math.isqrt(x)
    primes = primes_up_to(r)
    small = large = [0] * (r + 1)
    for k, c in enumerate(general_form(1).coefficients):
        lo = [_POWER_SUMS[k](v) - 1 for v in range(r + 1)]
        hi = [0, *(_POWER_SUMS[k](x // i) - 1 for i in range(1, r + 1))]
        for p in primes:
            pk, base = p**k, lo[p - 1]
            top = min(r, x // (p * p))
            mid = min(top, r // p)
            # every new value reads old ones only; x // (i p) is hi[i p] while i p <= r
            hi[1 : top + 1] = [
                *(hi[i] - pk * (hi[i * p] - base) for i in range(1, mid + 1)),
                *(hi[i] - pk * (lo[x // (i * p)] - base) for i in range(mid + 1, top + 1)),
            ]
            lo[p * p :] = [lo[v] - pk * (lo[v // p] - base) for v in range(p * p, r + 1)]
        small = [a + c * b for a, b in zip(small, lo)]
        large = [a + c * b for a, b in zip(large, hi)]
    below = [small[p - 1] for p in primes] + [small[r]]  # P(primes[j] - 1)
    rule = lru_cache(maxsize=None)(S_DIAGONAL)

    def rest(v: int, j: int) -> int:
        total = (small[v] if v <= r else large[x // v]) - below[j]
        for i in range(j, len(primes)):
            p = primes[i]
            if p * p > v:
                break
            e, q = 1, p
            while q * p <= v:
                total += rule(p, e) * rest(v // q, i + 1) + rule(p, e + 1)
                e, q = e + 1, q * p
        return total

    return 1 + rest(x, 0)


class H3Estimate(NamedTuple):
    """The series constants by two routes, each with its own error bar.

    h3/h3prime come from the accelerated Euler product; their bounds are
    proved and cover the series tail and the rounding. direct_h3/direct_h3prime
    are the correctly rounded exact sums of the double terms h(n)/n^3 (and the
    log-weighted variant) to DIRECT_TERMS; their bounds are empirical,
    extrapolated from the final doubling of the summation range.
    """

    h3: float
    h3prime: float
    h3_bound: float
    h3prime_bound: float
    direct_h3: float
    direct_h3prime: float
    direct_h3_bound: float
    direct_h3prime_bound: float
    prime_limit: int
    tail_terms: int


def h3_and_h3prime(prime_limit: int = 100_000) -> H3Estimate:
    """Constants H3 and H3' of the average order, with error bounds.

    The h-series has local Euler factors f_p(z) / (1 - p^(-z))^2, where
    f_p(z) = 1 + 2 p^(1-z) + 2 p^(-z) + p^(1-2z). Multiplying f_p by
    (1 - p^(1-z))^2 (1 - p^(-z))^2 cancels the slowly decaying parts, leaving

        n_p(z) = 1 - 3 (p^2+p+1) p^(-2z) + 2 (p+1)^3 p^(-3z)
                   - 3 (p^3+p^2+p) p^(-4z) + p^(3-6z),

    as tests/test_asymptotics.py::TestDiagonalGeneratingFunction proves. So
    H3 = zeta(3)^4 zeta(2)^2 prod_p n_p(3) with |n_p(3) - 1| <= 3.2 p^-4
    for p >= 100: truncation at prime_limit Q carries a proved tail bound of
    order Q^-3. H3' comes from the logarithmic derivative of the same
    factorization. Both bars add a bound on the floating-point rounding to
    the tail, and step outward by one ulp. The direct route sums the series
    itself to DIRECT_TERMS, exactly as the terms stream, holding no term list.
    """
    h3, h3prime, h3_bound, h3prime_bound = _euler_route(prime_limit)

    # Direct route. The series sum_n h(n)/n^3 IS the constant: its local
    # factors are (1 - p^-3)^-2 f_p(3), so the zeta part needs no separate
    # treatment. The derivative is -sum_n h(n) log(n)/n^3. For n <= 2^47 each
    # term is a double >= 2^-142 (h >= 1, log n >= log 2 for n >= 2, and the
    # n = 1 log term is 0), so each sums exactly by _FIX. Each n^3 is an exact
    # double, so the log term divides by n^3 itself, as h(n)/n^3 does.
    half = DIRECT_TERMS // 2
    total = log_total = 0
    for n, h in enumerate(multiplicative_stream(H_COMPLEMENT, DIRECT_TERMS), 1):
        cube = n * n * n
        total += int(h / cube * _FIX)
        log_total += int(h * math.log(n) / cube * _FIX)
        if n == half:
            half_total, half_log_total = total, log_total
    direct_h3 = total / _FIX
    direct_h3prime = -(log_total / _FIX)
    # Terms are positive, so both sums grow monotonically toward their
    # limits; the remainder past N is comparable to the gain over the last
    # doubling. Factor 4 is empirical headroom, not a theorem.
    direct_h3_bound = 4 * abs(direct_h3 - half_total / _FIX)
    direct_h3prime_bound = 4 * abs(direct_h3prime + half_log_total / _FIX)
    return H3Estimate(h3, h3prime, h3_bound, h3prime_bound, direct_h3, direct_h3prime, direct_h3_bound, direct_h3prime_bound, prime_limit, DIRECT_TERMS)


def _euler_route(prime_limit: int) -> tuple[float, float, float, float]:
    """H3, H3' and their proved bars from the Euler product over the primes up to prime_limit, as h3_and_h3prime gives them."""
    if prime_limit < 100:
        raise ValueError(f"prime_limit must be >= 100, got {prime_limit}")
    # Each Euler term is at least 2.9 p^-4 in magnitude (the derivative term is
    # larger), above 2^-148 for p <= 10^11, so each sums exactly by _FIX.
    log_total = dlog_total = 0
    for p in iter_primes(prime_limit):
        p2 = p * p
        c2 = 3 * (p2 + p + 1)
        c3 = 2 * (p + 1) ** 3
        c4 = 3 * (p2 * p + p2 + p)
        t2 = c2 / p**6
        t3 = c3 / p**9
        t4 = c4 / p**12
        t6 = p**3 / p**18
        small = t3 - t2 - t4 + t6  # n_p(3) - 1, kept off the 1 so that it rounds relative to itself
        log_total += int(math.log1p(small) * _FIX)
        # n_p'(3) = log p * (2 c2 p^-6 - 3 c3 p^-9 + 4 c4 p^-12 - 6 p^(3-18))
        dlog_total += int(math.log(p) * (2 * t2 - 3 * t3 + 4 * t4 - 6 * t6) / (1 + small) * _FIX)

    log_sum = log_total / _FIX
    h3 = ZETA3**4 * ZETA2**2 * math.exp(log_sum)
    dlog_sum = dlog_total / _FIX
    bracket = 4 * DLOG_ZETA3 + 2 * DLOG_ZETA2 + dlog_sum
    h3prime = h3 * bracket

    # Rounding, U = 2^-53: int / int rounds correctly; log, log1p, exp and pow
    # are within 1 ulp (2 U), each sum within U. For every p, n_p(3) >= 0.767,
    # t2 + t3 + t4 + t6 <= 1.91 |small| and 2 t2 + 3 t3 + 4 t4 + 6 t6 <= 2.67
    # (2 t2 - 3 t3 + 4 t4 - 6 t6), all tightest at p = 2. So each log is off by
    # at most 16 U |log| and each derivative term by 40 U |term|, and neither
    # sum cancels (logs < 0 < terms). The factors 24 and 48 also cover the sums, the
    # zeta powers, exp and two products, and the DLOG doubles and two additions.
    unit = 2.0**-53
    log_round = 24 * unit * (abs(log_sum) + 1)
    bracket_round = 48 * unit * (abs(dlog_sum) + abs(DLOG_ZETA3) + abs(DLOG_ZETA2))

    # Tail bounds. For p > Q >= 100: |n_p(3) - 1| <= 3.2 p^-4, and
    # |log n_p(3)| <= 1.01 * |n_p(3) - 1|; sum_{n > Q} n^-4 <= 1/(3 Q^3).
    q = prime_limit
    log_tail = 1.01 * 3.2 / (3 * q**3)
    h3_bound = math.nextafter(h3 * math.expm1(log_tail + log_round), math.inf)
    # |n_p'(3)| <= log p * (6.1 p^-4 + ...) <= 7 log p p^-4 for p >= 100, and
    # sum_{n > Q} log n n^-4 <= (log Q)/(3 Q^3) + 1/(9 Q^3).
    bracket_err = 1.01 * 7 * (math.log(q) / (3 * q**3) + 1 / (9 * q**3)) + bracket_round
    h3prime_bound = abs(h3) * bracket_err + h3_bound * (abs(bracket) + bracket_err) + unit * abs(h3prime)
    h3prime_bound = math.nextafter(h3prime_bound, math.inf)

    return h3, h3prime, h3_bound, h3prime_bound


def main_term(x: int, h3: float, h3prime: float) -> float:
    """(x^3 / 3) (H3 (log x + 2 gamma - 1/3) + H3').

    The 2 gamma - 1/3 companion constant is inherited from the partial sums
    of n^2 tau(n): convolving their main term against h turns
    (x/d)^3 (log(x/d) + 2 gamma - 1/3) into H3 log x + H3' plus the constant
    times H3, with no further adjustment. (Quoted forms of this main term
    sometimes show 2 gamma - 1, which contradicts that derivation and misses
    the true partial sums by a relative offset of 2 H3 / (3 bracket); the
    convergence tests in this package pin the -1/3 version.)
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    return x**3 / 3 * (h3 * (math.log(x) + 2 * EULER_GAMMA - 1 / 3) + h3prime)


class AsymptoticReport(NamedTuple):
    x: int
    exact_sum: int
    main_term: float
    relative_error: float
    error_exponent_estimate: float  # log |exact - main| / log x


def average_order_reports(x_values: Sequence[int], estimate: H3Estimate) -> list[AsymptoticReport]:
    """Exact partial sums of s against the main term from estimate, at each x.

    s_partial_sum gives each checkpoint's exact sum without walking s; x values
    are deduplicated and sorted ascending.
    """
    xs = sorted(set(x_values))
    if not xs or xs[0] < 2:
        raise ValueError(f"need x values >= 2, got {x_values}")
    reports = []
    for x in xs:
        exact = s_partial_sum(x)
        predicted = main_term(x, estimate.h3, estimate.h3prime)
        delta = abs(exact - predicted)
        relative = delta / predicted
        exponent = math.log(delta) / math.log(x) if delta > 0 else float("-inf")
        reports.append(
            AsymptoticReport(
                x=x,
                exact_sum=exact,
                main_term=predicted,
                relative_error=relative,
                error_exponent_estimate=exponent,
            )
        )
    return reports
