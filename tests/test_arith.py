import bisect
import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abelian3 import arith
from abelian3.arith import (
    PILLAI,
    divisors,
    evaluate,
    factorize,
    gcd_sum,
    is_prime,
    multiplicative_stream,
    odd_spf_sieve,
    primes_up_to,
    sieve_multiplicative,
)
from reference import MOBIUS, PHI, TAU, gcd_sum_direct


@pytest.fixture(scope="module")
def sympy():
    """sympy, the independent factoring reference; its tests skip without it."""
    return pytest.importorskip("sympy")


class TestIsPrime:
    # psi_12 and psi_13 (Sorenson and Webster 2017): the least strong
    # pseudoprimes to the first 12 and the first 13 primes as bases.
    @pytest.mark.parametrize(
        "p, q",
        [(399165290221, 798330580441), (1287836182261, 2575672364521)],
        ids=["psi12", "psi13"],
    )
    def test_strong_pseudoprimes_to_the_first_primes(self, p, q):
        assert not is_prime(p * q)
        assert is_prime(p) and is_prime(q)
        assert factorize(p * q) == ((p, 1), (q, 1))

    # Arnault's construction: three primes below psi_13 whose product passes
    # Miller-Rabin to every base of _MR_BASES
    P1 = 50132292363566260677523
    ARNAULT = P1 * (53 * (P1 - 1) + 1) * (61 * (P1 - 1) + 1)

    def test_miller_rabin_pseudoprime_is_composite(self, monkeypatch):
        assert all(is_prime(p) for p in (self.P1, 53 * (self.P1 - 1) + 1, 61 * (self.P1 - 1) + 1))
        assert not is_prime(self.ARNAULT)
        monkeypatch.setattr(arith, "_strong_lucas_prp", lambda n: True)
        assert is_prime(self.ARNAULT)  # Miller-Rabin alone is fooled

    def test_strong_lucas_matches_sympy(self, sympy):
        from sympy.ntheory.primetest import is_strong_lucas_prp

        rng = random.Random(13)
        odd = [rng.randrange(3, 1 << bits) | 1 for bits in (6, 16, 40, 90, 250) for _ in range(400)]
        # the least strong Lucas pseudoprimes, psi_12, psi_13 and Arnault's n
        odd += [5459, 5777, 10877, 16109, 18971, 318665857834031151167461, 3317044064679887385961981, self.ARNAULT]
        assert [arith._strong_lucas_prp(n) for n in odd] == [is_strong_lucas_prp(n) for n in odd]
        assert arith._strong_lucas_prp(5459) and not arith._strong_lucas_prp(self.ARNAULT)

    def test_primes_above_psi13_match_sympy(self, sympy):
        rng = random.Random(17)
        for n in [rng.randrange(arith._PSI_13, 10**60) | 1 for _ in range(300)] + [2**89 - 1, 2**127 - 1]:
            assert is_prime(n) == sympy.isprime(n), n


class TestFactorize:
    def test_one_is_empty(self):
        assert factorize(1) == ()

    def test_known(self):
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(9007199254740881) == ((9007199254740881, 1),)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_invariants_random(self):
        # small entries, products of two primes above 1000 that rho must split,
        # and the psi_12 and psi_13 factor pairs
        rng = random.Random(7)

        def prime_from(k):
            while any(k % d == 0 for d in range(2, math.isqrt(k) + 1)):
                k += 1
            return k

        entries = [rng.randrange(1, 10**6) for _ in range(300)]
        entries += [prime_from(rng.randrange(1001, 10**7)) * prime_from(rng.randrange(1001, 10**7)) for _ in range(40)]
        entries += [399165290221 * 798330580441, 1287836182261 * 2575672364521]
        for n in entries:
            pairs = factorize(n)
            assert type(pairs) is tuple and all(type(p) is int and type(e) is int for p, e in pairs), n
            primes = [p for p, _ in pairs]
            assert all(a < b for a, b in zip(primes, primes[1:])), n
            assert all(is_prime(p) for p in primes), n
            assert all(e >= 1 for _, e in pairs), n
            assert math.prod(p**e for p, e in pairs) == n

    @pytest.mark.parametrize(
        "p, q",
        [(1000003, 9999991), (1000000007, 9999999967), (100000000003, 999999999989)],
        ids=["7-digit", "10-digit", "12-digit"],
    )
    def test_semiprimes_split_by_rho(self, p, q):
        start = time.perf_counter()
        assert factorize(p * q) == ((p, 1), (q, 1))
        assert time.perf_counter() - start < 1.0

    def test_powers_above_trial_bound(self):
        assert factorize(1009**2) == ((1009, 2),)
        assert factorize(1009**3) == ((1009, 3),)
        assert factorize(1000003**2) == ((1000003, 2),)
        assert factorize(10007**3) == ((10007, 3),)

    @pytest.mark.parametrize(
        "n, pairs",
        [
            (561, ((3, 1), (11, 1), (17, 1))),
            (41041, ((7, 1), (11, 1), (13, 1), (41, 1))),
            (825265, ((5, 1), (7, 1), (17, 1), (19, 1), (73, 1))),
            (321197185, ((5, 1), (19, 1), (23, 1), (29, 1), (37, 1), (137, 1))),
        ],
    )
    def test_carmichael_numbers(self, n, pairs):
        assert factorize(n) == pairs

    def test_large_prime_and_cofactors(self):
        assert factorize(2**64 - 59) == ((2**64 - 59, 1),)
        assert factorize(2**20 * 3**7 * 1009 * 1013) == ((2, 20), (3, 7), (1009, 1), (1013, 1))
        assert factorize(2**5 * 3 * (2**61 - 1)) == ((2, 5), (3, 1), (2**61 - 1, 1))
        assert factorize(999983 * (2**89 - 1)) == ((999983, 1), (2**89 - 1, 1))

    def test_rho_budget_exhausted_raises_naming_n(self, monkeypatch):
        monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
        n = 999999999999947 * 999999999999989
        with pytest.raises(ValueError, match=str(n)):
            factorize(n)

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    def test_matches_sympy(self, sympy, x, y):
        assert dict(factorize(x * y)) == sympy.factorint(x * y)


class TestDivisors:
    def test_small(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    @given(st.integers(1, 20000))
    def test_matches_scan(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


class TestSieves:
    def test_spf_small(self):
        table = odd_spf_sieve(10)
        assert list(table) == [0, 0, 0, 0, 3]  # k = 1, 3, 5, 7, 9; a prime reads 0

    def test_spf_rejects_tiny(self):
        with pytest.raises(ValueError):
            odd_spf_sieve(1)

    def test_spf_spot_large(self):
        table = odd_spf_sieve(10**6)
        assert len(table) == 500_000
        assert table[999983 // 2] == 0  # prime
        assert table[999981 // 2] == 3
        assert table[994009 // 2] == 997  # 997^2

    def test_primes_up_to(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1) == []
        assert len(primes_up_to(10**5)) == 9592

    def test_match_trial_division_at_every_limit(self):
        top = 2000
        spf = [0, 0] + [next(p for p in range(2, k + 1) if k % p == 0) for k in range(2, top + 1)]
        primes = [k for k in range(2, top + 1) if spf[k] == k]
        composite_spf = [0 if p == k else p for k, p in enumerate(spf)]
        for limit in range(2, top + 1):
            assert list(odd_spf_sieve(limit)) == composite_spf[1 : limit + 1 : 2], limit
            assert primes_up_to(limit) == primes[: bisect.bisect_right(primes, limit)], limit

    def test_trial_division_primes_come_from_the_sieve(self):
        # factorize's trial-division primes, built by the sieve at import, are
        # exactly the primes below 1000 found by trial division
        want = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))
        assert len(want) == 168
        assert arith._SMALL_PRIMES == want


class TestGcdSum:
    def test_direct_small(self):
        assert gcd_sum_direct(1) == 1
        assert gcd_sum_direct(4) == 8
        assert gcd_sum_direct(6) == 15

    def test_multiplicative_route_small(self):
        assert gcd_sum(1) == 1
        assert gcd_sum(4) == 8
        assert gcd_sum(6) == 15
        assert gcd_sum(12) == 40

    def test_agreement_exhaustive(self):
        for n in range(1, 2001):
            assert gcd_sum(n) == gcd_sum_direct(n)

    @given(st.integers(2000, 10**4))
    def test_agreement_sampled(self, n):
        assert gcd_sum(n) == gcd_sum_direct(n)

    @given(st.integers(1, 3000), st.integers(1, 3000))
    def test_multiplicative(self, m, n):
        if math.gcd(m, n) == 1:
            assert gcd_sum(m * n) == gcd_sum(m) * gcd_sum(n)


class TestMultiplicativeFunctions:
    def test_evaluate_known(self):
        assert evaluate(TAU, 12) == 6
        assert evaluate(PHI, 12) == 4
        assert evaluate(MOBIUS, 30) == -1
        assert evaluate(MOBIUS, 12) == 0
        assert evaluate(TAU, 1) == 1

    def test_tau_sieve_prefix(self):
        assert sieve_multiplicative(TAU, 10) == [0, 1, 2, 2, 3, 2, 4, 2, 4, 3, 4]

    def test_sieve_rejects_tiny(self):
        with pytest.raises(ValueError):
            sieve_multiplicative(TAU, 0)

    def test_sieve_limit_one(self):
        assert sieve_multiplicative(TAU, 1) == [0, 1]

    @pytest.mark.parametrize("fn", [TAU, PHI, PILLAI, MOBIUS], ids=["tau", "phi", "P", "mu"])
    def test_sieve_matches_evaluate(self, fn):
        table = sieve_multiplicative(fn, 10**4)
        for n in range(1, 10**4 + 1):
            assert table[n] == evaluate(fn, n), n

    @pytest.mark.parametrize("fn", [TAU, PHI, PILLAI, MOBIUS], ids=["tau", "phi", "P", "mu"])
    def test_sieve_matches_evaluate_at_every_small_limit(self, fn):
        # small limits reach the walk's edges: limit 1 and 2, and the last
        # stored odd n at limit // 2 for odd and even limits
        for limit in range(1, 65):
            assert sieve_multiplicative(fn, limit) == [0, *(evaluate(fn, n) for n in range(1, limit + 1))], limit

    def test_stored_value_past_64_bits_raises(self):
        # the odd n <= limit // 2 are stored as signed 64-bit ints: a value there
        # that does not fit fails loudly, and one past limit // 2 streams exactly
        big = lambda p, e: 2**63 if p == 3 else p**e
        assert list(multiplicative_stream(big, 5)) == [1, 2, 2**63, 4, 5]
        stream = multiplicative_stream(big, 6)
        assert [next(stream), next(stream)] == [1, 2]
        with pytest.raises(OverflowError):
            next(stream)

    def test_stream_yields_limit_values_in_order(self):
        stream = multiplicative_stream(PILLAI, 1001)
        assert next(stream) == 1
        assert list(stream) == [evaluate(PILLAI, n) for n in range(2, 1002)]

    @pytest.mark.parametrize("limit", [2**20, 3**12])
    def test_sieve_at_prime_power_limit(self, limit):
        # the last entry is a prime power, whose p^e part is divided out on the spot
        table = sieve_multiplicative(PILLAI, limit)
        assert len(table) == limit + 1
        for n in range(limit - 999, limit + 1):
            assert table[n] == evaluate(PILLAI, n), n

    def test_phi_divisor_sum(self):
        # sum of phi over divisors telescopes to n
        for n in range(1, 400):
            assert sum(evaluate(PHI, d) for d in divisors(n)) == n
