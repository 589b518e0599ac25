"""Number-theoretic kernel: factorization, one sieve (odd_spf_sieve, for primes
and least prime factors alike; it needs no prime list, as a composite's least
prime factor overwrites what the composite writes), and multiplicative functions
(including Pillai's gcd-sum function). Nothing sieves at import. Contracts are
strict, as everything downstream leans on this module: exact integer arithmetic
throughout, and an explicit convention for the degenerate input n = 1.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import chain, compress, islice
from typing import Callable, Iterator, Sequence

# The first 13 primes, which make Miller-Rabin exact below _PSI_13 (Sorenson and Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES below psi_13; from psi_13 on, the Baillie-PSW test.

    A proof below psi_13. From it on, Miller-Rabin to base 2 alone and then the extra
    strong Lucas test (_lucas_prp) make the Baillie-PSW test (Baillie and Wagstaff 1980;
    Baillie, Fiori and Wagstaff 2021), and True assumes that no composite passes it, as
    none known does; fixed bases alone can be fooled by a composite built for them (Arnault 1995).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    twos = (d & -d).bit_length() - 1
    d >>= twos
    for a in _MR_BASES if n < _PSI_13 else _MR_BASES[:1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n % 8 in (3, 5):
            sign = -sign
        if a % 4 == n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _lucas_prp(n: int) -> bool:
    """Extra strong Lucas probable-prime test of odd n > 2 (Grantham 2001): Q = 1 and the first P of 3, 4, ... with
    ((P^2 - 4) / n) = -1. With n + 1 = d 2^s, d odd, n passes when V_d = +-2 and 2 V_(d+1) = P V_d mod n (so U_d = 0),
    or when V_(d 2^k) = 0 mod n for some k < s - 1. The chain steps the pair (V_k, V_(k+1)): two products a bit."""
    if math.isqrt(n) ** 2 == n:  # no P has ((P^2 - 4) / n) = -1
        return False
    P = 3
    while (j := _jacobi(P * P - 4, n)) != -1:
        if j == 0 and (P * P - 4) % n:
            return False
        P += 1
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    V, W = P % n, (P * P - 2) % n  # V_k and V_(k+1) for k = 1, then for the leading bits of d
    for bit in bin((n + 1) >> s)[3:]:
        VW = (V * W - P) % n  # V_(2k+1)
        V, W = (VW, (W * W - 2) % n) if bit == "1" else ((V * V - 2) % n, VW)
    if V in (2, n - 2) and (2 * W - P * V) % n == 0:
        return True
    for _ in range(s - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


def iter_primes(limit: int) -> Iterator[int]:
    """Primes <= limit in increasing order: 2, then each odd k > 1 at which odd_spf_sieve(limit) reads 0."""
    if limit < 2:
        return iter(())
    return chain((2,), compress(range(3, limit + 1, 2), map(operator.not_, islice(odd_spf_sieve(limit), 1, None))))


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit in increasing order."""
    return list(iter_primes(limit))


_TRIAL_BOUND = 1000  # factorize trial-divides by 2 and the odd numbers below this bound
# Pollard-Brent rho steps one factorize call may spend, enough for most smaller
# factors of up to 12 digits. A step is a product mod the cofactor, whose cost
# grows with its size, so _rho_divisor charges a step the square of the
# cofactor's length in 128-bit words (1 below 2**128): a 1,000-digit semiprime
# is refused in about 0.4 s end to end (README). Rounds double, so only powers
# of two change where rho gives up.
_RHO_BUDGET = 1 << 22
_RHO_BATCH = 128  # differences multiplied together per gcd


@lru_cache(maxsize=32)  # enumerate's header count and its walk's divisor lists factor the same entries
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime-power pairs ((p1, e1), ...) of n >= 1, with p1 < p2 < ... and
    each e >= 1; () for n = 1.

    Trial division by 2 and the odd numbers below 1000 comes first; an odd
    composite divides nothing, as its prime factors are gone by then, and a
    cofactor left below 1000**2 is prime. A larger one is tested with is_prime
    and, when composite, split by Pollard-Brent rho (Brent 1980) until every
    piece is prime. All rho calls for one n share _RHO_BUDGET steps, each
    weighted by its cofactor's size; past it factorize raises ValueError
    naming n. In practice this means a second-largest prime factor of up to
    about 12 digits (11 for a cofactor above 2**128).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    exponents: dict[int, int] = {}
    rem = n
    for p in chain((2,), range(3, _TRIAL_BOUND, 2)):
        if p * p > rem:
            break
        while rem % p == 0:
            rem //= p
            exponents[p] = exponents.get(p, 0) + 1
    pending = [rem] if rem > 1 else []
    budget = _RHO_BUDGET
    while pending:
        q = pending.pop()
        if q < _TRIAL_BOUND**2 or is_prime(q):
            exponents[q] = exponents.get(q, 0) + 1
            continue
        d, budget = _rho_divisor(q, budget)
        if not d:
            raise ValueError(f"cannot factor {n}: Pollard-Brent rho gave up within its budget of {_RHO_BUDGET} size-weighted steps")
        pending += (d, q // d)
    return tuple(sorted(exponents.items()))


def _rho_divisor(n: int, budget: int) -> tuple[int, int]:
    """(d, left): a proper divisor d of the composite n, and the budget left.

    Brent's cycle search on y -> y^2 + c mod n, with the differences to the
    saved point multiplied _RHO_BATCH at a time before each gcd; c = 1, 2, ...
    until the gcd is a proper divisor. d = 0 when budget runs out first; a step
    costs weight, the square of n's length in 128-bit words.
    """
    c, weight = 0, (1 + (n.bit_length() - 1) // 128) ** 2
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r * weight > budget:
                return 0, budget
            budget -= 2 * r * weight
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: step ys one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, budget


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n."""
    divs = [1]
    for p, e in factorize(n):
        pk = 1
        grown = []
        for _ in range(e):
            pk *= p
            grown.extend(d * pk for d in divs)
        divs.extend(grown)
    divs.sort()
    return divs


def odd_spf_sieve(limit: int) -> Sequence[int]:
    """array('H') t with t[k // 2] = least prime factor of the odd composite k <= limit, 0 at a prime.

    t has (limit + 1) // 2 entries, one per odd k <= limit, so t[k // 2] or k
    is the least prime factor of each odd k > 1. Each odd d from isqrt(limit) down
    to 3 writes d over its odd multiples from d^2 on. No prime list is needed: a
    composite d is overwritten at each of those slots by its least prime factor,
    which is smaller and so writes later. The factors are at most sqrt(limit), so
    2-byte entries hold them for every limit below 2^32.
    """
    from array import array  # here, not at the top: every count loads arith, and few need this

    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    table = array("H", [0]) * ((limit + 1) // 2)
    for d in range(math.isqrt(limit) - 1 | 1, 1, -2):  # the odd d <= isqrt(limit), largest first
        table[d * d // 2 :: d] = array("H", [d]) * len(range(d * d // 2, len(table), d))
    return table


# A multiplicative function is passed as its prime-power rule f(p, e) = f(p^e);
# f(1) = 1, and f(n) is the product of f(p, e) over the factorization of n.


def evaluate(f: Callable[[int, int], int], n: int) -> int:
    """f(n) computed by factoring n and multiplying prime-power values."""
    out = 1
    for p, e in factorize(n):
        out *= f(p, e)
    return out


def multiplicative_stream(f: Callable[[int, int], int], limit: int) -> Iterator[int]:
    """Yield f(1), f(2), ..., f(limit) in order, walking n once.

    f is stored only where a later n looks it up: at the odd n <= limit // 2,
    about limit / 4 values, in an array('q'). An odd n with p = spf(n) and
    p^e exactly dividing n is f(n / p^e) f(p^e), both odd arguments of at most
    n / 3, or f(p, e) when n = p^e. An even n = 2^e m with m odd is
    f(2^e) f(m), with m <= limit / 2 and f(2^e) from a table of its own.
    Every prime power gets one call of f.

    A stored value outside [-2^63, 2^63) raises OverflowError. For odd p, S_DIAGONAL
    and H_COMPLEMENT have f(p^e) <= (3e + 1) p^(2e) (checked for p < 1000, e < 60),
    so f(n) <= tau(n^3) n^2 <= 16384 (5 10^6)^2 < 2^59 at the odd n <= 5 10^6 stored
    for any limit up to 10^7 (tau(n^3) peaks at 3 5 7 11 13 17 19).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    yield 1
    if limit == 1:
        return
    from array import array  # lazily, as in odd_spf_sieve
    half = limit // 2
    odd = array("q", [1]) * ((half + 1) // 2)  # odd[n // 2] = f(n) for odd n <= half
    # f(2^e) keyed by 2^(e+1): an even n with lowest set bit 2^e has odd part m,
    # and n // 2^(e+1) is m // 2, the slot of f(m) in odd.
    twos = {2 << e: f(2, e) for e in range(1, limit.bit_length())}
    spf = odd_spf_sieve(limit)
    for n in range(3, limit + 2, 2):  # the even n - 1, then the odd n
        d = ((n - 1) & (1 - n)) << 1  # n // d = (n - 1) // d, as d >= 4
        yield twos[d] * odd[n // d]
        if n > limit:
            return
        p = pp = spf[n >> 1] or n
        m = n // p
        e = 1
        while m % p == 0:
            m //= p
            pp *= p
            e += 1
        value = odd[m >> 1] * odd[pp >> 1] if m > 1 else f(p, e)
        if n <= half:
            odd[n >> 1] = value
        yield value


def sieve_multiplicative(f: Callable[[int, int], int], limit: int) -> list[int]:
    """[f(0..limit)] with slot 0 set to 0: the list view of multiplicative_stream."""
    return [0, *multiplicative_stream(f, limit)]


# Pillai's function P(p^e) = (e+1) p^e - e p^(e-1).
PILLAI = lambda p, e: (e + 1) * p**e - e * p ** (e - 1)


def gcd_sum(n: int) -> int:
    """P(n) = sum_{k=1..n} gcd(k, n), via multiplicativity."""
    return evaluate(PILLAI, n)
