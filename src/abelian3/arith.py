"""Number-theoretic kernel: linear congruences, factorization, sieves, and
multiplicative functions (including Pillai's gcd-sum function).

Everything downstream leans on this module, so the contracts here are strict:
exact integer arithmetic throughout, and explicit conventions for the
degenerate inputs (modulus 1, n = 1).
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from typing import Callable, Iterator, NamedTuple

__all__ = [
    "CongruenceSolution",
    "Factorization",
    "MultiplicativeFunction",
    "MOBIUS",
    "PHI",
    "PILLAI",
    "TAU",
    "divisors",
    "evaluate",
    "factorize",
    "gcd_sum",
    "gcd_sum_direct",
    "is_prime",
    "multiplicative_stream",
    "odd_spf_sieve",
    "primes_up_to",
    "sieve_multiplicative",
    "solve_linear_congruence",
]

# The first 14 primes. The first 13 make Miller-Rabin exact below
# psi_13 = 3317044064679887385961981 (Sorenson and Webster 2017), and 43 also
# rejects psi_13 itself, which passes every base up to 41.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with the bases _MR_BASES.

    Exact for n <= psi_13 = 3317044064679887385961981. Above that, True means
    n is a strong probable prime to every base, not a proof of primality.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    twos = (d & -d).bit_length() - 1
    d >>= twos
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CongruenceSolution(NamedTuple):
    """Solution family u = base_solution + k * period for 0 <= k < count.

    base_solution lies in [0, period); the family lists every solution in
    [0, modulus) exactly once.
    """

    base_solution: int
    period: int
    count: int

    def solutions(self) -> list[int]:
        return [self.base_solution + k * self.period for k in range(self.count)]


def solve_linear_congruence(coeff: int, rhs: int, modulus: int) -> CongruenceSolution | None:
    """Solve coeff * u = rhs (mod modulus) over u in [0, modulus).

    Returns None when g = gcd(coeff, modulus) does not divide rhs. Otherwise
    there are exactly g solutions, spaced modulus/g apart.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    g = math.gcd(coeff, modulus)
    if rhs % g:
        return None
    period = modulus // g
    base = rhs // g * pow(coeff // g, -1, period) % period
    return CongruenceSolution(base_solution=base, period=period, count=g)


class Factorization:
    """Prime-power decomposition as ((p1, e1), ...) with p1 < p2 < ...

    The empty tuple encodes n = 1. Primality and ordering are validated on
    construction.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        previous = 1
        for p, e in pairs:
            if p <= previous or e < 1 or not is_prime(p):
                raise ValueError(f"invalid factorization pair ({p}, {e})")
            previous = p
        self.pairs = pairs

    @property
    def value(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out

    def __iter__(self):
        return iter(self.pairs)


def _odd_prime_mask(limit: int) -> bytearray:
    """Sieve of Eratosthenes over the odd numbers: mask[i] is 1 exactly when 2i + 1 <= limit is prime."""
    mask = bytearray([1]) * ((limit + 1) // 2)
    mask[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if mask[i]:
            p = 2 * i + 1
            mask[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(mask), p)))
    return mask


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit in increasing order."""
    if limit < 2:
        return []
    return [2, *compress(range(1, limit + 1, 2), _odd_prime_mask(limit))]


# factorize trial-divides by the primes below _TRIAL_BOUND; a cofactor left with
# no prime factor below the bound is prime when it is below _TRIAL_BOUND**2.
_TRIAL_BOUND = 1000
_SMALL_PRIMES = tuple(primes_up_to(_TRIAL_BOUND - 1))
# Pollard-Brent rho steps one factorize call may spend: about 1.3 s of pure
# Python on a 2-core VM (Python 3.11), enough for most smaller factors of up to
# 12 digits. Rounds double, so only powers of two change where rho gives up.
_RHO_BUDGET = 1 << 22
_RHO_BATCH = 128  # differences multiplied together per gcd


def factorize(n: int) -> Factorization:
    """Factor n >= 1: trial division by the primes below 1000, then Pollard-Brent rho.

    A cofactor below 1000**2 with no smaller prime factor is prime; a larger
    one is tested with is_prime and, when composite, split by rho (Brent 1980)
    until every piece is prime. All rho calls for one n share _RHO_BUDGET
    steps; past it factorize raises ValueError naming n. In practice this
    means a second-largest prime factor of up to about 12 digits.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    exponents: dict[int, int] = {}
    rem = n
    for p in _SMALL_PRIMES:
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
            raise ValueError(f"cannot factor {n}: Pollard-Brent rho gave up after {_RHO_BUDGET} steps")
        pending += (d, q // d)
    return Factorization(tuple(sorted(exponents.items())))


def _rho_divisor(n: int, budget: int) -> tuple[int, int]:
    """(d, left): a proper divisor d of the composite n, and the budget left.

    Brent's cycle search on y -> y^2 + c mod n, with the differences to the
    saved point multiplied _RHO_BATCH at a time before each gcd; c = 1, 2, ...
    until the gcd is a proper divisor. d = 0 when budget runs out first.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > budget:
                return 0, budget
            budget -= 2 * r
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


def odd_spf_sieve(limit: int) -> list[int]:
    """List t with t[k // 2] = least prime factor of k for the odd 3 <= k <= limit.

    t has (limit + 1) // 2 entries, one per odd k <= limit; t[0] (k = 1) is 0.
    Each odd prime p up to sqrt(limit) writes p over its odd multiples from
    p^2 on, the larger primes first so that the least prime factor is written
    last, and the entries left are the primes themselves.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    mask = _odd_prime_mask(limit)
    table = [0] * len(mask)
    for p in reversed(list(compress(range(1, math.isqrt(limit) + 1, 2), mask))):
        table[p * p // 2 :: p] = [p] * len(range(p * p // 2, len(table), p))
    for p in compress(range(1, limit + 1, 2), mask):
        table[p // 2] = p
    return table


def gcd_sum_direct(n: int) -> int:
    """Reference evaluation of P(n) = sum_{k=1..n} gcd(k, n); O(n) time."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum(map(math.gcd, range(1, n + 1), repeat(n)))


class MultiplicativeFunction(NamedTuple):
    """A multiplicative function defined by its values on prime powers.

    f(1) = 1 always; composite arguments are products of prime_power_rule
    values over the factorization.
    """

    prime_power_rule: Callable[[int, int], int]
    name: str

    def __call__(self, n: int) -> int:
        return evaluate(self, n)


def evaluate(f: MultiplicativeFunction, n: int) -> int:
    """f(n) computed by factoring n and multiplying prime-power values."""
    out = 1
    for p, e in factorize(n):
        out *= f.prime_power_rule(p, e)
    return out


def multiplicative_stream(f: MultiplicativeFunction, limit: int) -> Iterator[int]:
    """Yield f(1), f(2), ..., f(limit) in order, walking n once.

    f is stored only where a later n looks it up: at the odd n <= limit // 2,
    about limit / 4 values. An odd n with p = spf(n) and p^e exactly dividing
    n is f(n / p^e) f(p^e), both odd arguments of at most n / 3, or
    prime_power_rule(p, e) when n = p^e. An even n = 2^e m with m odd is
    f(2^e) f(m), with m <= limit / 2 and f(2^e) from a table of its own.
    Every prime power gets one prime_power_rule call.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    yield 1
    if limit == 1:
        return
    rule = f.prime_power_rule
    half = limit // 2
    odd = [1] * ((half + 1) // 2)  # odd[n // 2] = f(n) for odd n <= half
    # f(2^e) keyed by 2^(e+1): an even n with lowest set bit 2^e has odd part m,
    # and n // 2^(e+1) is m // 2, the slot of f(m) in odd.
    twos = {2 << e: rule(2, e) for e in range(1, limit.bit_length())}
    spf = odd_spf_sieve(limit)
    for n in range(2, limit + 1):
        if not n & 1:
            d = (n & -n) << 1
            yield twos[d] * odd[n // d]
            continue
        p = pp = spf[n >> 1]
        m = n // p
        e = 1
        while m % p == 0:
            m //= p
            pp *= p
            e += 1
        value = odd[m >> 1] * odd[pp >> 1] if m > 1 else rule(p, e)
        if n <= half:
            odd[n >> 1] = value
        yield value


def sieve_multiplicative(f: MultiplicativeFunction, limit: int) -> list[int]:
    """[f(0..limit)] with slot 0 set to 0: the list view of multiplicative_stream."""
    return [0, *multiplicative_stream(f, limit)]


TAU = MultiplicativeFunction(lambda p, e: e + 1, "tau")
PHI = MultiplicativeFunction(lambda p, e: (p - 1) * p ** (e - 1), "phi")
MOBIUS = MultiplicativeFunction(lambda p, e: -1 if e == 1 else 0, "mu")

# Pillai's function P(p^e) = (e+1) p^e - e p^(e-1).
PILLAI = MultiplicativeFunction(lambda p, e: (e + 1) * p**e - e * p ** (e - 1), "P")


def gcd_sum(n: int) -> int:
    """P(n) via multiplicativity; agrees with gcd_sum_direct everywhere."""
    return evaluate(PILLAI, n)
