"""Number-theoretic kernel: extended gcd, linear congruences, factorization,
sieves, and multiplicative functions (including Pillai's gcd-sum function).

Everything downstream leans on this module, so the contracts here are strict:
exact integer arithmetic throughout, and explicit conventions for the
degenerate inputs (gcd(0, 0), modulus 1, n = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, NamedTuple

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
    "ext_gcd",
    "factorize",
    "gcd_sum",
    "gcd_sum_direct",
    "is_prime",
    "primes_up_to",
    "sieve_multiplicative",
    "smallest_prime_factor_sieve",
    "solve_linear_congruence",
]

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
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


def ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, u, v) with u*x + v*y = g = gcd(x, y) >= 0.

    ext_gcd(0, 0) returns (0, 0, 0).
    """
    if x == 0 and y == 0:
        return (0, 0, 0)
    old_r, r = x, y
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


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
    g, u, _ = ext_gcd(coeff % modulus, modulus)
    if rhs % g:
        return None
    period = modulus // g
    base = (u * ((rhs // g) % period)) % period
    return CongruenceSolution(base_solution=base, period=period, count=g)


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition as ((p1, e1), ...) with p1 < p2 < ...

    The empty tuple encodes n = 1. Primality and ordering are validated on
    construction.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = 1
        for p, e in self.pairs:
            if p <= previous or e < 1 or not is_prime(p):
                raise ValueError(f"invalid factorization pair ({p}, {e})")
            previous = p

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


def smallest_prime_factor_sieve(limit: int) -> list[int]:
    """List t with t[k] = least prime factor of k for 2 <= k <= limit.

    Entries 0 and 1 are set to 0. The list starts as 2 on the even entries;
    each odd prime p up to sqrt(limit) then writes p over its odd multiples
    from p^2 on, the larger primes first so that the least prime factor is
    written last, and the odd entries left are the primes themselves.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    table = [2, 0] * (limit // 2 + 1)
    del table[limit + 1 :]
    table[0] = 0
    mask = _odd_prime_mask(limit)
    for p in reversed(list(compress(range(1, math.isqrt(limit) + 1, 2), mask))):
        table[p * p :: 2 * p] = [p] * len(range(p * p, limit + 1, 2 * p))
    for p in compress(range(1, limit + 1, 2), mask):
        table[p] = p
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


def sieve_multiplicative(f: MultiplicativeFunction, limit: int) -> list[int]:
    """Tabulate [f(0..limit)] with slot 0 set to 0 and slot 1 to 1.

    Walks n = 2..limit once with p = spf(n). When p^2 does not divide n, f(n)
    is f(n/p) f(p); otherwise (about a third of all n) the whole power p^e is
    divided out on the spot and f(n) is f(n/p^e) f(p^e). Prime powers get one
    prime_power_rule call each, so the rule is never re-evaluated for a
    repeated (p, e).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    values = [0] * (limit + 1)
    values[1] = 1
    if limit == 1:
        return values
    spf = smallest_prime_factor_sieve(limit)
    rule = f.prime_power_rule
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        if m % p:
            values[n] = values[m] * values[p] if m > 1 else rule(p, 1)
            continue
        pp = p * p
        m //= p
        e = 2
        while m % p == 0:
            m //= p
            pp *= p
            e += 1
        values[n] = values[m] * values[pp] if m > 1 else rule(p, e)
    return values


TAU = MultiplicativeFunction(lambda p, e: e + 1, "tau")
PHI = MultiplicativeFunction(lambda p, e: (p - 1) * p ** (e - 1), "phi")
MOBIUS = MultiplicativeFunction(lambda p, e: -1 if e == 1 else 0, "mu")

# Pillai's function P(p^e) = (e+1) p^e - e p^(e-1).
PILLAI = MultiplicativeFunction(lambda p, e: (e + 1) * p**e - e * p ** (e - 1), "P")


def gcd_sum(n: int) -> int:
    """P(n) via multiplicativity; agrees with gcd_sum_direct everywhere."""
    return evaluate(PILLAI, n)
