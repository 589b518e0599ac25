"""Number-theoretic kernel: extended gcd, linear congruences, factorization,
sieves, and multiplicative functions (including Pillai's gcd-sum function).

Everything downstream leans on this module, so the contracts here are strict:
exact integer arithmetic throughout, and explicit conventions for the
degenerate inputs (gcd(0, 0), modulus 1, n = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True)
class CongruenceSolution:
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


_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)  # gaps between integers coprime to 30, from 7


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division over a mod-30 wheel.

    After each extracted prime the remaining cofactor is primality-tested, so
    inputs whose second-largest prime factor is modest (anything up to around
    2^63 in practice) factor quickly. Hard semiprimes are out of scope.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pairs = []
    rem = n
    for p in (2, 3, 5):
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            pairs.append((p, e))
    d, wi = 7, 0
    while rem > 1:
        if is_prime(rem):
            pairs.append((rem, 1))
            break
        while rem % d:
            d += _WHEEL[wi]
            wi = (wi + 1) & 7
        e = 0
        while rem % d == 0:
            rem //= d
            e += 1
        pairs.append((d, e))
        d += _WHEEL[wi]
        wi = (wi + 1) & 7
    return Factorization(tuple(pairs))


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


def smallest_prime_factor_sieve(limit: int) -> np.ndarray:
    """Array t with t[k] = least prime factor of k for 2 <= k <= limit.

    Entries 0 and 1 are set to 0. int32 storage caps limit below 2^31.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    import numpy as np
    table = np.arange(limit + 1, dtype=np.int32)
    table[:2] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if table[p] == p:
            chunk = table[p * p :: p]
            np.minimum(chunk, np.int32(p), out=chunk)
    return table


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit in increasing order."""
    if limit < 2:
        return []
    import numpy as np
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).tolist()


def gcd_sum_direct(n: int) -> int:
    """Reference evaluation of P(n) = sum_{k=1..n} gcd(k, n); O(n) time."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum(map(math.gcd, range(1, n + 1), repeat(n)))


@dataclass(frozen=True)
class MultiplicativeFunction:
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

    Walks n = 2..limit once, tracking the p^e part of n for its smallest prime
    p. Prime powers get one prime_power_rule call each; everything else is a
    single multiplication of two previously filled slots, so the rule is never
    re-evaluated for a repeated (p, e).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    values = [0] * (limit + 1)
    values[1] = 1
    if limit == 1:
        return values
    spf = smallest_prime_factor_sieve(limit).tolist()
    ppart = [0, 1] + [0] * (limit - 1)  # p^e part of n w.r.t. spf(n)
    rule = f.prime_power_rule
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        pp = ppart[m] * p if m % p == 0 else p
        ppart[n] = pp
        if pp == n:
            e = 0
            t = n
            while t > 1:
                t //= p
                e += 1
            values[n] = rule(p, e)
        else:
            values[n] = values[n // pp] * values[pp]
    return values


TAU = MultiplicativeFunction(lambda p, e: e + 1, "tau")
PHI = MultiplicativeFunction(lambda p, e: (p - 1) * p ** (e - 1), "phi")
MOBIUS = MultiplicativeFunction(lambda p, e: -1 if e == 1 else 0, "mu")

# Pillai's function P(p^e) = (e+1) p^e - e p^(e-1).
PILLAI = MultiplicativeFunction(lambda p, e: (e + 1) * p**e - e * p ** (e - 1), "P")


def gcd_sum(n: int) -> int:
    """P(n) via multiplicativity; agrees with gcd_sum_direct everywhere."""
    return evaluate(PILLAI, n)
