"""Reference routes that only the tests use, each written once.

Each is a slow or classical evaluation that a library value is checked
against: subgroups by saturating element tuples, the gcd sum by its
definition, tau, phi and mu as prime-power rules, the paper's divisor-triple
count of cyclic subgroups, the divisor-sum partial sums by hyperbola
identities, the direct partial sums of the series for H3 and H3', a
Hermite-normal-form certificate for the subgroup stream, and the
Gaussian-binomial count by type against the per-prime kernel and the cyclic
count.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, product, repeat, zip_longest
from operator import itemgetter
from typing import NamedTuple, Sequence

from abelian3.arith import divisors, evaluate, multiplicative_stream, primes_up_to
from abelian3.asymptotics import EULER_GAMMA, H_COMPLEMENT
from abelian3.rank3 import count_cyclic, subgroup_stream
from abelian3.typecounts import IntPolynomial, Partition, order_terms, subpartitions, type_count


def saturate(gens: Sequence[Sequence[int]], orders: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """The subgroup of prod Z_orders[i] generated by the tuples gens, as a
    frozenset of tuples: every sum of gens, by search from zero."""
    zero = (0,) * len(orders)
    members, work = {zero}, [zero]
    while work:
        x = work.pop()
        for g in gens:
            y = tuple((a + b) % o for a, b, o in zip(x, g, orders))
            if y not in members:
                members.add(y)
                work.append(y)
    return frozenset(members)


def gcd_sum_direct(n: int) -> int:
    """Reference evaluation of P(n) = sum_{k=1..n} gcd(k, n); O(n) time."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum(map(math.gcd, range(1, n + 1), repeat(n)))


# The divisor count, Euler's phi and the Moebius function, as prime-power rules.
TAU = lambda p, e: e + 1
PHI = lambda p, e: (p - 1) * p ** (e - 1)
MOBIUS = lambda p, e: -1 if e == 1 else 0


def count_cyclic_divisor_sum(group: tuple[int, int, int]) -> int:
    """The paper's route for rank3.count_cyclic: the whole-group divisor-triple sum.

    Sum of phi(a) phi(b) phi(c) / phi(lcm(a, b, c)); every summand is an
    integer (the number of cyclic subgroups whose projections have orders
    a, b, c), which is checked.
    """
    phi = lru_cache(maxsize=None)(lambda k: evaluate(PHI, k))
    total = 0
    for a, b, c in product(*map(divisors, group)):
        num = phi(a) * phi(b) * phi(c)
        den = phi(math.lcm(a, b, c))
        if num % den:
            raise ArithmeticError(f"phi({a}) phi({b}) phi({c}) / phi(lcm) is not an integer")
        total += num // den
    return total


class DivisorSumCheck(NamedTuple):
    """Classical divisor-sum partial sums against their main terms."""

    x: int
    tau_exact: int
    tau_main: float
    tau_relative_error: float
    weighted_exact: int
    weighted_main: float
    weighted_relative_error: float


def divisor_sum_check(x: int) -> DivisorSumCheck:
    """Exact sum tau(n) and sum n^2 tau(n) for n <= x, with main terms.

    Exact values come from hyperbola identities: sum tau(n) = sum floor(x/d)
    and sum n^2 tau(n) = sum d^2 S2(floor(x/d)) with S2 the square-pyramidal
    sum. Main terms: x log x + (2 gamma - 1) x and
    (x^3/3) log x + (x^3/3)(2 gamma - 1/3).
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    tau_exact = 0
    weighted_exact = 0
    for d in range(1, x + 1):
        q = x // d
        tau_exact += q
        weighted_exact += d * d * (q * (q + 1) * (2 * q + 1) // 6)
    lx = math.log(x)
    tau_main = x * lx + (2 * EULER_GAMMA - 1) * x
    weighted_main = x**3 / 3 * lx + x**3 / 3 * (2 * EULER_GAMMA - 1 / 3)
    return DivisorSumCheck(
        x=x,
        tau_exact=tau_exact,
        tau_main=tau_main,
        tau_relative_error=abs(tau_exact - tau_main) / tau_main,
        weighted_exact=weighted_exact,
        weighted_main=weighted_main,
        weighted_relative_error=abs(weighted_exact - weighted_main) / weighted_main,
    )


def h3_partial_sum_upper(terms: int) -> Fraction:
    """An upper bound on sum_{n <= terms} h(n)/n^3, the direct partial sum of H3.

    Each term is rounded up to a multiple of 2^-200 and the terms are added
    as integers, so the bound is exact and exceeds the sum by less than
    terms * 2^-200.
    """
    fix = 1 << 200
    total = sum(-(-h * fix // n**3) for n, h in enumerate(multiplicative_stream(H_COMPLEMENT, terms), 1))
    return Fraction(total, fix)


def h3prime_partial_sum(terms: int, dps: int = 30):
    """(S, margin): S is sum_{n <= terms} h(n) log(n)/n^3, the direct partial sum
    of -H3', in mpmath at dps digits, and |S - exact sum| <= margin.

    Each term takes a log, a product and a quotient, and the sum rounds no
    more than once per addition: at most terms + 3 roundings, each within
    2^(1 - prec) relative of a value at most S. margin is four times their sum.
    """
    import mpmath

    with mpmath.workdps(dps):
        total = mpmath.fsum(h * mpmath.log(n) / n**3 for n, h in enumerate(multiplicative_stream(H_COMPLEMENT, terms), 1))
        return total, 4 * (terms + 3) * total * mpmath.mpf(2) ** (1 - mpmath.mp.prec)


def certify_stream(group: tuple[int, int, int]) -> int:
    """Prove that rank3.subgroup_stream(group) lists every subgroup exactly once;
    return the number of subgroups.

    A subgroup of Z_m x Z_n x Z_r is a lattice L with mZ x nZ x rZ inside L
    inside Z^3, and each such L has exactly one basis (a,0,0), (s,b,0), (u,v,c)
    with a, b, c > 0, 0 <= s < a, 0 <= u < a and 0 <= v < b: its Hermite normal
    form (H. Cohen, A Course in Computational Algebraic Number Theory, 1993,
    2.4.2). So three checks, none of which uses the walk's gcd layer, prove the
    stream exact:
    - sound: per record, a | m, b | n, c | r, the ranges above, (0,n,0) in L
      (a | (n/b) s), (0,0,r) in L (b | (r/c) v and a | (r/c) u - ((r/c) v/b) s),
      and order = (m/a)(n/b)(r/c);
    - distinct: no (a, b, c, s, u, v) repeats;
    - complete: per divisor triple, the records number the admissible (s, v, u),
      counted directly: gcd(r/c, a) values of u per s and v whose
      ((r/c) v/b) s it divides.
    Records come in blocks of one (a, b, c), each divisor triple once and in
    ascending order, so the distinct check holds one block at a time. Each record's t, w and z must
    also give its s, v and u by the paper's rules: s = a t/A,
    v = b X w/(B gcd(t, X)) and u = u0 + (a/C) z with 0 <= u0 < a/C.
    Raises AssertionError naming the first record or triple that fails.
    """
    m, n, r = group
    triples = iter([(a, b, c) for a in _divisors(m) for b in _divisors(n) for c in _divisors(r)])
    total = 0
    for (a, b, c), records in groupby(subgroup_stream(group), itemgetter(3, 4, 5)):
        if (a, b, c) != (want := next(triples, None)):
            raise AssertionError(f"{group}: triple {(a, b, c)} where the divisor triples in ascending order have {want}")
        nb, rc = n // b, r // c
        big_a, big_b, big_c = math.gcd(a, nb), math.gcd(b, rc), math.gcd(a, rc)
        x = big_a * big_b * big_c // math.gcd(a * rc, big_a * big_b * big_c)
        step, want_order = a // big_c, (m // a) * nb * rc
        count, seen = 0, set()
        for sub in records:
            mm, nn, rr, _, _, _, t, w, z, s, u, v, order = sub
            if not (
                (mm, nn, rr) == group
                and 0 <= s < a
                and 0 <= u < a
                and 0 <= v < b
                and nb * s % a == 0
                and rc * v % b == 0
                and (rc * u - rc * v // b * s) % a == 0
                and order == want_order
            ):
                raise AssertionError(f"{sub}: not a subgroup's Hermite normal form")
            if not (s * big_a == a * t and v * big_b * math.gcd(t, x) == b * x * w and 0 <= u - step * z < step):
                raise AssertionError(f"{sub}: t, w, z do not give s, v, u")
            seen.add((s, u, v))
            count += 1
            if len(seen) != count:
                raise AssertionError(f"{sub}: repeated")
        # gcd(r/c, a) values of u solve (r/c) u = ((r/c) v/b) s (mod a) when it divides the right side
        vs = [v for v in range(b) if rc * v % b == 0]
        admissible = sum(big_c for s in range(a) if nb * s % a == 0 for v in vs if rc * v // b * s % big_c == 0)
        if count != admissible:
            raise AssertionError(f"triple {(a, b, c)} of {group}: {count} records, {admissible} subgroups")
        total += count
    if (want := next(triples, None)) is not None:
        raise AssertionError(f"{group}: the stream ends before triple {want}")
    return total


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def order_terms_mismatch(top: int) -> tuple[int, int, int] | None:
    """The first exponent triple up to top, in any axis order (the kernel branches on it), where typecounts.order_terms
    differs, polynomial by polynomial, from the sum over the types mu of each order of type_count(lam, mu); else None.

    The Gaussian-binomial count by type is a theorem, so None proves order_terms on these triples for every prime.
    """
    by_type = {}
    for parts in combinations_with_replacement(range(top, -1, -1), 3):
        lam = Partition(tuple(part for part in parts if part))
        sums = [[] for _ in range(lam.size + 1)]
        for mu in subpartitions(lam):
            sums[mu.size].append(type_count(lam, mu).coefficients)
        by_type[parts] = tuple(IntPolynomial(map(sum, zip_longest(*row, fillvalue=0))) for row in sums)
    return next((nu for nu in product(range(top + 1), repeat=3) if order_terms(*nu) != by_type[tuple(sorted(nu, reverse=True))]), None)


def count_cyclic_mismatch(top: int) -> tuple[tuple[int, int, int], int] | None:
    """The first exponent triple nu up to top, in any axis order, and prime p where rank3.count_cyclic of
    (p^nu1, p^nu2, p^nu3) differs from 1 plus the Gaussian-binomial counts of the types (k); else None.

    The cyclic subgroups of order p^k are those of type (k). Both sides are polynomials in p of degree at most
    nu1 + nu2 + nu3, so agreeing at that many primes plus one proves each triple for every prime.
    """
    primes = primes_up_to(10 * (3 * top + 1))  # holds the 3 top + 1 primes that (top, top, top) takes
    by_type = {}
    for parts in combinations_with_replacement(range(top, -1, -1), 3):
        lam = Partition(tuple(part for part in parts if part))
        rows = [type_count(lam, Partition((k,))).coefficients for k in range(1, parts[0] + 1)]
        by_type[parts] = IntPolynomial(map(sum, zip_longest([1], *rows, fillvalue=0)))
    return next(((nu, p) for nu in product(range(top + 1), repeat=3) for p in primes[: sum(nu) + 1]
                 if count_cyclic(tuple(p**e for e in nu)) != by_type[tuple(sorted(nu, reverse=True))](p)), None)
