"""Subgroups of Z_m x Z_n x Z_r.

The enumeration walks a six-parameter family (a, b, c, t, w, z): divisor
triples (a, b, c) fix the "shape" of a triangular basis

    (a, 0, 0), (s, b, 0), (u, v, c)

and (t, w, z) pick the shifts s, v, u. The derived gcd layer

    A = gcd(a, n/b), B = gcd(b, r/c), C = gcd(a, r/c),
    X = ABC / gcd(a * (r/c), ABC)

controls the admissible ranges: 0 <= t < A, 0 <= w < B gcd(t, X)/X,
0 <= z < C. Each subgroup arises from exactly one parameter choice, which is
what makes the paper's divisor-sum counting formulas exact. Those sums stay
as reference routes for the tests and `verify`; the counts users get are
products over the primes of m n r of terms that depend only on exponents.

subgroup_stream walks the family once: divisor lists per group, (A, B, C, X)
and the order per divisor triple, gcd(t, X) per t, s, v and the least
solution u0 of the u-congruence per (t, w), and u = u0 + (a/C) z per z. It
yields one Subgroup record per subgroup, whose fields are the CLI's columns.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Iterator, NamedTuple

from . import arith
from .arith import PHI, divisors, evaluate, gcd_sum, solve_linear_congruence
from .config import element_bound
from .typecounts import order_terms, symbolic_count

Group3 = tuple[int, int, int]


class Sextuple(NamedTuple):
    a: int
    b: int
    c: int
    t: int
    w: int
    z: int


class DerivedParams(NamedTuple):
    A: int
    B: int
    C: int
    X: int


class Subgroup(NamedTuple):
    """One subgroup of Z_m x Z_n x Z_r: its sextuple (a, b, c, t, w, z), the
    shifts of its triangular basis (a, 0, 0), (s, b, 0), (u, v, c), and its
    order (m/a)(n/b)(r/c). The fields are enumerate's output columns."""

    m: int
    n: int
    r: int
    a: int
    b: int
    c: int
    t: int
    w: int
    z: int
    s: int
    u: int
    v: int
    order: int

    @property
    def group(self) -> Group3:
        return self.m, self.n, self.r

    @property
    def generators(self) -> tuple[tuple[int, int, int], ...]:
        return ((self.a, 0, 0), (self.s, self.b, 0), (self.u, self.v, self.c))


def derived_params(a: int, b: int, c: int, group: Group3) -> DerivedParams:
    """The gcd layer (A, B, C, X) for one divisor triple.

    X divides both A and B; that is load-bearing for the w-range and for the
    exactness of the ABC/X^2 term in count_total_divisor_sum (the per-prime
    counts never build this layer), so both facts are asserted.
    """
    m, n, r = group
    if a < 1 or b < 1 or c < 1 or m % a or n % b or r % c:
        raise ValueError(f"({a}, {b}, {c}) is not a divisor triple of {group}")
    big_a = math.gcd(a, n // b)
    big_b = math.gcd(b, r // c)
    big_c = math.gcd(a, r // c)
    abc = big_a * big_b * big_c
    x = abc // math.gcd(a * (r // c), abc)
    assert big_a % x == 0 and big_b % x == 0
    assert abc % (x * x) == 0
    return DerivedParams(A=big_a, B=big_b, C=big_c, X=x)


def subgroup_stream(group: Group3) -> Iterator[Subgroup]:
    """Yield a Subgroup for every subgroup, in ascending (a, b, c, t, w, z).

    Each quantity is computed at the loop level where its inputs change (see
    the module docstring); the stream length equals count_total(group).
    """
    m, n, r = _validated(group)
    divisors_n, divisors_r = divisors(n), divisors(r)
    for a in divisors(m):
        for b in divisors_n:
            for c in divisors_r:
                dp = derived_params(a, b, c, group)
                rc, step = r // c, a // dp.C
                order = (m // a) * (n // b) * rc
                for t in range(dp.A):
                    g = math.gcd(t, dp.X)  # gcd(0, X) = X
                    for w in range(dp.B * g // dp.X):
                        s, v, u0 = _shifts(a, b, rc, dp, t, g, w)
                        for z in range(dp.C):
                            # positional arguments: keywords make the walk about a fifth slower
                            yield Subgroup(m, n, r, a, b, c, t, w, z, s, u0 + step * z, v, order)


def enumerate_sextuples(group: Group3) -> Iterator[Sextuple]:
    """The parameter sextuples of subgroup_stream, in ascending order."""
    return (Sextuple(*sub[3:9]) for sub in subgroup_stream(group))


def materialize(sx: Sextuple, group: Group3) -> Subgroup:
    """Solve one sextuple on its own (the tests' reference for subgroup_stream).

    Checks the ranges with derived_params and gcd(t, X), takes (s, v, u0)
    from _shifts as the walk does, and sets u = u0 + (a/C) z.
    """
    m, n, r = _validated(group)
    a, b, c, t, w, z = sx
    dp = derived_params(a, b, c, group)
    g = math.gcd(t, dp.X)
    if not (0 <= t < dp.A and 0 <= w < dp.B * g // dp.X and 0 <= z < dp.C):
        raise ValueError(f"{sx} outside the admissible ranges for {group}")
    s, v, u0 = _shifts(a, b, r // c, dp, t, g, w)
    return Subgroup(m, n, r, a, b, c, t, w, z, s, u0 + (a // dp.C) * z, v, (m // a) * (n // b) * (r // c))


def _shifts(a: int, b: int, rc: int, dp: DerivedParams, t: int, g: int, w: int) -> tuple[int, int, int]:
    """(s, v, u0) for one (a, b, c, t, w), given rc = r/c and g = gcd(t, X).

    s = a t / A and v = b X w / (B g) are exact divisions; u0 is the least of
    the C solutions, a/C apart, of (r/c) u = (r/c) v s / b (mod a).
    """
    assert (a * t) % dp.A == 0
    s = a * t // dp.A
    den = dp.B * g
    assert (b * dp.X * w) % den == 0
    v = b * dp.X * w // den
    assert (rc * v) % b == 0
    sol = solve_linear_congruence(rc, (rc * v // b) * s, a)
    assert sol is not None and sol.count == dp.C
    return s, v, sol.base_solution


def subgroup_elements(sub: Subgroup) -> set[tuple[int, int, int]]:
    """The full element set {i (a,0,0) + j (s,b,0) + k (u,v,c)}.

    Refuses groups larger than the configured element bound; override with
    the ABELIAN3_ELEMENT_BOUND environment variable when more is needed.
    """
    m, n, r, a, b, c, _, _, _, s, u, v, order = sub
    total = m * n * r
    bound = element_bound()
    if total > bound:
        raise ValueError(
            f"group order {total} exceeds the element bound {bound}; "
            f"raise ABELIAN3_ELEMENT_BOUND to materialize it"
        )
    elements = set()
    for k in range(r // c):
        third = k * c
        ku, kv = k * u, k * v
        for j in range(n // b):
            second = (j * b + kv) % n
            shift = j * s + ku
            for i in range(m // a):
                elements.add(((i * a + shift) % m, second, third))
    assert len(elements) == order
    return elements


def _prime_exponents(group: Group3) -> dict[int, list[int]]:
    """{p: [v_p(m), v_p(n), v_p(r)]} over the primes p of m n r."""
    exponents: dict[int, list[int]] = {}
    for axis, value in enumerate(_validated(group)):
        for p, e in arith.factorize(value):
            exponents.setdefault(p, [0, 0, 0])[axis] = e
    return exponents


def count_total(group: Group3) -> int:
    """Total number of subgroups of Z_m x Z_n x Z_r.

    Product over the primes p of m n r of symbolic_count(v_p(m), v_p(n),
    v_p(r)) evaluated at p; count_total_divisor_sum is the paper's route.
    """
    return math.prod(symbolic_count(*exps)(p) for p, exps in _prime_exponents(group).items())


def count_by_order(group: Group3, delta: int) -> int:
    """Number of subgroups of order delta; delta must divide m n r.

    Product over the primes p of m n r of the order_terms entry for v_p(delta).
    delta is never factored: its primes are among those of m n r.
    """
    m, n, r = _validated(group)
    whole = m * n * r
    if delta < 1 or whole % delta:
        raise ValueError(f"order {delta} does not divide {whole}")
    total = 1
    for p, exps in _prime_exponents(group).items():
        k = 0
        while delta % p == 0:
            delta //= p
            k += 1
        total *= order_terms(*exps)[k](p)
    return total


def count_cyclic(group: Group3) -> int:
    """Number of cyclic subgroups of Z_m x Z_n x Z_r.

    Product over the primes p of m n r of the sum over exponent triples
    (i, j, k) of phi(p^i) phi(p^j) phi(p^k) / phi(p^max(i, j, k)).
    """
    total = 1
    for p, (e1, e2, e3) in _prime_exponents(group).items():
        phi = [1] + [(p - 1) * p**i for i in range(max(e1, e2, e3))]  # phi[i] = phi(p^i)
        triples = product(range(e1 + 1), range(e2 + 1), range(e3 + 1))
        total *= sum(phi[i] * phi[j] * phi[k] // phi[max(i, j, k)] for i, j, k in triples)
    return total


def count_total_divisor_sum(group: Group3) -> int:
    """Reference route for count_total: the paper's divisor-triple sum.

    Sum over divisor triples of (ABC / X^2) P(X), P = Pillai's gcd-sum.
    """
    m, n, r = _validated(group)
    pillai = lru_cache(maxsize=None)(gcd_sum)
    divisors_n, divisors_r = divisors(n), divisors(r)
    total = 0
    for a in divisors(m):
        for b in divisors_n:
            for c in divisors_r:
                dp = derived_params(a, b, c, group)
                total += (dp.A * dp.B * dp.C) // (dp.X * dp.X) * pillai(dp.X)
    return total


def count_cyclic_divisor_sum(group: Group3) -> int:
    """Reference route for count_cyclic: the whole-group divisor-triple sum.

    Sum of phi(a) phi(b) phi(c) / phi(lcm(a, b, c)); every summand is an
    integer (the number of cyclic subgroups whose projections have orders
    a, b, c), which is asserted.
    """
    m, n, r = _validated(group)
    phi = lru_cache(maxsize=None)(lambda k: evaluate(PHI, k))
    divisors_n, divisors_r = divisors(n), divisors(r)
    total = 0
    for a in divisors(m):
        for b in divisors_n:
            for c in divisors_r:
                num = phi(a) * phi(b) * phi(c)
                den = phi(math.lcm(a, b, c))
                assert num % den == 0
                total += num // den
    return total


def _validated(group: Group3) -> Group3:
    m, n, r = group
    if m < 1 or n < 1 or r < 1:
        raise ValueError(f"group orders must be positive, got {group}")
    return m, n, r
