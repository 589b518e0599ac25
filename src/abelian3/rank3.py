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

subgroup_runs walks the family once: divisor lists per group; (A, B, C, X),
the order and the inverse of (r/c)/C modulo a/C per divisor triple;
gcd(t, X) per t; and s, v and the least solution u0 of the u-congruence
(r/c) u = (r/c) v s / b (mod a) per (t, w). That solve fixes a run of C
subgroups, u = u0 + (a/C) z for 0 <= z < C, which the walk yields as one
item. subgroup_stream expands the runs into one Subgroup record per
subgroup, whose fields are the CLI's columns.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

from . import arith
from .arith import divisors, gcd_sum
from .config import ELEMENT_BOUND
from .typecounts import order_terms, symbolic_count

Group3 = tuple[int, int, int]
_new_tuple = tuple.__new__  # Subgroup(...) without the Python frame of NamedTuple.__new__


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


def subgroup_runs(group: Group3) -> Iterator[tuple[Subgroup, int, int]]:
    """Yield a run (first, C, a/C) per (a, b, c, t, w), in ascending order.

    A run is the C subgroups first with z = k and u = first.u + (a/C) k for
    0 <= k < C, so the run lengths sum to count_total(group). The module
    docstring lists what is computed at which loop level.
    """
    m, n, r = _validated(group)
    for a, b, c in product(divisors(m), divisors(n), divisors(r)):
        dp = derived_params(a, b, c, group)
        rc, step = r // c, a // dp.C
        order = (m // a) * (n // b) * rc
        shifts = _shift_rule(a, b, rc, dp)
        for t in range(dp.A):
            g = math.gcd(t, dp.X)  # gcd(0, X) = X
            for w in range(dp.B * g // dp.X):
                s, v, u0 = shifts(t, g, w)
                # positional arguments: keywords make the walk about a fifth slower
                yield Subgroup(m, n, r, a, b, c, t, w, 0, s, u0, v, order), dp.C, step


def subgroup_stream(group: Group3) -> Iterator[Subgroup]:
    """Yield a Subgroup for every subgroup, in ascending (a, b, c, t, w, z): the runs of subgroup_runs, expanded."""
    for first, length, step in subgroup_runs(group):
        yield first
        m, n, r, a, b, c, t, w, _, s, u0, v, order = first
        for z in range(1, length):
            yield _new_tuple(Subgroup, (m, n, r, a, b, c, t, w, z, s, u0 + step * z, v, order))


def enumerate_sextuples(group: Group3) -> Iterator[Sextuple]:
    """The parameter sextuples of subgroup_stream, in ascending order."""
    return (Sextuple(*sub[3:9]) for sub in subgroup_stream(group))


def materialize(sx: Sextuple, group: Group3) -> Subgroup:
    """Solve one sextuple on its own (the tests' reference for subgroup_stream).

    Checks the ranges with derived_params and gcd(t, X), takes (s, v, u0)
    from the triple's _shift_rule as the walk does, and sets u = u0 + (a/C) z.
    """
    m, n, r = _validated(group)
    a, b, c, t, w, z = sx
    dp = derived_params(a, b, c, group)
    g = math.gcd(t, dp.X)
    if not (0 <= t < dp.A and 0 <= w < dp.B * g // dp.X and 0 <= z < dp.C):
        raise ValueError(f"{sx} outside the admissible ranges for {group}")
    s, v, u0 = _shift_rule(a, b, r // c, dp)(t, g, w)
    return Subgroup(m, n, r, a, b, c, t, w, z, s, u0 + (a // dp.C) * z, v, (m // a) * (n // b) * (r // c))


def _shift_rule(a: int, b: int, rc: int, dp: DerivedParams) -> Callable[[int, int, int], tuple[int, int, int]]:
    """The shift algebra of one divisor triple, given rc = r/c: a function
    (t, g, w) -> (s, v, u0) for g = gcd(t, X).

    s = a t / A and v = b X w / (B g) are exact divisions; u0 is the least of
    the C solutions, a/C apart, of (r/c) u = (r/c) v s / b (mod a). C =
    gcd(r/c, a) and the inverse of (r/c)/C modulo a/C depend only on the
    triple, so they are computed here, once.
    """
    big_a, big_b, big_c, x = dp
    assert math.gcd(rc, a) == big_c
    period = a // big_c
    inverse = pow(rc // big_c, -1, period)

    def shifts(t: int, g: int, w: int) -> tuple[int, int, int]:
        assert (a * t) % big_a == 0
        s = a * t // big_a
        den = big_b * g
        assert (b * x * w) % den == 0
        v = b * x * w // den
        assert (rc * v) % b == 0
        rhs = (rc * v // b) * s
        assert rhs % big_c == 0
        return s, v, rhs // big_c * inverse % period

    return shifts


def subgroup_elements(sub: Subgroup, strides: Sequence[int] | None = None) -> int:
    """The element set {i (a,0,0) + j (s,b,0) + k (u,v,c)} as a mask with bit
    x sx + y sy + z sz set for each element (x, y, z), strides (sx, sy, sz)
    defaulting to (n r, r, 1): for j < n/b and k < r/c, the line of multiples
    of (a,0,0) moved to ((j s + k u) mod a, (j b + k v) mod n, k c), which
    does not wrap as it starts below a. verify passes the codes of its lattice
    key, the orders above 1 sorted (stride 1 on an order-1 axis). Refuses
    groups of order above config.ELEMENT_BOUND, and raises ValueError unless
    the set has order elements, all below m n r (strides that do not code
    the group one to one break this).
    """
    m, n, r, a, b, c, _, _, _, s, u, v, order = sub
    total = m * n * r
    if total > ELEMENT_BOUND:
        raise ValueError(f"group order {total} exceeds the element bound {ELEMENT_BOUND}")
    sx, sy, sz = strides or (n * r, r, 1)
    line = ((1 << m * sx) - 1) // ((1 << a * sx) - 1)  # bit 0 of every block of a sx bits
    mask = 0
    for k in range(r // c):
        for j in range(n // b):
            mask |= line << ((j * s + k * u) % a * sx + (j * b + k * v) % n * sy + k * c * sz)
    if mask.bit_count() != order or mask.bit_length() > total:
        raise ValueError(
            f"sextuple {tuple(sub[3:9])} of {sub.group}: mask has {mask.bit_count()} bits and bit length "
            f"{mask.bit_length()}, want {order} bits below m*n*r = {total}"
        )
    return mask


def prime_exponents(group: Group3) -> dict[int, list[int]]:
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
    return math.prod(symbolic_count(*exps)(p) for p, exps in prime_exponents(group).items())


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
    for p, exps in prime_exponents(group).items():
        k = 0
        while delta % p == 0:
            delta //= p
            k += 1
        total *= order_terms(*exps)[k](p)
    return total


def count_cyclic(group: Group3) -> int:
    """Number of cyclic subgroups of Z_m x Z_n x Z_r.

    Product over the primes p of m n r of 1 + the sum over k >= 1 of the
    number of elements of order p^k over phi(p^k), the number of generators
    of each cyclic subgroup of that order. The elements of order dividing
    p^k number the product over the axes of p^min(k, e), so the sum has
    max(e) terms; the paper's divisor-triple route is a test reference.
    """
    total = 1
    for p, exps in prime_exponents(group).items():
        dividing = [math.prod(p ** min(k, e) for e in exps) for k in range(max(exps) + 1)]
        total *= 1 + sum((dividing[k] - dividing[k - 1]) // ((p - 1) * p ** (k - 1)) for k in range(1, len(dividing)))
    return total


def count_total_divisor_sum(group: Group3) -> int:
    """Reference route for count_total: the paper's divisor-triple sum.

    Sum over divisor triples of (ABC / X^2) P(X), P = Pillai's gcd-sum.
    """
    m, n, r = _validated(group)
    pillai = lru_cache(maxsize=None)(gcd_sum)
    total = 0
    for a, b, c in product(divisors(m), divisors(n), divisors(r)):
        dp = derived_params(a, b, c, group)
        total += (dp.A * dp.B * dp.C) // (dp.X * dp.X) * pillai(dp.X)
    return total


def _validated(group: Group3) -> Group3:
    m, n, r = group
    if m < 1 or n < 1 or r < 1:
        raise ValueError(f"group orders must be positive, got {group}")
    return m, n, r
