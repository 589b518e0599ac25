"""Subgroups of Z_m x Z_n: triangular generating pairs and the gcd-sum count.

verify checks count_rank2 against the rank-3 stream of (m, n, 1). The
enumeration here is a reference for tests, which tie it to that stream.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .arith import divisors


class SubgroupBasis2(NamedTuple):
    """Generators (a, 0) and (s, b) of one subgroup of Z_m x Z_n."""

    a: int
    s: int
    b: int
    group: tuple[int, int]

    @property
    def order(self) -> int:
        m, n = self.group
        return (m // self.a) * (n // self.b)


def enumerate_rank2(m: int, n: int) -> Iterator[SubgroupBasis2]:
    """Yield each subgroup of Z_m x Z_n exactly once.

    For a | m and b | n put A = gcd(a, n/b); the admissible first coordinates
    of the second generator are s = (a/A) t with 0 <= t < A. Order of output:
    ascending (a, b, t).
    """
    if m < 1 or n < 1:
        raise ValueError(f"group orders must be positive, got ({m}, {n})")
    for a in divisors(m):
        for b in divisors(n):
            big_a = math.gcd(a, n // b)
            step = a // big_a
            for t in range(big_a):
                yield SubgroupBasis2(a=a, s=step * t, b=b, group=(m, n))


def subgroup_elements_rank2(basis: SubgroupBasis2) -> set[tuple[int, int]]:
    """All elements {i (a, 0) + j (s, b)} of the subgroup."""
    m, n = basis.group
    a, s, b = basis.a, basis.s, basis.b
    elements = {
        ((i * a + j * s) % m, (j * b) % n)
        for j in range(n // b)
        for i in range(m // a)
    }
    assert len(elements) == basis.order
    return elements


def count_rank2(m: int, n: int) -> int:
    """Number of subgroups of Z_m x Z_n: sum of gcd(a, b) over a | m, b | n."""
    if m < 1 or n < 1:
        raise ValueError(f"group orders must be positive, got ({m}, {n})")
    return sum(math.gcd(a, b) for a in divisors(m) for b in divisors(n))
