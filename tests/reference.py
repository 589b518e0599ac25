"""Reference routes that only the tests use, each written once.

Each is a slow or classical evaluation that a library value is checked
against: the gcd sum by its definition, tau and mu as prime-power rules, and
the divisor-sum partial sums by hyperbola identities.
"""

import math
from itertools import repeat
from typing import NamedTuple

from abelian3.asymptotics import EULER_GAMMA


def gcd_sum_direct(n: int) -> int:
    """Reference evaluation of P(n) = sum_{k=1..n} gcd(k, n); O(n) time."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum(map(math.gcd, range(1, n + 1), repeat(n)))


# The divisor count and the Moebius function, as prime-power rules.
TAU = lambda p, e: e + 1
MOBIUS = lambda p, e: -1 if e == 1 else 0


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
