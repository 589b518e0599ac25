"""Brute-force subgroup lattices built by joining cyclic subgroups.

Ground truth for the structured enumerations in rank2/rank3: nothing here
shares code with those modules beyond modular addition itself. Groups are
direct products of cyclic groups of the given orders. Elements are encoded
as mixed-radix integers with the last axis varying fastest, so ascending
codes are ascending element tuples, and a set of elements is an int with
one bit per code. Translating a set by an element rotates the digit blocks
of each axis the element moves along (see _axes). The lattice walk joins
only cyclic subgroups of prime-power order (see all_subgroups).

Groups with the same orders above 1 have one lattice up to an isomorphism
that moves each digit to a new stride.
"""

from __future__ import annotations

import re
from itertools import product
from math import gcd, isqrt, lcm, prod
from typing import Sequence

from .config import ELEMENT_BOUND

# (lo, up, hi, down): x -> (x & lo) << up | (x & hi) >> down translates x along one axis
Shift = tuple[int, int, int, int]

# Joins one all_subgroups call may make: groups of order <= 200 need at most 8,805
# ((4, 4, 8)), (32, 64) 27,069; at ~18 us a join on 4096 elements, refusing takes < 1 s.
MAX_JOINS = 1 << 15


def all_subgroups(orders: Sequence[int]) -> set[int]:
    """Every subgroup of prod Z_orders[i], as masks of element codes.

    A depth-first walk starts at the trivial subgroup and joins each subgroup
    it finds with each cyclic subgroup of prime-power order not inside it.
    No subgroup is missed: a subgroup H of a finite abelian group is the
    direct sum of its Sylow p-parts, each p-part is generated by its own
    elements, and those have p-power order. So H is the join of finitely many
    cyclic subgroups of prime-power order, and the walk reaches H along the
    chain of joins that adds them one at a time. Those cyclic subgroups are
    listed inside each Sylow p-subgroup: the elements whose digits are
    multiples of the part of each order prime to p. More than MAX_JOINS joins
    raise ValueError.
    """
    orders = tuple(orders)
    axes = _axes(orders)
    primes, rest = [], prod(orders)
    for p in range(2, isqrt(rest) + 1):
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
    primes += [rest] * (rest > 1)
    generators = [
        (1 << codes[0], codes, moves)
        for p in primes
        for codes, moves in _cyclic_generators(axes, [o // gcd(o, p ** o.bit_length()) for o in orders])
    ]
    found = {1}
    stack = [1]
    joins = 0
    while stack:
        sub = stack.pop()
        for bit, codes, moves in generators:
            if not sub & bit:
                joins += 1
                if joins > MAX_JOINS:
                    raise ValueError(f"the subgroup lattice of {orders} needs more than {MAX_JOINS} joins")
                grown = _join(sub, codes, moves)
                if grown not in found:
                    found.add(grown)
                    stack.append(grown)
    return found


def decode(members: int, items: Sequence) -> list:
    """The items at the codes set in members, in code order; with the group's
    elements in code order as items, the elements of the subgroup members."""
    return [items[one.start()] for one in re.finditer("1", bin(members)[:1:-1])]


def _check_orders(orders: tuple[int, ...]) -> None:
    if not orders or any(o < 1 for o in orders):
        raise ValueError(f"orders must be positive, got {orders}")
    if (total := prod(orders)) > ELEMENT_BOUND:
        raise ValueError(f"group order {total} exceeds the element bound {ELEMENT_BOUND}")


def _axes(orders: tuple[int, ...]) -> list[tuple[int, int, list[Shift]]]:
    """(order o, stride s, shifts) per axis; s is the product of the later orders.

    Digit blocks of the axis are s*o bits long. Adding a (0 < a < o) moves the
    digits below o - a up by a*s bits and the rest down by (o - a)*s bits, so
    shifts[a] is (lo, a*s, hi, (o - a)*s) with lo and hi masking those digits.
    """
    _check_orders(orders)
    full = (1 << prod(orders)) - 1
    axes = []
    for i, o in enumerate(orders):
        stride = prod(orders[i + 1:])
        repeat = full // ((1 << o * stride) - 1)  # bit 0 of every block
        lows = [((1 << (o - a) * stride) - 1) * repeat for a in range(o)]
        axes.append((o, stride, [(lo, a * stride, full ^ lo, (o - a) * stride) for a, lo in enumerate(lows)]))
    return axes


def _cyclic_generators(axes: list, steps: Sequence[int]) -> list[tuple[list[int], tuple[Shift, ...]]]:
    """_multiples of one generator g per nontrivial cyclic subgroup of the
    subgroup whose digits are multiples of steps, in code order.

    k*g generates <g> exactly when gcd(k, ord g) = 1; such k*g are not listed.
    """
    covered = bytearray(prod(o for o, _, _ in axes))
    covered[0] = 1
    generators = []
    digits = [range(0, o, step) for (o, _, _), step in zip(axes, steps)]
    places = [range(0, o * stride, step * stride) for (o, stride, _), step in zip(axes, steps)]
    for g, code in zip(product(*digits), map(sum, product(*places))):
        if not covered[code]:
            codes, moves = _multiples(g, axes)
            for k, c in enumerate(codes, 1):
                covered[c] |= gcd(k, len(codes)) == 1
            generators.append((codes, moves))
    return generators


def _multiples(g: Sequence[int], axes: list) -> tuple[list[int], tuple[Shift, ...]]:
    """The codes of g, 2g, ..., ord(g)*g = 0, and the shifts that translate by g; g is reduced."""
    n = lcm(*(o // gcd(x, o) for x, (o, _, _) in zip(g, axes)))
    columns = [[k * x % o * stride for k in range(1, n + 1)] for x, (o, stride, _) in zip(g, axes)]
    return list(map(sum, zip(*columns))), tuple(shifts[x] for x, (_, _, shifts) in zip(g, axes) if x)


def _join(sub: int, codes: list[int], moves: tuple[Shift, ...]) -> int:
    """sub + <g> as the OR of the translates sub + k*g, up to the first k*g in sub;
    codes lists the codes of g, 2g, ..., and moves translates by g."""
    grown = t = sub
    for code in codes:
        if sub >> code & 1:
            return grown
        for lo, up, hi, down in moves:
            t = (t & lo) << up | (t & hi) >> down
        grown |= t
    return grown
