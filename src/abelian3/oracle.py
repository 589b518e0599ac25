"""Brute-force subgroup lattices built by joining cyclic subgroups.

Ground truth for the structured enumerations in rank2/rank3: nothing here
shares code with those modules beyond modular addition itself. Groups are
direct products of cyclic groups of the given orders; elements are encoded
as mixed-radix integers and addition is a precomputed table, which keeps the
join loops cheap.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, prod
from typing import Iterable, Sequence

from .config import element_bound

Element = tuple[int, ...]
ElementSet = tuple[Element, ...]  # sorted canonical form, hashable


def closure(generators: Iterable[Element], orders: Sequence[int]) -> ElementSet:
    """Smallest subgroup of prod Z_orders[i] containing the generators.

    Joins the cyclic subgroup of each generator in turn onto the trivial
    subgroup. Generators are reduced modulo the orders first.
    """
    orders = tuple(orders)
    table = _addition_table(orders)
    members = frozenset([0])
    for g in generators:
        members = _join(members, _encode(g, orders), table)
    return _canonical(members, orders)


def all_subgroups(orders: Sequence[int]) -> set[ElementSet]:
    """Every subgroup of prod Z_orders[i], as canonical element tuples.

    Every subgroup is a join of cyclic subgroups, so a depth-first walk that
    starts at the trivial subgroup and joins each subgroup it finds with each
    cyclic subgroup not inside it reaches the whole lattice.
    """
    orders = tuple(orders)
    table = _addition_table(orders)
    generators = list(_cyclic_generators(table))
    found = {frozenset([0])}
    stack = list(found)
    while stack:
        sub = stack.pop()
        for g in generators:
            if g not in sub:
                grown = _join(sub, g, table)
                if grown not in found:
                    found.add(grown)
                    stack.append(grown)
    return {_canonical(sub, orders) for sub in found}


def cyclic_subgroups(orders: Sequence[int]) -> set[ElementSet]:
    """The distinct subgroups generated by single elements."""
    orders = tuple(orders)
    table = _addition_table(orders)
    return {_canonical(multiples, orders) for multiples in _cyclic_generators(table).values()}


def _check_orders(orders: tuple[int, ...]) -> None:
    if not orders or any(o < 1 for o in orders):
        raise ValueError(f"orders must be positive, got {orders}")
    total = prod(orders)
    bound = element_bound()
    if total > bound:
        raise ValueError(
            f"group order {total} exceeds the element bound {bound}; "
            f"raise ABELIAN3_ELEMENT_BOUND to go further"
        )


def _encode(element: Sequence[int], orders: tuple[int, ...]) -> int:
    if len(element) != len(orders):
        raise ValueError(f"element {element} does not match orders {orders}")
    code = 0
    stride = 1
    for x, o in zip(element, orders):
        code += (x % o) * stride
        stride *= o
    return code


def _decode(code: int, orders: tuple[int, ...]) -> Element:
    out = []
    for o in orders:
        code, digit = divmod(code, o)
        out.append(digit)
    return tuple(out)


def _addition_table(orders: tuple[int, ...]) -> list[list[int]]:
    """table[x][y] is the code of decode(x) + decode(y), built one axis at a time.

    For an axis of order o and stride s, with x and y below s, the sum of
    x + s*a and y + s*b is table[x][y] + s*((a + b) % o).
    """
    _check_orders(orders)
    table = [[0]]
    stride = 1
    for o in orders:
        shifted = [[[v + stride * c for v in row] for c in range(o)] for row in table]
        table = [list(chain.from_iterable(s[a:] + s[:a])) for a in range(o) for s in shifted]
        stride *= o
    return table


def _cyclic_generators(table: list[list[int]]) -> dict[int, list[int]]:
    """One generator per cyclic subgroup, mapped to its multiples 0, g, 2g, ...

    k*g generates <g> exactly when gcd(k, ord g) = 1; such k*g are not listed.
    """
    covered: set[int] = set()
    generators: dict[int, list[int]] = {}
    for g in range(len(table)):
        if g not in covered:
            multiples = [0]
            x = g
            while x:
                multiples.append(x)
                x = table[x][g]
            covered.update(x for k, x in enumerate(multiples) if gcd(k, len(multiples)) == 1)
            generators[g] = multiples
    return generators


def _join(sub: frozenset[int], g: int, table: list[list[int]]) -> frozenset[int]:
    """sub + <g> as the union of the cosets sub + k*g, up to the first k*g in sub."""
    grown = set(sub)
    x = g
    while x not in sub:
        row = table[x]
        grown.update([row[h] for h in sub])
        x = row[g]
    return frozenset(grown)


def _canonical(member_codes: Iterable[int], orders: tuple[int, ...]) -> ElementSet:
    return tuple(sorted(_decode(code, orders) for code in member_codes))
