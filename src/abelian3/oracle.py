"""Brute-force subgroup lattices built by joining cyclic subgroups.

Ground truth for the structured enumerations in rank2/rank3: nothing here
shares code with those modules beyond modular addition itself. Groups are
direct products of cyclic groups of the given orders; elements are encoded
as mixed-radix integers and addition is a precomputed table, which keeps the
join loops cheap; one list of all elements, indexed by code, turns codes back
into elements. The lattice walk joins only cyclic subgroups of prime-power
order (see all_subgroups).
"""

from __future__ import annotations

from itertools import chain, product
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
    return _canonical(members, _elements(orders))


def all_subgroups(orders: Sequence[int]) -> set[ElementSet]:
    """Every subgroup of prod Z_orders[i], as canonical element tuples.

    A depth-first walk starts at the trivial subgroup and joins each subgroup
    it finds with each cyclic subgroup of prime-power order not inside it.
    No subgroup is missed: a subgroup H of a finite abelian group is the
    direct sum of its Sylow p-parts, each p-part is generated by its own
    elements, and those have p-power order. So H is the join of finitely many
    cyclic subgroups of prime-power order, and the walk reaches H along the
    chain of joins that adds them one at a time. Joining a cyclic subgroup
    whose order is not a prime power is redundant, since it is the join of
    its prime-power parts.
    """
    orders = tuple(orders)
    table = _addition_table(orders)
    generators = [g for g, multiples in _cyclic_generators(table).items() if _is_prime_power(len(multiples))]
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
    elements = _elements(orders)
    return {_canonical(sub, elements) for sub in found}


def cyclic_subgroups(orders: Sequence[int]) -> set[ElementSet]:
    """The distinct subgroups generated by single elements."""
    orders = tuple(orders)
    table = _addition_table(orders)
    elements = _elements(orders)
    return {_canonical(multiples, elements) for multiples in _cyclic_generators(table).values()}


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


def _elements(orders: tuple[int, ...]) -> list[Element]:
    """Every element, indexed by its code: the first axis varies fastest, as in _encode."""
    return [t[::-1] for t in product(*map(range, reversed(orders)))]


def _is_prime_power(n: int) -> bool:
    """True for n = p^k with p prime and k >= 1; n is an element order, so trial division is cheap."""
    if n < 2:
        return False
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


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


def _canonical(member_codes: Iterable[int], elements: list[Element]) -> ElementSet:
    return tuple(sorted(map(elements.__getitem__, member_codes)))
