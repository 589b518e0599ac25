"""Brute-force subgroup lattices by closure saturation.

Ground truth for the structured enumerations in rank2/rank3: nothing here
shares code with those modules beyond modular addition itself. Groups are
direct products of cyclic groups of the given orders; elements are encoded
as mixed-radix integers and addition is a precomputed table, which keeps the
saturation loops cheap.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

from .config import element_bound

Element = tuple[int, ...]
ElementSet = tuple[Element, ...]  # sorted canonical form, hashable


def closure(generators: Iterable[Element], orders: Sequence[int]) -> ElementSet:
    """Smallest subgroup of prod Z_orders[i] containing the generators.

    Worklist saturation: keep adding generator translates until nothing new
    appears. Generators are reduced modulo the orders first.
    """
    orders = tuple(orders)
    _check_orders(orders)
    table = _addition_table(orders)
    codes = [_encode(g, orders) for g in generators]
    return _canonical(_saturate(codes, table), orders)


def all_subgroups(orders: Sequence[int]) -> set[ElementSet]:
    """Every subgroup of prod Z_orders[i], as canonical element tuples.

    Breadth-first over the lattice: start at the trivial subgroup, extend
    each discovered subgroup by every element outside it, and close. The
    closure works on the extension's small generating set rather than the
    whole subgroup, which changes nothing about the result.
    """
    orders = tuple(orders)
    total = _check_orders(orders)
    table = _addition_table(orders)
    trivial = frozenset([0])
    generators: dict[frozenset[int], tuple[int, ...]] = {trivial: ()}
    stack = [trivial]
    while stack:
        sub = stack.pop()
        gens = generators[sub]
        for g in range(1, total):
            if g in sub:
                continue
            extended = gens + (g,)
            grown = frozenset(_saturate(list(extended), table))
            if grown not in generators:
                generators[grown] = extended
                stack.append(grown)
    return {_canonical(sub, orders) for sub in generators}


def cyclic_subgroups(orders: Sequence[int]) -> set[ElementSet]:
    """The distinct subgroups generated by single elements."""
    orders = tuple(orders)
    total = _check_orders(orders)
    table = _addition_table(orders)
    seen = {frozenset(_saturate([g], table)) for g in range(total)}
    return {_canonical(sub, orders) for sub in seen}


def _check_orders(orders: tuple[int, ...]) -> int:
    if not orders or any(o < 1 for o in orders):
        raise ValueError(f"orders must be positive, got {orders}")
    total = prod(orders)
    bound = element_bound()
    if total > bound:
        raise ValueError(
            f"group order {total} exceeds the element bound {bound}; "
            f"raise ABELIAN3_ELEMENT_BOUND to go further"
        )
    return total


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
    import numpy as np
    total = prod(orders)
    table = np.zeros((total, total), dtype=np.int32)
    rem = np.arange(total)
    stride = 1
    for o in orders:
        rem, digit = np.divmod(rem, o)
        table += ((digit[:, None] + digit[None, :]) % o) * stride
        stride *= o
    return table.tolist()


def _saturate(gen_codes: list[int], table: list[list[int]]) -> set[int]:
    members = {0}
    work = [0]
    gens = list(dict.fromkeys(gen_codes))
    while work:
        x = work.pop()
        row = table[x]
        for g in gens:
            y = row[g]
            if y not in members:
                members.add(y)
                work.append(y)
    return members


def _canonical(member_codes: Iterable[int], orders: tuple[int, ...]) -> ElementSet:
    return tuple(sorted(_decode(code, orders) for code in member_codes))
