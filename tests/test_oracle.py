import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from abelian3 import oracle
from abelian3.config import ELEMENT_BOUND


# every abelian group of order <= 32 and rank <= 3, once, as Z_d1 x Z_d2 x Z_d3 with d1 | d2 | d3
SMALL_GROUPS = [
    (d1, d2, d3)
    for d1 in range(1, 33)
    for d2 in range(d1, 33, d1)
    for d3 in range(d2, 32 // (d1 * d2) + 1, d2)
]


def elements(orders):
    return list(itertools.product(*(range(o) for o in orders)))


def members(mask, orders):
    """The elements of a subgroup mask, in code order."""
    return tuple(oracle.decode(mask, elements(orders)))


def reference_all_subgroups(orders):
    """The saturate-every-element search: extend each subgroup found by every element outside it."""
    zero = (0,) * len(orders)

    def saturate(gens):
        members, work = {zero}, [zero]
        while work:
            x = work.pop()
            for g in gens:
                y = tuple((a + b) % o for a, b, o in zip(x, g, orders))
                if y not in members:
                    members.add(y)
                    work.append(y)
        return frozenset(members)

    found = {saturate(()): ()}
    stack = list(found)
    while stack:
        sub = stack.pop()
        for g in elements(orders):
            if g not in sub:
                gens = found[sub] + (g,)
                grown = saturate(gens)
                if grown not in found:
                    found[grown] = gens
                    stack.append(grown)
    return {tuple(sorted(sub)) for sub in found}


class TestClosure:
    def test_trivial(self):
        assert oracle.closure([], (2, 2, 2)) == 1
        assert members(1, (2, 2, 2)) == ((0, 0, 0),)

    def test_single_generator(self):
        got = oracle.closure([(1, 1, 0)], (2, 2, 2))
        assert members(got, (2, 2, 2)) == ((0, 0, 0), (1, 1, 0))

    def test_generators_reduced_mod_orders(self):
        assert members(oracle.closure([(3, 2, 2)], (2, 2, 2)), (2, 2, 2)) == ((0, 0, 0), (1, 0, 0))

    def test_full_group(self):
        got = oracle.closure([(1, 0), (0, 1)], (2, 3))
        assert got == (1 << 6) - 1

    def test_idempotent(self):
        first = oracle.closure([(2, 1, 0)], (4, 4, 2))
        again = oracle.closure(members(first, (4, 4, 2)), (4, 4, 2))
        assert first == again


class TestLattice:
    def test_counts_small(self):
        assert len(oracle.all_subgroups((1, 1, 1))) == 1
        assert len(oracle.all_subgroups((2, 2, 2))) == 16
        assert len(oracle.all_subgroups((2, 2, 1))) == 5
        assert len(oracle.all_subgroups((4, 2))) == 8

    def test_every_set_is_subgroup(self):
        orders = (4, 6)
        for sub in oracle.all_subgroups(orders):
            points = set(members(sub, orders))
            assert (0, 0) in points
            for a in points:
                for b in points:
                    total = tuple((x + y) % o for x, y, o in zip(a, b, orders))
                    assert total in points

    def test_lagrange(self):
        total = 2 * 4 * 3
        for sub in oracle.all_subgroups((2, 4, 3)):
            assert total % sub.bit_count() == 0

    def test_cyclic_group_has_one_subgroup_per_divisor(self):
        for n in range(1, 61):
            tau = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert len(oracle.all_subgroups((n,))) == tau, n

    def test_elementary_abelian_counts(self):
        # sums of Gaussian binomials: 1 + 15 + 35 + 15 + 1 and 1 + 13 + 13 + 1
        assert len(oracle.all_subgroups((2, 2, 2, 2))) == 67
        assert len(oracle.all_subgroups((3, 3, 3))) == 28

    def test_matches_saturation_reference(self):
        assert len(SMALL_GROUPS) == 52
        for group in SMALL_GROUPS:
            assert {members(sub, group) for sub in oracle.all_subgroups(group)} == reference_all_subgroups(group), group

    def test_matches_saturation_reference_in_any_axis_order(self):
        # groups not written as d1 | d2 | d3: the element list's radix order
        # and the prime-power generator filter must hold for every layout
        groups = [(m, n, r) for m in range(1, 25) for n in range(1, 24 // m + 1) for r in range(1, 24 // (m * n) + 1)]
        for group in [*groups, (4, 3, 2), (2, 3, 4), (8,), (2, 2, 2, 2)]:
            assert {members(sub, group) for sub in oracle.all_subgroups(group)} == reference_all_subgroups(group), group

    def test_rank2_projection_consistency(self):
        # collapsing a trivial third factor reproduces the rank-2 lattice
        for m in range(1, 7):
            for n in range(1, 7):
                flat = {tuple((x, y) for x, y, _ in members(sub, (m, n, 1))) for sub in oracle.all_subgroups((m, n, 1))}
                assert flat == {members(sub, (m, n)) for sub in oracle.all_subgroups((m, n))}


class TestCyclic:
    def test_counts(self):
        assert len(oracle.cyclic_subgroups((1, 1, 1))) == 1
        assert len(oracle.cyclic_subgroups((2, 2, 2))) == 8
        assert len(oracle.cyclic_subgroups((3, 3, 1))) == 5

    def test_subset_of_all(self):
        group = (4, 2, 2)
        assert oracle.cyclic_subgroups(group) <= oracle.all_subgroups(group)

    def test_matches_closure_of_each_element(self):
        for group in SMALL_GROUPS:
            want = {oracle.closure([g], group) for g in elements(group)}
            assert oracle.cyclic_subgroups(group) == want, group

    def test_each_generated_by_one_element(self):
        group = (6, 2)
        for sub in oracle.cyclic_subgroups(group):
            assert any(oracle.closure([g], group) == sub for g in members(sub, group))


class TestAdditionTable:
    """Addition as the oracle does it: translating bitmasks of element codes."""

    @pytest.mark.parametrize("orders", [(1,), (5,), (4, 6, 5), (3, 1, 7), (2, 2, 2, 2)])
    def test_matches_mixed_radix_definition(self, orders):
        def encode(digits):  # mixed radix, the last axis varying fastest
            code = 0
            for d, o in zip(digits, orders):
                code = code * o + d % o
            return code

        points = elements(orders)
        assert [encode(x) for x in sorted(points)] == list(range(len(points)))
        assert oracle.decode((1 << len(points)) - 1, points) == sorted(points)
        axes = oracle._axes(orders)
        for x in points:
            _, moves = oracle._multiples(x, axes)
            for y in points:
                mask = 1 << encode(y)
                for lo, up, hi, down in moves:
                    mask = (mask & lo) << up | (mask & hi) >> down
                assert mask == 1 << encode([a + b for a, b in zip(x, y)]), (x, y)

    def test_lattice_runs_without_numpy(self):
        code = (
            "import sys\n"
            "from abelian3 import oracle\n"
            "assert len(oracle.all_subgroups((2, 3, 4))) == 16\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(oracle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr


class TestBound:
    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="element bound"):
            oracle.all_subgroups((17, 17, 17))

    def test_closure_at_the_bound(self):
        with pytest.raises(ValueError, match=f"group order {ELEMENT_BOUND + 1} exceeds the element bound {ELEMENT_BOUND}"):
            oracle.closure([(0,)], (ELEMENT_BOUND + 1,))
        assert oracle.closure([(1, 0), (0, 1)], (64, 64)).bit_count() == ELEMENT_BOUND

    def test_join_budget(self, monkeypatch):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"\(16, 16, 16\) needs more than 32768 joins"):
            oracle.all_subgroups((16, 16, 16))
        assert time.perf_counter() - start < 2
        monkeypatch.setattr(oracle, "MAX_JOINS", 8804)
        with pytest.raises(ValueError, match=r"\(4, 4, 8\) needs more than 8804 joins"):
            oracle.all_subgroups((4, 4, 8))

    def test_budget_covers_largest_rank2_group(self):
        # Z_32 x Z_64 has sum(gcd(a, b) for a | 32, b | 64) subgroups and needs 27,069 joins
        divisors = lambda n: [d for d in range(1, n + 1) if n % d == 0]
        assert len(oracle.all_subgroups((32, 64))) == sum(math.gcd(a, b) for a in divisors(32) for b in divisors(64))

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            oracle.all_subgroups(())
        with pytest.raises(ValueError):
            oracle.all_subgroups((0, 2))
