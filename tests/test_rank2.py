import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abelian3 import arith
from abelian3.arith import divisors
from abelian3.rank2 import enumerate_rank2, subgroup_elements_rank2
from abelian3.rank3 import subgroup_stream
from abelian3.verify import count_rank2


def canonical(basis):
    return tuple(sorted(subgroup_elements_rank2(basis)))


class TestCount:
    def test_known_values(self):
        assert count_rank2(1, 1) == 1
        assert count_rank2(2, 2) == 5
        assert count_rank2(4, 2) == 8
        assert count_rank2(6, 4) == 16

    def test_cyclic_ambient_reduces_to_tau(self):
        for n in range(1, 60):
            assert count_rank2(1, n) == len(divisors(n))
            assert count_rank2(n, 1) == len(divisors(n))

    def test_takes_each_divisor_list_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(arith, "divisors", lambda n: calls.append(n) or divisors(n))
        assert count_rank2(12, 18) == 80
        assert calls == [12, 18]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_rank2(0, 3)

    @given(st.integers(1, 400), st.integers(1, 400), st.integers(1, 400), st.integers(1, 400))
    def test_multiplicative_in_coprime_blocks(self, m1, n1, m2, n2):
        if math.gcd(m1 * n1, m2 * n2) == 1:
            assert count_rank2(m1 * m2, n1 * n2) == count_rank2(m1, n1) * count_rank2(m2, n2)


class TestEnumerate:
    def test_trivial_group(self):
        bases = list(enumerate_rank2(1, 1))
        assert len(bases) == 1
        assert canonical(bases[0]) == ((0, 0),)

    def test_2x2(self):
        sets = {canonical(b) for b in enumerate_rank2(2, 2)}
        assert len(sets) == 5
        # the three order-2 subgroups plus trivial and full
        assert ((0, 0), (1, 1)) in sets
        assert ((0, 0), (0, 1), (1, 0), (1, 1)) in sets

    def test_stream_length_matches_formula(self):
        # verify checks the rank-3 stream of (m, n, 1); this ties enumerate_rank2 to it
        for m in range(1, 37):
            for n in range(1, 37):
                bases = [(b.a, b.s, b.b) for b in enumerate_rank2(m, n)]
                assert len(bases) == count_rank2(m, n), (m, n)
                assert bases == [(sub.a, sub.s, sub.b) for sub in subgroup_stream((m, n, 1))], (m, n)

    def test_element_sets_distinct_and_closed(self):
        # every output is genuinely a subgroup, and no subgroup repeats
        for m in range(1, 25):
            for n in range(1, 144 // m + 1):
                seen = set()
                for basis in enumerate_rank2(m, n):
                    elems = subgroup_elements_rank2(basis)
                    assert (0, 0) in elems
                    assert len(elems) == basis.order
                    for x1, y1 in elems:
                        for x2, y2 in elems:
                            assert ((x1 + x2) % m, (y1 + y2) % n) in elems
                    key = tuple(sorted(elems))
                    assert key not in seen
                    seen.add(key)

    def test_orders_divide_group_order(self):
        for basis in enumerate_rank2(12, 8):
            assert (12 * 8) % basis.order == 0
