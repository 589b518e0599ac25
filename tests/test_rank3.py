import math
import os
import subprocess
import sys
import time
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from abelian3 import oracle, rank3
from abelian3.arith import divisors
from abelian3.rank2 import count_rank2
from abelian3.rank3 import (
    Sextuple,
    Subgroup,
    count_by_order,
    count_cyclic,
    count_total,
    count_total_divisor_sum,
    derived_params,
    enumerate_sextuples,
    materialize,
    subgroup_elements,
    subgroup_runs,
    subgroup_stream,
)
from abelian3.typecounts import Partition, order_terms, subpartitions, type_count
import reference
from reference import certify_stream, count_cyclic_divisor_sum, saturate


def triangular_basis(sub):
    """The triangular basis (a,0,0), (s,b,0), (u,v,c) of a Subgroup record."""
    return (sub.a, 0, 0), (sub.s, sub.b, 0), (sub.u, sub.v, sub.c)


def members(mask, group):
    """The elements (x, y, z) whose code x n r + y r + z is set in mask, ascending."""
    m, n, r = group
    return [(x, y, z) for x in range(m) for y in range(n) for z in range(r) if mask >> ((x * n + y) * r + z) & 1]


class TestDerivedParams:
    def test_worked_example(self):
        dp = derived_params(2, 2, 2, (4, 4, 4))
        assert (dp.A, dp.B, dp.C, dp.X) == (2, 2, 2, 2)

    def test_trivial_triple(self):
        dp = derived_params(1, 1, 1, (6, 10, 15))
        assert (dp.A, dp.B, dp.C, dp.X) == (1, 1, 1, 1)

    def test_full_triple(self):
        # a = m, b = n, c = r leaves no room for shifts beyond t < gcd(m, 1)
        dp = derived_params(6, 10, 15, (6, 10, 15))
        assert (dp.A, dp.B, dp.C, dp.X) == (1, 1, 1, 1)

    def test_rejects_non_divisor_triple(self):
        with pytest.raises(ValueError):
            derived_params(3, 1, 1, (2, 2, 2))
        with pytest.raises(ValueError):
            derived_params(0, 1, 1, (2, 2, 2))

    def test_x_divides_a_and_b_everywhere(self):
        for m in range(1, 13):
            for n in range(1, 13):
                for r in range(1, 13):
                    for a in divisors(m):
                        for b in divisors(n):
                            for c in divisors(r):
                                dp = derived_params(a, b, c, (m, n, r))
                                assert dp.A % dp.X == 0
                                assert dp.B % dp.X == 0

    def test_alternative_gcd_form(self):
        # X can also be written B / gcd((a/A)(r/c)/C, B); check the two
        # expressions agree on every divisor triple in a sizable box.
        for m in range(1, 25):
            for n in range(1, 25):
                for r in range(1, 25):
                    for a in divisors(m):
                        for b in divisors(n):
                            for c in divisors(r):
                                dp = derived_params(a, b, c, (m, n, r))
                                rc = r // c
                                alt = dp.B // math.gcd((a // dp.A) * (rc // dp.C), dp.B)
                                assert dp.X == alt, (m, n, r, a, b, c)


class TestEnumerate:
    def test_trivial_group(self):
        assert list(enumerate_sextuples((1, 1, 1))) == [Sextuple(1, 1, 1, 0, 0, 0)]

    def test_stream_length_matches_count(self):
        for group in [(2, 2, 2), (2, 3, 5), (4, 6, 8), (12, 1, 9), (8, 8, 1)]:
            stream = list(enumerate_sextuples(group))
            assert len(stream) == count_total(group)
            assert len(set(stream)) == len(stream)

    def test_stream_is_sorted(self):
        keys = [
            (sx.a, sx.b, sx.c, sx.t, sx.w, sx.z)
            for sx in enumerate_sextuples((4, 6, 8))
        ]
        assert keys == sorted(keys)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(enumerate_sextuples((0, 2, 2)))


class TestSubgroupStream:
    def test_matches_materialize_on_every_small_group(self):
        # materialize solves each sextuple on its own: the reference route
        for m in range(1, 121):
            for n in range(1, 120 // m + 1):
                for r in range(1, 120 // (m * n) + 1):
                    group = (m, n, r)
                    subs = list(subgroup_stream(group))
                    sextuples = [Sextuple(*sub[3:9]) for sub in subs]
                    assert subs == [materialize(sx, group) for sx in sextuples], group
                    keys = [(sx.a, sx.b, sx.c, sx.t, sx.w, sx.z) for sx in sextuples]
                    assert all(x < y for x, y in zip(keys, keys[1:])), group
                    assert len(subs) == count_total(group) == count_total_divisor_sum(group), group

    def test_projections(self):
        subs = list(subgroup_stream((4, 6, 8)))
        assert list(enumerate_sextuples((4, 6, 8))) == [(sub.a, sub.b, sub.c, sub.t, sub.w, sub.z) for sub in subs]
        assert all(type(sx) is Sextuple for sx in enumerate_sextuples((4, 6, 8)))
        assert [sub.group for sub in subs] == [(4, 6, 8)] * len(subs)

    def test_solves_once_per_triple_and_shift(self, monkeypatch):
        # derived_params and the inverse of (r/c)/C modulo a/C once per divisor triple
        calls = {"derived_params": 0, "pow": 0}

        def counting(name, original):
            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        monkeypatch.setattr(rank3, "derived_params", counting("derived_params", rank3.derived_params))
        # rank3 defines no pow, so a module global of that name shadows the builtin
        monkeypatch.setattr(rank3, "pow", counting("pow", pow), raising=False)
        subs = list(subgroup_stream((12, 12, 12)))
        triples = {(sub.a, sub.b, sub.c) for sub in subs}
        assert len(triples) == len(divisors(12)) ** 3
        assert calls == {"derived_params": len(triples), "pow": len(triples)}


SMALL_SHAPES = [(m, n, r) for m in range(1, 121) for n in range(1, 120 // m + 1) for r in range(1, 120 // (m * n) + 1)]


class TestSubgroupRuns:
    def test_stream_is_the_expansion_of_the_runs(self):
        for group in SMALL_SHAPES:
            runs = list(subgroup_runs(group))
            expanded = [first._replace(z=k, u=first.u + step * k) for first, length, step in runs for k in range(length)]
            stream = list(subgroup_stream(group))
            assert stream == expanded, group
            assert all(type(sub) is Subgroup for sub in stream), group

    def test_a_run_is_one_congruence_solve(self):
        # C = gcd(a, r/c) subgroups per (a, b, c, t, w), u stepping by a/C
        for group in [*SMALL_SHAPES, (1024, 1, 1024)]:
            runs = list(subgroup_runs(group))
            for first, length, step in runs:
                big_c = derived_params(first.a, first.b, first.c, group).C
                assert (first.z, length, step) == (0, big_c, first.a // big_c), (group, first)
            assert len({first[3:8] for first, _, _ in runs}) == len(runs), group
            assert sum(length for _, length, _ in runs) == count_total(group), group

    def test_first_u_is_the_least_solution_of_the_u_congruence(self):
        # brute force over [0, a): (r/c) u = (r/c) v s / b (mod a) has exactly
        # C solutions, and the run starts at the least
        for group in [*SMALL_SHAPES, (1024, 1, 1024)]:
            for first, _, _ in subgroup_runs(group):
                a, rc = first.a, first.r // first.c
                assert (rc * first.v * first.s) % first.b == 0, (group, first)
                rhs = rc * first.v * first.s // first.b
                solutions = [u for u in range(a) if (rc * u - rhs) % a == 0]
                assert len(solutions) == derived_params(first.a, first.b, first.c, group).C, (group, first)
                assert first.u == solutions[0], (group, first)


class TestMaterialize:
    def test_diagonal_subgroup_of_2_2_2(self):
        basis = materialize(Sextuple(a=2, b=2, c=1, t=0, w=1, z=1), (2, 2, 2))
        assert (basis.s, basis.v, basis.u) == (0, 1, 1)
        assert members(subgroup_elements(basis), (2, 2, 2)) == [(0, 0, 0), (1, 1, 1)]

    def test_full_group(self):
        sub = materialize(Sextuple(1, 1, 1, 0, 0, 0), (3, 4, 5))
        assert sub.order == 60
        assert triangular_basis(sub) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_record_group_and_generators(self):
        # the values the (Sextuple, basis) pair gave before the single record
        sub = materialize(Sextuple(a=2, b=2, c=1, t=0, w=1, z=1), (2, 2, 2))
        assert sub == (2, 2, 2, 2, 2, 1, 0, 1, 1, 0, 1, 1, 2)
        assert sub.group == (2, 2, 2)
        assert triangular_basis(sub) == ((2, 0, 0), (0, 2, 0), (1, 1, 1))
        sub = materialize(Sextuple(2, 3, 1, 1, 0, 0), (4, 6, 8))
        assert sub.group == (4, 6, 8)
        assert triangular_basis(sub) == ((2, 0, 0), (1, 3, 0), (0, 0, 1))
        assert sub.order == 2 * 2 * 8

    def test_shift_ranges_enforced(self):
        with pytest.raises(ValueError):
            materialize(Sextuple(2, 2, 1, t=5, w=0, z=0), (2, 2, 2))
        with pytest.raises(ValueError):
            materialize(Sextuple(2, 2, 1, t=0, w=2, z=0), (2, 2, 2))
        with pytest.raises(ValueError):
            materialize(Sextuple(2, 2, 1, t=0, w=0, z=2), (2, 2, 2))

    def test_rejects_non_divisor_triple(self):
        with pytest.raises(ValueError):
            materialize(Sextuple(3, 1, 1, 0, 0, 0), (2, 2, 2))

    def test_orders_multiply_out(self):
        for sub in subgroup_stream((4, 6, 2)):
            m, n, r = sub.group
            assert (m * n * r) % sub.order == 0
            assert sub.order == (m // sub.a) * (n // sub.b) * (r // sub.c)
            assert subgroup_elements(sub).bit_count() == sub.order


class TestElements:
    def test_bound_enforced(self):
        sub = materialize(Sextuple(1, 1, 1, 0, 0, 0), (64, 64, 2))
        with pytest.raises(ValueError, match="group order 8192 exceeds the element bound 4096"):
            subgroup_elements(sub)

    def test_bad_strides_raise_a_named_error(self):
        # strides (1, 3, 3) code (4, 1, 3) with overlaps; the whole group's
        # mask then has 10 bits where it must have 12
        sub = materialize(Sextuple(1, 1, 1, 0, 0, 0), (4, 1, 3))
        want = r"sextuple \(1, 1, 1, 0, 0, 0\) of \(4, 1, 3\): mask has 10 bits and bit length 10, want 12 bits below m\*n\*r = 12"
        with pytest.raises(ValueError, match=want):
            subgroup_elements(sub, (1, 3, 3))
        # the check is no assert, so python -O keeps it
        code = (
            "from abelian3.rank3 import Sextuple, materialize, subgroup_elements\n"
            "subgroup_elements(materialize(Sextuple(1, 1, 1, 0, 0, 0), (4, 1, 3)), (1, 3, 3))\n"
        )
        src = str(Path(rank3.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 1
        assert "ValueError: sextuple (1, 1, 1, 0, 0, 0) of (4, 1, 3): mask has 10 bits" in result.stderr

    def test_sets_closed_under_addition(self):
        group = (4, 2, 3)
        m, n, r = group
        for sub in subgroup_stream(group):
            points = members(subgroup_elements(sub), group)
            picks = points[:5]
            for x in picks:
                for y in picks:
                    s = ((x[0] + y[0]) % m, (x[1] + y[1]) % n, (x[2] + y[2]) % r)
                    assert s in points

    def test_masks_match_closure_of_generators(self):
        # saturating the basis adds element tuples until no sum is new;
        # subgroup_elements lays out lines of multiples by modular arithmetic,
        # also in the codes of the orders above 1 stably sorted, as verify does
        shapes = [(m, n, r) for m in range(1, 49) for n in range(1, 48 // m + 1) for r in range(1, 48 // (m * n) + 1)]
        assert len(shapes) == 540
        for group in shapes:
            m, n, r = group
            axes = sorted((i for i in range(3) if group[i] > 1), key=group.__getitem__) or [0]
            key = [group[i] for i in axes]
            strides = [1, 1, 1]
            for k, i in enumerate(axes):
                strides[i] = math.prod(key[k + 1:])
            sx, sy, sz = strides
            for sub in subgroup_stream(group):
                closure = saturate(triangular_basis(sub), group)
                mask = subgroup_elements(sub)
                assert mask == sum(1 << (x * n + y) * r + z for x, y, z in closure), sub
                assert mask.bit_count() == sub.order, sub
                assert subgroup_elements(sub, strides) == sum(1 << x * sx + y * sy + z * sz for x, y, z in closure), sub


class TestCountTotal:
    def test_known_values(self):
        assert count_total((1, 1, 1)) == 1
        assert count_total((2, 2, 2)) == 16
        assert count_total((3, 3, 3)) == 28
        assert count_total((2, 3, 5)) == 8
        assert count_total((4, 6, 8)) == 162

    def test_cyclic_ambient_reduces_to_tau(self):
        for n in range(1, 60):
            assert count_total((n, 1, 1)) == len(divisors(n))

    def test_flat_third_axis_reduces_to_rank2(self):
        for m in range(1, 21):
            for n in range(1, 21):
                assert count_total((m, n, 1)) == count_rank2(m, n), (m, n)

    def test_invariant_under_axis_permutation(self):
        for group in [(4, 6, 8), (2, 9, 5), (12, 2, 2), (8, 3, 9)]:
            values = {count_total(p) for p in permutations(group)}
            assert len(values) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_total((2, 0, 2))

    @given(
        st.integers(1, 60),
        st.integers(1, 60),
        st.integers(1, 60),
        st.integers(1, 60),
        st.integers(1, 60),
        st.integers(1, 60),
    )
    def test_multiplicative_in_coprime_blocks(self, m1, n1, r1, m2, n2, r2):
        if math.gcd(m1 * n1 * r1, m2 * n2 * r2) == 1:
            for count in (count_total, count_total_divisor_sum):
                joint = count((m1 * m2, n1 * n2, r1 * r2))
                assert joint == count((m1, n1, r1)) * count((m2, n2, r2)), count


class TestCountByOrder:
    def test_known_values(self):
        assert count_by_order((2, 2, 2), 1) == 1
        assert count_by_order((2, 2, 2), 2) == 7
        assert count_by_order((2, 2, 2), 4) == 7
        assert count_by_order((2, 2, 2), 8) == 1

    def test_rejects_non_divisor_order(self):
        with pytest.raises(ValueError):
            count_by_order((2, 2, 2), 3)
        with pytest.raises(ValueError):
            count_by_order((2, 2, 2), 0)

    def test_large_prime_order_is_not_factored(self):
        # 10^12 + 39 is prime: each axis factors at once through the primality
        # test, while trial division of delta = p^2 would run up to p.
        p = 10**12 + 39
        start = time.perf_counter()
        assert count_by_order((p, p, 1), p * p) == 1
        assert count_by_order((p, p, 1), p) == p + 1
        assert count_by_order((p, p, p), p * p) == p * p + p + 1
        assert time.perf_counter() - start < 1.0

    def test_partition_of_total(self):
        for group in [(2, 2, 2), (4, 6, 2), (9, 3, 3), (5, 4, 6), (12, 10, 1)]:
            m, n, r = group
            by_order = sum(count_by_order(group, d) for d in divisors(m * n * r))
            assert by_order == count_total(group), group

    def test_order_index_duality(self):
        # subgroups of order d pair off with subgroups of index d
        for group in [(4, 4, 4), (2, 6, 9), (8, 3, 5)]:
            m, n, r = group
            whole = m * n * r
            for d in divisors(whole):
                assert count_by_order(group, d) == count_by_order(group, whole // d)

    def test_matches_oracle_histogram(self):
        group = (4, 2, 3)
        subs = oracle.all_subgroups(group)
        for d in divisors(24):
            assert count_by_order(group, d) == sum(1 for s in subs if s.bit_count() == d)


class TestCountCyclic:
    def test_known_values(self):
        assert count_cyclic((1, 1, 1)) == 1
        assert count_cyclic((3, 3, 1)) == 5
        assert count_cyclic((2, 2, 2)) == 8

    def test_cyclic_ambient_reduces_to_tau(self):
        for n in range(1, 60):
            assert count_cyclic((n, 1, 1)) == len(divisors(n))

    def test_matches_oracle(self):
        # the distinct subgroups that saturating one element gives
        shapes = [(m, n, r) for m in range(1, 33) for n in range(1, 32 // m + 1) for r in range(1, 32 // (m * n) + 1)]
        assert len(shapes) == 300
        for group in shapes:
            want = len({saturate([g], group) for g in product(*map(range, group))})
            assert count_cyclic(group) == want, group

    def test_never_exceeds_total(self):
        for group in [(2, 2, 2), (4, 6, 8), (9, 9, 3)]:
            assert count_cyclic(group) <= count_total(group)

    def test_prime_powers_match_divisor_sum(self):
        for p in (2, 3, 5, 7):
            for exps in product(range(7), repeat=3):
                group = tuple(p**e for e in exps)
                assert count_cyclic(group) == count_cyclic_divisor_sum(group), group


class TestPrimePower:
    def test_matches_general_count(self):
        for p in (2, 3):
            for e1 in range(4):
                for e2 in range(4):
                    for e3 in range(4):
                        group = (p**e1, p**e2, p**e3)
                        assert count_total(group) == count_total_divisor_sum(group), group

    def test_matches_general_count_larger_base(self):
        for e1, e2, e3 in [(1, 1, 1), (2, 1, 0), (2, 2, 2), (3, 1, 2)]:
            group = (5**e1, 5**e2, 5**e3)
            assert count_total(group) == count_total_divisor_sum(group), group

    def test_elementary_abelian_formula(self):
        for p in (2, 3, 5, 7, 11):
            assert count_total((p, p, p)) == 2 * (p * p + p + 2)

    def test_symmetric_in_exponents(self):
        for exps in [(0, 1, 2), (1, 2, 3), (2, 2, 4)]:
            values = {count_total(tuple(2**e for e in p)) for p in permutations(exps)}
            assert len(values) == 1

    def test_rejects_bad_arguments(self):
        # the exponent kernel itself, not only the group validation above it
        with pytest.raises(ValueError):
            order_terms(-1, 0, 0)
        with pytest.raises(ValueError):
            order_terms(2, 0, -3)


class TestReferenceRoutes:
    """The per-prime products against the paper's whole-group divisor sums."""

    @given(st.integers(1, 240), st.integers(1, 240), st.integers(1, 240))
    def test_products_match_divisor_sums(self, m, n, r):
        group = (m, n, r)
        assert count_total(group) == count_total_divisor_sum(group)
        assert count_cyclic(group) == count_cyclic_divisor_sum(group)

    def test_divisor_rich_group_matches_type_count_route(self):
        # 720720 = 2^4 3^2 5 7 11 13; the divisor sums would visit 13.8M
        # triples here. The Gaussian-binomial route counts each p-part by
        # subgroup type, sharing no code with the exponent kernel.
        group = (720720, 720720, 720720)
        local = [(2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]
        orders = [1, 2**4 * 3**2 * 5, 720720, 720720**2 // 77, 720720**3]
        total = cyclic = 1
        by_order = dict.fromkeys(orders, 1)
        for p, e in local:
            lam = Partition((e, e, e))
            per_size: dict[int, int] = {}
            cyclic_here = 0
            for mu in subpartitions(lam):
                value = type_count(lam, mu)(p)
                per_size[mu.size] = per_size.get(mu.size, 0) + value
                if len(mu.parts) <= 1:
                    cyclic_here += value
            total *= sum(per_size.values())
            cyclic *= cyclic_here
            for delta in orders:
                k = 0
                while delta % p ** (k + 1) == 0:
                    k += 1
                by_order[delta] *= per_size[k]
        start = time.perf_counter()
        assert count_total(group) == total
        assert count_cyclic(group) == cyclic
        for delta in orders:
            assert count_by_order(group, delta) == by_order[delta], delta
        assert time.perf_counter() - start < 1.0


class TestOracleAgreement:
    def test_exhaustive_small_box(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for r in range(1, 5):
                    got = {subgroup_elements(sub) for sub in subgroup_stream((m, n, r))}
                    want = oracle.all_subgroups((m, n, r))
                    assert len(got) == count_total((m, n, r)), (m, n, r)
                    assert got == want, (m, n, r)

    @pytest.mark.parametrize("group", [(6, 4, 2), (9, 3, 3), (8, 4, 2), (5, 5, 5)])
    def test_spot_shapes(self, group):
        got = {subgroup_elements(sub) for sub in subgroup_stream(group)}
        want = oracle.all_subgroups(group)
        assert len(got) == count_total(group)
        assert got == want


def planted(fault, stream):
    """stream with one fault of certify_stream's kinds: a wrong u where t = 1,
    a wrong v where w = 1, a dropped record or a repeated record."""
    for k, sub in enumerate(stream):
        if fault == "u" and sub.t == 1:
            sub = sub._replace(u=(sub.u + 1) % sub.a)
        elif fault == "v" and sub.w == 1:
            sub = sub._replace(v=(sub.v + 1) % sub.b)
        elif fault == "dropped" and k == 7:
            continue
        elif fault == "repeated" and k == 7:
            yield sub
        yield sub


class TestCertificate:
    @pytest.mark.parametrize("group", [(30, 60, 90), (64, 64, 64), (36, 72, 144), (100, 100, 100)])
    def test_stream_is_proved_exact(self, group):
        assert certify_stream(group) == count_total(group)

    @given(st.integers(1, 100), st.integers(1, 100), st.integers(1, 100))
    def test_stream_is_proved_exact_on_random_shapes(self, m, n, r):
        assume(count_total((m, n, r)) <= 10**4)
        assert certify_stream((m, n, r)) == count_total((m, n, r))

    @pytest.mark.parametrize("fault", ["u", "v", "dropped", "repeated"])
    def test_each_planted_fault_is_caught(self, monkeypatch, fault):
        monkeypatch.setattr(reference, "subgroup_stream", lambda group: planted(fault, subgroup_stream(group)))
        with pytest.raises(AssertionError):
            certify_stream((12, 24, 36))
