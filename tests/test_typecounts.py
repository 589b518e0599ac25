import csv
import math
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abelian3.rank3 import count_by_order, count_total, count_total_divisor_sum
from abelian3.typecounts import (
    ONE,
    ZERO,
    IntPolynomial,
    Partition,
    count_degree,
    gaussian_binomial,
    general_form,
    h_closed_form,
    h_recurrence,
    order_terms,
    subpartitions,
    symbolic_count,
    type_count,
    type_count_degree,
)

DATA = Path(__file__).parent / "data"

small_polys = st.builds(
    IntPolynomial, st.lists(st.integers(-9, 9), min_size=0, max_size=6)
)


def read_rows(name):
    with open(DATA / name, newline="") as handle:
        return list(csv.DictReader(handle))


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial([1, 2, 0, 0]) == IntPolynomial([1, 2])
        assert IntPolynomial([0, 0]).is_zero
        assert IntPolynomial([]).degree == -1

    def test_rejects_non_int_coefficients(self):
        with pytest.raises(TypeError):
            IntPolynomial([1.5])
        with pytest.raises(TypeError):
            IntPolynomial(["3"])

    def test_monomial(self):
        assert IntPolynomial.monomial(3, 2) == IntPolynomial([0, 0, 3])
        with pytest.raises(ValueError):
            IntPolynomial.monomial(1, -1)

    def test_evaluation(self):
        poly = IntPolynomial([4, 2, 2])
        assert poly(1) == 8
        assert poly(2) == 16
        assert poly(10) == 224
        assert ZERO(5) == 0

    def test_hashable_by_value(self):
        assert len({IntPolynomial([1, 2]), IntPolynomial([1, 2, 0])}) == 1

    @given(small_polys, small_polys)
    def test_addition_commutes(self, f, g):
        assert f + g == g + f

    @given(small_polys, small_polys)
    def test_multiplication_commutes(self, f, g):
        assert f * g == g * f

    @given(small_polys, small_polys, small_polys)
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(small_polys, small_polys, st.integers(-5, 5))
    def test_matches_pointwise_arithmetic(self, f, g, x):
        assert (f + g)(x) == f(x) + g(x)
        assert (f * g)(x) == f(x) * g(x)
        assert (f - g)(x) == f(x) - g(x)
        assert (3 * f)(x) == 3 * f(x)

    def test_str_rendering(self):
        assert str(IntPolynomial([4, 2, 2])) == "4+2 p+2 p^2"
        assert str(IntPolynomial.monomial(1, 3)) == "p^3"
        assert str(IntPolynomial([0, 1])) == "p"
        assert str(IntPolynomial([-1, 0, 2])) == "-1+2 p^2"
        assert str(ZERO) == "0"


class TestSymbolicCount:
    def test_base_cases(self):
        assert symbolic_count(0, 0, 0) == ONE
        assert symbolic_count(1, 1, 1) == IntPolynomial([4, 2, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            symbolic_count(1, -1, 0)

    def test_symmetric_in_exponents(self):
        for exps in [(0, 1, 2), (1, 2, 3), (1, 1, 4)]:
            polys = {symbolic_count(*p) for p in permutations(exps)}
            assert len(polys) == 1

    def test_evaluates_to_prime_power_count(self):
        for p in (2, 3, 5, 7):
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        want = count_total_divisor_sum((p**i, p**j, p**k))
                        assert symbolic_count(i, j, k)(p) == want

    def test_diagonal_fixture(self):
        for row in read_rows("table2.csv"):
            nu = int(row["nu"])
            assert str(symbolic_count(nu, nu, nu)) == row["s_poly"], nu

    def test_mixed_fixture(self):
        for row in read_rows("table3.csv"):
            nus = int(row["nu1"]), int(row["nu2"]), int(row["nu3"])
            assert str(symbolic_count(*nus)) == row["s_poly"], nus

    def test_order_terms_match_gaussian_route_as_polynomials(self):
        # the kernel branches on i, j and rc = nu3 - k, so every axis order of
        # every exponent triple up to 6 is checked, polynomial by polynomial
        by_type = {}
        for parts in combinations_with_replacement(range(6, -1, -1), 3):
            lam = Partition(tuple(part for part in parts if part))
            sums = [ZERO] * (lam.size + 1)
            for mu in subpartitions(lam):
                sums[mu.size] = sums[mu.size] + type_count(lam, mu)
            by_type[parts] = tuple(sums)
        for nu in product(range(7), repeat=3):
            assert order_terms(*nu) == by_type[tuple(sorted(nu, reverse=True))], nu

    def test_degree_formula(self):
        for shape in product(range(8), repeat=3):
            assert symbolic_count(*shape).degree == count_degree(*shape), shape
        for nu in range(40):
            assert general_form(nu).degree == count_degree(nu, nu, nu), nu


class TestGeneralForm:
    def test_first_value(self):
        assert general_form(0) == ONE
        assert general_form(1) == IntPolynomial([4, 2, 2])

    def test_matches_symbolic_route(self):
        for nu in range(13):
            assert general_form(nu) == symbolic_count(nu, nu, nu), nu

    def test_extreme_coefficients(self):
        # degree 2 nu with leading coefficient nu + 1 and constant 3 nu + 1
        for nu in range(1, 20):
            poly = general_form(nu)
            assert poly.degree == 2 * nu
            assert poly.coefficients[-1] == nu + 1
            assert poly.coefficients[0] == 3 * nu + 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            general_form(-1)


class TestGaussianBinomial:
    def test_edge_values(self):
        assert gaussian_binomial(5, 0) == ONE
        assert gaussian_binomial(5, 5) == ONE
        assert gaussian_binomial(2, 3) == ZERO

    def test_known_polynomials(self):
        assert gaussian_binomial(3, 1) == IntPolynomial([1, 1, 1])
        assert gaussian_binomial(4, 2) == IntPolynomial([1, 1, 2, 1, 1])

    def test_symmetry(self):
        for r in range(9):
            for k in range(r + 1):
                assert gaussian_binomial(r, k) == gaussian_binomial(r, r - k)

    def test_pascal_recurrence(self):
        for r in range(1, 9):
            for k in range(1, r + 1):
                lhs = gaussian_binomial(r, k)
                rhs = gaussian_binomial(r - 1, k - 1) + IntPolynomial.monomial(
                    1, k
                ) * gaussian_binomial(r - 1, k)
                assert lhs == rhs, (r, k)

    def test_product_formula(self):
        # the textbook quotient, checked by multiplying out: [r, k] prod_{i<=k} (p^i - 1)
        # equals prod_{i<=k} (p^(r-k+i) - 1), with no polynomial division anywhere
        def p_power_minus_one(e):
            return IntPolynomial.monomial(1, e) - ONE

        for r in range(21):
            for k in range(r + 1):
                lhs = gaussian_binomial(r, k)
                rhs = ONE
                for i in range(1, k + 1):
                    lhs = lhs * p_power_minus_one(i)
                    rhs = rhs * p_power_minus_one(r - k + i)
                assert lhs == rhs, (r, k)

    def test_reduces_to_binomial_at_one(self):
        for r in range(9):
            for k in range(r + 1):
                assert gaussian_binomial(r, k)(1) == math.comb(r, k)

    def test_subspace_counts_sum_to_subgroup_count(self):
        # subgroups of Z_p x Z_p x Z_p are exactly the subspaces of F_p^3
        total = ZERO
        for k in range(4):
            total = total + gaussian_binomial(3, k)
        assert total == symbolic_count(1, 1, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian_binomial(-1, 0)
        with pytest.raises(ValueError):
            gaussian_binomial(3, -1)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert Partition(()).size == 0

    def test_size(self):
        assert Partition((3, 2, 2)).size == 7

    def test_str_is_the_command_line_form(self):
        assert [str(Partition(parts)) for parts in [(3, 2, 2), (1,), ()]] == ["3,2,2", "1", "0"]

    def test_conjugate(self):
        assert Partition(()).conjugate() == ()
        assert Partition((3, 2)).conjugate() == (2, 2, 1)
        assert Partition((1, 1, 1)).conjugate() == (3,)

    def test_conjugate_is_involution(self):
        for parts in [(), (1,), (3, 2), (4, 4, 1), (2, 2, 2, 1)]:
            lam = Partition(parts)
            assert Partition(lam.conjugate()).conjugate() == parts

    def test_contains(self):
        lam = Partition((2, 2))
        assert lam.contains(Partition(()))
        assert lam.contains(Partition((1,)))
        assert lam.contains(Partition((2, 2)))
        assert not lam.contains(Partition((3,)))
        assert not lam.contains(Partition((1, 1, 1)))

    def test_subpartitions_of_square(self):
        got = [p.parts for p in subpartitions(Partition((2, 2)))]
        assert got == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]

    def test_subpartitions_complete_and_distinct(self):
        lam = Partition((3, 2, 1))
        got = list(subpartitions(lam))
        assert len(got) == len(set(got))
        # brute force over all weakly decreasing tuples bounded by lam
        want = {()}
        for a in range(1, 4):
            want.add((a,))
            for b in range(1, min(a, 2) + 1):
                want.add((a, b))
                for c in range(1, min(b, 1) + 1):
                    want.add((a, b, c))
        assert {p.parts for p in got} == want
        assert all(lam.contains(p) for p in got)


class TestTypeCount:
    def test_trivial_and_full(self):
        lam = Partition((3, 2, 1))
        assert type_count(lam, Partition(())) == ONE
        assert type_count(lam, lam) == ONE
        assert type_count(Partition(()), Partition(())) == ONE

    def test_elementary_abelian_reduces_to_subspaces(self):
        lam = Partition((1, 1, 1))
        assert type_count(lam, Partition((1,))) == gaussian_binomial(3, 1)
        assert type_count(lam, Partition((1, 1))) == gaussian_binomial(3, 2)

    def test_order_p_subgroups(self):
        # elements of order p up to scaling: (p^2 - 1)/(p - 1) = p + 1
        assert type_count(Partition((2, 1)), Partition((1,))) == IntPolynomial([1, 1])
        assert type_count(Partition((2,)), Partition((1,))) == ONE

    @pytest.mark.parametrize("parts", [(), (3,), (1, 1, 1, 1), (3, 2, 1), (4, 4, 2, 1), (3, 3, 1, 1)])
    def test_degree_formula(self, parts):
        lam = Partition(parts)
        for mu in subpartitions(lam):
            assert type_count(lam, mu).degree == type_count_degree(lam, mu), mu

    def test_degree_rejects_uncontained_type(self):
        with pytest.raises(ValueError, match=r"^3 is not contained in 2,1$"):
            type_count_degree(Partition((2, 1)), Partition((3,)))

    def test_rejects_uncontained_type(self):
        with pytest.raises(ValueError, match=r"^3 is not contained in 2,1$"):
            type_count(Partition((2, 1)), Partition((3,)))

    @pytest.mark.parametrize("p", [2, 3])
    def test_sums_match_order_counts(self, p):
        shapes = [(1, 1, 1), (2, 1), (2, 2, 1), (3, 1, 1), (3,)]
        for parts in shapes:
            lam = Partition(parts)
            padded = list(parts) + [0] * (3 - len(parts))
            group = tuple(p**e for e in padded)
            by_size: dict[int, int] = {}
            for mu in subpartitions(lam):
                by_size[mu.size] = by_size.get(mu.size, 0) + type_count(lam, mu)(p)
            for k, total in by_size.items():
                assert total == count_by_order(group, p**k), (parts, k)
            assert sum(by_size.values()) == count_total(group)


class TestH:
    def test_first_values(self):
        assert h_recurrence(1) == IntPolynomial([4, 2])
        assert h_recurrence(2) == IntPolynomial([7, 5])

    def test_closed_form_matches_recurrence(self):
        for nu in range(1, 11):
            assert h_closed_form(nu) == h_recurrence(nu), nu

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            h_closed_form(0)
        with pytest.raises(ValueError):
            h_recurrence(0)

    def test_convolution_reproduces_diagonal_count(self):
        # s(p^nu) = sum_{i+j=nu} p^(2i) tau(p^i) h(p^j)
        for nu in range(1, 7):
            acc = h_recurrence(nu)
            for i in range(1, nu + 1):
                j = nu - i
                hj = ONE if j == 0 else h_recurrence(j)
                acc = acc + IntPolynomial.monomial(i + 1, 2 * i) * hj
            assert acc == symbolic_count(nu, nu, nu), nu

    def test_generating_function_proof(self):
        # The steps of h_closed_form's proof as power series in x with p
        # symbolic, to order 30: each series times its denominator, truncated.
        sympy = pytest.importorskip("sympy")
        x, p = sympy.symbols("x p")
        order = 30

        def series(coefficient):
            terms = {(nu, k): c for nu in range(order) for k, c in enumerate(coefficient(nu).coefficients)}
            return sympy.Poly(terms, x, p)

        def times(series_poly, factor):
            product = series_poly * sympy.Poly(factor, x, p)
            return sympy.Poly({m: c for m, c in product.terms() if m[0] < order}, x, p)

        def parity_part(parity):
            return lambda nu: IntPolynomial(
                c if k % 2 == parity else 0 for k, c in enumerate(general_form(nu).coefficients)
            )

        denominator = (1 - x) ** 2 * (1 - p**2 * x) ** 2
        assert times(series(parity_part(0)), denominator) == sympy.Poly(1 + 2 * x, x, p)
        assert times(series(parity_part(1)), denominator) == sympy.Poly(p * x * (2 + x), x, p)
        h_series = series(lambda nu: ONE if nu == 0 else h_closed_form(nu))
        assert times(series(general_form), (1 - p**2 * x) ** 2) == h_series
        assert times(h_series, (1 - x) ** 2) == sympy.Poly(1 + 2 * (p + 1) * x + p * x**2, x, p)
