import csv
import math
from collections import Counter
from itertools import combinations_with_replacement, permutations, product, zip_longest
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abelian3.config import ELEMENT_BOUND
from abelian3.oracle import all_subgroups
from abelian3.rank3 import count_by_order, count_total, count_total_divisor_sum
from abelian3.typecounts import (
    IntPolynomial,
    Partition,
    _times,
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

ONE = IntPolynomial([1])

coefficient_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=6)

# the lam shapes of TestTypeCount: its degree formula, then its sums over orders
DEGREE_SHAPES = [(), (3,), (1, 1, 1, 1), (3, 2, 1), (4, 4, 2, 1), (3, 3, 1, 1)]
ORDER_SHAPES = [(1, 1, 1), (2, 1), (2, 2, 1), (3, 1, 1), (3,)]


def read_rows(name):
    with open(DATA / name, newline="") as handle:
        return list(csv.DictReader(handle))


def degree(f):
    return len(f.coefficients) - 1


def plus(polys):
    """The sum of IntPolynomials, coefficient by coefficient."""
    return IntPolynomial(map(sum, zip_longest(*(f.coefficients for f in polys), fillvalue=0)))


@pytest.fixture(scope="module")
def p_poly():
    """p as a sympy.Poly: the identity tests' algebra, independent of the code under test."""
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(sympy.Symbol("p"))


def in_p(f, p):
    """The IntPolynomial f as a sympy.Poly in p."""
    return p.from_list(f.coefficients[::-1], p.gen)


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
        assert IntPolynomial([0, 0]).coefficients == ()
        assert IntPolynomial().coefficients == ()

    def test_evaluation(self):
        poly = IntPolynomial([4, 2, 2])
        assert poly(1) == 8
        assert poly(2) == 16
        assert poly(10) == 224
        assert IntPolynomial()(5) == 0

    def test_hashable_by_value(self):
        assert len({IntPolynomial([1, 2]), IntPolynomial([1, 2, 0])}) == 1

    @given(coefficient_lists, coefficient_lists, st.integers(0, 3), st.integers(-5, 5))
    def test_matches_pointwise_arithmetic(self, f, g, shift, x):
        # the value is the power sum, and type_count's product is p^shift f g at every x
        assert IntPolynomial(f)(x) == sum(c * x**k for k, c in enumerate(f))
        assert IntPolynomial(_times(f, g, shift))(x) == x**shift * IntPolynomial(f)(x) * IntPolynomial(g)(x)

    def test_str_rendering(self):
        assert str(IntPolynomial([4, 2, 2])) == "4+2 p+2 p^2"
        assert str(IntPolynomial([0, 0, 0, 1])) == "p^3"
        assert str(IntPolynomial([0, 1])) == "p"
        assert str(IntPolynomial([-1, 0, 2])) == "-1+2 p^2"
        assert str(IntPolynomial()) == "0"


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
            sums = [[] for _ in range(lam.size + 1)]
            for mu in subpartitions(lam):
                sums[mu.size].append(type_count(lam, mu))
            by_type[parts] = tuple(map(plus, sums))
        for nu in product(range(7), repeat=3):
            assert order_terms(*nu) == by_type[tuple(sorted(nu, reverse=True))], nu

    def test_degree_formula(self):
        for shape in product(range(8), repeat=3):
            assert degree(symbolic_count(*shape)) == count_degree(*shape), shape
        for nu in range(40):
            assert degree(general_form(nu)) == count_degree(nu, nu, nu), nu


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
            assert degree(poly) == 2 * nu
            assert poly.coefficients[-1] == nu + 1
            assert poly.coefficients[0] == 3 * nu + 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            general_form(-1)


class TestGaussianBinomial:
    def test_edge_values(self):
        assert gaussian_binomial(5, 0) == ONE
        assert gaussian_binomial(5, 5) == ONE
        assert gaussian_binomial(2, 3) == IntPolynomial()

    def test_known_polynomials(self):
        assert gaussian_binomial(3, 1) == IntPolynomial([1, 1, 1])
        assert gaussian_binomial(4, 2) == IntPolynomial([1, 1, 2, 1, 1])

    def test_symmetry(self):
        for r in range(9):
            for k in range(r + 1):
                assert gaussian_binomial(r, k) == gaussian_binomial(r, r - k)

    def test_pascal_recurrence(self, p_poly):
        for r in range(1, 9):
            for k in range(1, r + 1):
                lhs = in_p(gaussian_binomial(r, k), p_poly)
                rhs = in_p(gaussian_binomial(r - 1, k - 1), p_poly) + p_poly**k * in_p(gaussian_binomial(r - 1, k), p_poly)
                assert lhs == rhs, (r, k)

    def test_product_formula(self, p_poly):
        # the textbook quotient [r, k] = q(r) / (q(k) q(r-k)), q(n) = prod_{i<=n} (p^i - 1),
        # checked by multiplying out, with no polynomial division anywhere
        q = [p_poly**0]
        for i in range(1, 21):
            q.append(q[-1] * (p_poly**i - 1))
        for r in range(21):
            for k in range(r + 1):
                assert in_p(gaussian_binomial(r, k), p_poly) * q[k] * q[r - k] == q[r], (r, k)

    def test_reduces_to_binomial_at_one(self):
        for r in range(9):
            for k in range(r + 1):
                assert gaussian_binomial(r, k)(1) == math.comb(r, k)

    def test_subspace_counts_sum_to_subgroup_count(self):
        # subgroups of Z_p x Z_p x Z_p are exactly the subspaces of F_p^3
        assert plus(gaussian_binomial(3, k) for k in range(4)) == symbolic_count(1, 1, 1)

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

    @pytest.mark.parametrize("parts", DEGREE_SHAPES)
    def test_degree_formula(self, parts):
        lam = Partition(parts)
        for mu in subpartitions(lam):
            assert degree(type_count(lam, mu)) == type_count_degree(lam, mu), mu

    def test_degree_rejects_uncontained_type(self):
        with pytest.raises(ValueError, match=r"^3 is not contained in 2,1$"):
            type_count_degree(Partition((2, 1)), Partition((3,)))

    def test_rejects_uncontained_type(self):
        with pytest.raises(ValueError, match=r"^3 is not contained in 2,1$"):
            type_count(Partition((2, 1)), Partition((3,)))

    @pytest.mark.parametrize("p", [2, 3])
    def test_sums_match_order_counts(self, p):
        for parts in ORDER_SHAPES:
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

    def test_convolution_reproduces_diagonal_count(self, p_poly):
        # s(p^nu) = sum_{i+j=nu} p^(2i) tau(p^i) h(p^j)
        for nu in range(1, 7):
            acc = in_p(h_recurrence(nu), p_poly)
            for i in range(1, nu + 1):
                j = nu - i
                hj = ONE if j == 0 else h_recurrence(j)
                acc += (i + 1) * p_poly ** (2 * i) * in_p(hj, p_poly)
            assert acc == in_p(symbolic_count(nu, nu, nu), p_poly), nu

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


# Every route's polynomials on the ranges the suite checks them on.
ROUTES = {
    "order_terms": lambda: (row for nu in product(range(7), repeat=3) for row in order_terms(*nu)),
    "symbolic_count": lambda: (symbolic_count(*nu) for nu in product(range(7), repeat=3)),
    "general_form": lambda: map(general_form, range(40)),
    "gaussian_binomial": lambda: (gaussian_binomial(r, k) for r in range(21) for k in range(r + 2)),
    "type_count": lambda: (
        type_count(lam, mu) for lam in map(Partition, DEGREE_SHAPES + ORDER_SHAPES) for mu in subpartitions(lam)
    ),
    "h": lambda: (f(nu) for nu in range(1, 11) for f in (h_closed_form, h_recurrence)),
}


@pytest.mark.parametrize("route", ROUTES)
def test_every_coefficient_is_an_int(route):
    # exactly int: a float, a bool or another int subclass would print or compare differently
    bad = [f for f in ROUTES[route]() if not all(type(c) is int for c in f.coefficients)]
    assert not bad


def reachable_triples(bound):
    """The sorted nontrivial exponent triples nu whose first count_degree(nu) + 1
    primes p all give groups Z_p^nu1 x Z_p^nu2 x Z_p^nu3 of order at most bound,
    with those primes."""
    # a triple of exponent sum 1 has degree 0, so primes up to isqrt(bound) reach the rest
    primes = [q for q in range(2, math.isqrt(bound) + 1) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    for total in range(1, bound.bit_length()):
        for nu1 in range(total // 3 + 1):
            for nu2 in range(nu1, (total - nu1) // 2 + 1):
                nu = (nu1, nu2, total - nu1 - nu2)
                width = count_degree(*nu) + 1
                if len(primes) >= width and primes[width - 1] ** total <= bound:
                    yield nu, primes[:width]


def test_order_terms_are_proved_for_every_prime_where_the_oracle_reaches():
    # Row k of order_terms(nu) counts the subgroups of order p^k. The true count
    # is a polynomial in p of degree at most count_degree(nu) (Birkhoff), so a row
    # of at most count_degree + 1 coefficients that matches the oracle at that many
    # primes is the true count for every prime, in every order of the axes.
    triples = list(reachable_triples(ELEMENT_BOUND))
    assert len(triples) >= 23
    for nu, primes in triples:
        width = count_degree(*nu) + 1
        rows = {perm: order_terms(*perm) for perm in permutations(nu)}
        for perm_rows in rows.values():
            assert all(len(row.coefficients) <= width for row in perm_rows), nu
        for p in primes:
            by_order = Counter(mask.bit_count() for mask in all_subgroups([p**e for e in nu]))
            want = [by_order[p**k] for k in range(sum(nu) + 1)]
            for perm, perm_rows in rows.items():
                assert [row(p) for row in perm_rows] == want, (perm, p)
