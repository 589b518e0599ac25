"""Symbolic subgroup counts for p-groups: integer polynomials in p.

Three independent routes live here. order_terms specializes the
divisor-triple sum to prime powers, where every gcd becomes a min of
exponents; symbolic_count sums it, and rank3 counts every group through it,
one prime at a time. general_form is the closed quadratic-coefficient
expression for the equal-exponent case. type_count counts subgroups of a
prescribed isomorphism type via conjugate partitions and Gaussian binomials,
which the q-Pascal rule builds. Every polynomial here comes from additions
and products of integer coefficient lists; nothing divides polynomials.
Agreement between the routes is what the test suite leans on.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence


class IntPolynomial:
    """Dense integer polynomial; coefficients[k] multiplies p^k.

    Immutable by convention: coefficients is a tuple with no trailing zeros,
    so equal polynomials compare and hash equal. The zero polynomial has an
    empty tuple.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: tuple[int, ...] = tuple(coeffs)

    def __call__(self, p: int) -> int:
        out = 0
        for c in reversed(self.coefficients):
            out = out * p + c
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "p" if mag == 1 else f"{mag} p"
            else:
                body = f"p^{k}" if mag == 1 else f"{mag} p^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coefficients)!r})"


@lru_cache(maxsize=None)
def order_terms(nu1: int, nu2: int, nu3: int) -> tuple[IntPolynomial, ...]:
    """Subgroup counts of Z_p^nu1 x Z_p^nu2 x Z_p^nu3 by order, as polynomials in p.

    Entry d counts the subgroups of order p^d. This is the one place the
    divisor-triple sum is specialised to prime powers: every gcd becomes a min
    of exponents, and the shape (p^i, p^j, p^k), of order
    p^(nu1 + nu2 + nu3 - i - j - k), contributes p^(S - 2 eX) P(p^eX), which
    is (eX + 1) p^(S - eX) - eX p^(S - eX - 1). Each order adds into one
    coefficient list of length count_degree + 1. Memoised on the exponents.
    """
    if min(nu1, nu2, nu3) < 0:
        raise ValueError(f"exponents must be >= 0, got {(nu1, nu2, nu3)}")
    top = nu1 + nu2 + nu3
    rows = [[0] * (count_degree(nu1, nu2, nu3) + 1) for _ in range(top + 1)]
    for i in range(nu1 + 1):
        for j in range(nu2 + 1):
            ea = i if i < nu2 - j else nu2 - j
            base = nu1 + nu2 - i - j  # rows[base + rc] holds order p^(top - i - j - k), rc = nu3 - k
            for rc, row in enumerate(rows[base : base + nu3 + 1]):
                # S - i - rc: eX when positive; otherwise eX = 0 and the lead is S = ex + i + rc
                ex = ea + (j if j < rc else rc) + (i if i < rc else rc) - i - rc
                if ex > 0:
                    lead = i + rc
                    row[lead] += ex + 1
                    row[lead - 1] -= ex
                else:
                    row[ex + i + rc] += 1
    return tuple(map(IntPolynomial, rows))


@lru_cache(maxsize=None)
def symbolic_count(nu1: int, nu2: int, nu3: int) -> IntPolynomial:
    """Subgroup count of Z_p^nu1 x Z_p^nu2 x Z_p^nu3 as a polynomial in p."""
    return IntPolynomial(map(sum, zip_longest(*(t.coefficients for t in order_terms(nu1, nu2, nu3)), fillvalue=0)))


def count_degree(nu1: int, nu2: int, nu3: int) -> int:
    """Degree in p of symbolic_count(nu1, nu2, nu3): the two smallest exponents summed."""
    return nu1 + nu2 + nu3 - max(nu1, nu2, nu3)


@lru_cache(maxsize=None)
def general_form(nu: int) -> IntPolynomial:
    """Closed form of symbolic_count(nu, nu, nu); memoised on nu.

    Coefficient of p^(2 nu - j) is (nu - floor((j-1)/2)) (2j - floor((j-1)/2))
    for j = 0..2 nu; note floor((0-1)/2) = -1, which makes the j = 0 term
    (nu + 1) p^(2 nu).
    """
    if nu < 0:
        raise ValueError(f"exponent must be >= 0, got {nu}")
    coeffs = [0] * (2 * nu + 1)
    for j in range(2 * nu + 1):
        half = (j - 1) // 2
        coeffs[2 * nu - j] = (nu - half) * (2 * j - half)
    return IntPolynomial(coeffs)


def gaussian_binomial(r: int, k: int) -> IntPolynomial:
    """The Gaussian binomial [r, k]_p; zero polynomial when k > r.

    Built by the q-Pascal rule [n, j] = [n-1, j-1] + p^j [n-1, j] from
    [n, 0] = 1, on coefficient lists with integer additions only, so every
    coefficient is an integer by construction. [r, k] = [r, r-k], so only
    j <= min(k, r-k) is kept, and [n, j] for j < k - (r - n) is never read.
    """
    if r < 0 or k < 0:
        raise ValueError(f"need r, k >= 0, got ({r}, {k})")
    if k > r:
        return IntPolynomial()
    k = min(k, r - k)
    rows = [[1]] + [[] for _ in range(k)]  # rows[j]: coefficients of [n, j]
    for n in range(1, r + 1):
        for j in range(min(n, k), max(0, k - r + n - 1), -1):
            merged = rows[j - 1] + [0] * (j * (n - j) + 1 - len(rows[j - 1]))
            for d, c in enumerate(rows[j], j):
                merged[d] += c
            rows[j] = merged
    return IntPolynomial(rows[k])


class Partition:
    """Weakly decreasing tuple of positive parts; () is the empty partition."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        previous = None
        for part in parts:
            if part < 1 or (previous is not None and part > previous):
                raise ValueError(f"parts must be weakly decreasing positives, got {parts}")
            previous = part
        self.parts = parts

    def __str__(self) -> str:
        """The parts as the command line takes them: 3,2,1, or 0 for the empty partition."""
        return ",".join(map(str, self.parts)) or "0"

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> tuple[int, ...]:
        """Column lengths of the Young diagram; length equals the largest part."""
        if not self.parts:
            return ()
        return tuple(sum(1 for part in self.parts if part >= j) for j in range(1, self.parts[0] + 1))

    def contains(self, other: "Partition") -> bool:
        """Diagram containment, comparing parts with zero padding."""
        if len(other.parts) > len(self.parts):
            return False
        return all(o <= s for o, s in zip(other.parts, self.parts))


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """All partitions contained in lam, in lexicographic order."""

    def grow(prefix: list[int], index: int, cap: int) -> Iterator[Partition]:
        yield Partition(tuple(prefix))
        if index >= len(lam.parts):
            return
        for part in range(1, min(cap, lam.parts[index]) + 1):
            yield from grow(prefix + [part], index + 1, part)

    # Lexicographic: shorter prefixes first within each branch, parts ascending.
    yield from grow([], 0, lam.parts[0] if lam.parts else 0)


def type_count(lam: Partition, mu: Partition) -> IntPolynomial:
    """Subgroups of type mu inside an abelian p-group of type lam.

    With conjugates lam' and mu' (mu' padded with zeros), the count is the
    product over j = 1..lam_1 of
        p^(mu'_{j+1} (lam'_j - mu'_j)) * [lam'_j - mu'_{j+1}, mu'_j - mu'_{j+1}]_p.
    Raises ValueError when mu does not fit inside lam.
    """
    if not lam.contains(mu):
        raise ValueError(f"{mu} is not contained in {lam}")
    lam_c = lam.conjugate()
    mu_c = list(mu.conjugate())
    mu_c += [0] * (len(lam_c) + 1 - len(mu_c))
    out = [1]
    for lj, mj, mj_next in zip(lam_c, mu_c, mu_c[1:]):
        out = _times(gaussian_binomial(lj - mj_next, mj - mj_next).coefficients, out, mj_next * (lj - mj))
    return IntPolynomial(out)


def _times(f: Sequence[int], g: Sequence[int], shift: int) -> list[int]:
    """The coefficients of p^shift f g, for coefficient lists f and g."""
    out = [0] * (shift + len(f) + len(g) - 1)
    for i, fi in enumerate(f, shift):
        for j, gj in enumerate(g, i):
            out[j] += fi * gj
    return out


def h_closed_form(nu: int) -> IntPolynomial:
    """(3 nu - 1) p + (3 nu + 1): the prime-power values of h.

    h is the multiplicative complement of n^2 tau(n) inside the diagonal
    subgroup count (see h_recurrence, which is the defining route).

    Proof. By the Gaussian-binomial count of subgroups by type,
    sum_nu s(p^nu) x^nu = (1 + 2(p + 1) x + p x^2) / ((1 - x)^2 (1 - p^2 x)^2),
    and the coefficients of general_form(nu), split by the parity of j, sum to
    its x^nu coefficient: tests/test_asymptotics.py::TestDiagonalGeneratingFunction
    proves both for every nu. Multiplying by (1 - p^2 x)^2 divides out
    sum_i (i + 1) p^(2i) x^i, the generating function of n^2 tau(n) at p, and
    leaves sum_nu h(p^nu) x^nu = (1 + 2(p + 1) x + p x^2) / (1 - x)^2, whose
    x^nu coefficient for nu >= 1 is (nu + 1) + 2(p + 1) nu + p (nu - 1), which is
    (3 nu - 1) p + (3 nu + 1).
    """
    if nu < 1:
        raise ValueError(f"exponent must be >= 1, got {nu}")
    return IntPolynomial([3 * nu + 1, 3 * nu - 1])


def h_recurrence(nu: int) -> IntPolynomial:
    """h at p^nu from the convolution s = (n^2 tau) * h, solved for h.

    s(p^nu) = sum_{i+j=nu} p^(2i) (i+1) h(p^j) telescopes to
    h(p^nu) = s(p^nu) - 2 p^2 s(p^(nu-1)) + p^4 s(p^(nu-2)), with the
    s(p^(-1)) term absent for nu = 1.
    """
    if nu < 1:
        raise ValueError(f"exponent must be >= 1, got {nu}")

    out = [0] * (2 * nu + 1)
    for shift, scale, k in ((0, 1, nu), (2, -2, nu - 1), (4, 1, nu - 2)):
        if k >= 0:
            for d, c in enumerate(symbolic_count(k, k, k).coefficients, shift):
                out[d] += scale * c
    return IntPolynomial(out)
