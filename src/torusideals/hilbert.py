"""The codimension-n ideal-count polynomials and their cross-formulas.

Three families, all exact:

* ``cn_*``: the full count C_n(q), a palindromic monic polynomial of degree
  2n divisible by (q-1)^2 -- built either from the odd divisors of n or from
  the triangular-number coefficient formula;
* ``pn_from_cn``: the quotient P_n(q) = C_n(q)/(q-1)^2, palindromic with
  non-negative coefficients;
* ``pg_*``: the degree n-1 polynomial G_n with G_n(q + q^{-1}) =
  P_n(q)/q^{n-1}, reachable by four independent routes (divisor-interval
  counts, odd-divisor sums of running-sum polynomials, Laurent round trip,
  and the generating-function oracle in ``series``).

Route disagreements indicate a bug, so the assertion-style operations return
verdict records instead of raising; only internal impossibilities raise.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .chebfam import fpoly, fpoly_value, fpoly_values
from .divisors import (
    OddDivisorTerm,
    a_coeffs,
    divisors,
    is_prime,
    odd_divisor_terms,
    odd_divisors,
    r_nd,
    sequence_for_divisor,
    triangular_index,
)
from .intpoly import (
    ZERO,
    IntPoly,
    LaurentPoly,
    chebyshev_sum,
    exact_div,
    laurent_to_x_basis,
)

#: q^2 - 2q + 1, the square factor every full count carries.
Q_MINUS_ONE_SQ = LaurentPoly(0, (1, -2, 1))


@dataclass(frozen=True)
class PgDecomposition:
    """G_n written as a signed sum of running-sum polynomials, one term per
    odd divisor of n; the d=1 term is always +F_{n-1}."""

    n: int
    terms: tuple[OddDivisorTerm, ...]
    polynomial: IntPoly


@dataclass(frozen=True)
class CnPolynomial:
    """C_n(q) in both layouts: ``full`` (degree 2n, min_exp 0) and
    ``centered`` = C_n(q)/q^n (support symmetric about q^0)."""

    n: int
    centered: LaurentPoly
    full: LaurentPoly


def pg_via_interval(n: int) -> IntPoly:
    """G_n from the divisor-interval counts: a_{n,0} + sum a_{n,i} V_i(X).

    >>> print(pg_via_interval(3))
    X^2 + X - 2
    """
    if n < 1:
        raise ValueError("n must be positive")
    return chebyshev_sum(a_coeffs(n))


def pg_via_odd_divisors(n: int) -> PgDecomposition:
    """G_n as the signed sum of F-polynomials indexed by the odd divisors:
    +F_{r} for divisors with offset r >= 0, -F_{-r-1} for the rest."""
    if n < 1:
        raise ValueError("n must be positive")
    terms = tuple(odd_divisor_terms(n))
    poly = sum((fpoly(t.f_index) * t.sign for t in terms), ZERO)
    return PgDecomposition(n, terms, poly)


def cn_via_odd_divisors(n: int) -> CnPolynomial:
    """C_n(q) summed over odd divisors d with offset r = n/d - (d+1)/2:
    each d contributes q^{r+1} + q^{-r-1} - q^r - q^{-r} to C_n(q)/q^n."""
    if n < 1:
        raise ValueError("n must be positive")
    buf = [0] * (2 * n + 1)  # index e + n holds the coefficient of q^e
    for d in odd_divisors(n):
        r = r_nd(n, d)
        buf[n + r + 1] += 1
        buf[n - r - 1] += 1
        buf[n + r] -= 1
        buf[n - r] -= 1
    centered = LaurentPoly(-n, tuple(buf))
    return CnPolynomial(n, centered, centered.shift(n))


def cn_via_coeff_formula(n: int) -> CnPolynomial:
    """C_n(q) from the coefficient formula.

    The constant coefficient of C_n(q)/q^n is 2*(-1)^r when n = r(r+1)/2 and
    0 otherwise.  For i >= 1 the coefficient of q^i + q^{-i} is (-1)^k when
    2n = k(k+2i+1) and (-1)^{k-1} when 2n = k(k+2i-1) (k >= 1); the two
    cases never fire together, and a simultaneous hit raises RuntimeError as
    an internal-consistency failure.  Solutions are enumerated over the
    divisors k of 2n rather than by scanning i.
    """
    if n < 1:
        raise ValueError("n must be positive")
    buf = [0] * (2 * n + 1)
    r = triangular_index(n)
    if r is not None:
        buf[n] = -2 if r & 1 else 2
    seen: dict[int, int] = {}
    two_n = 2 * n
    for k in divisors(two_n):
        other = two_n // k
        sign = -1 if k & 1 else 1  # (-1)^k
        # 2n = k(k + 2i + 1):  i = (other - k - 1)/2
        num = other - k - 1
        if num >= 2 and num % 2 == 0:
            i = num // 2
            if i in seen:
                raise RuntimeError(
                    f"coefficient families collide at n={n}, i={i}")
            seen[i] = sign
        # 2n = k(k + 2i - 1):  i = (other - k + 1)/2
        num = other - k + 1
        if num >= 2 and num % 2 == 0:
            i = num // 2
            if i in seen:
                raise RuntimeError(
                    f"coefficient families collide at n={n}, i={i}")
            seen[i] = -sign
    for i, c in seen.items():
        buf[n + i] = c
        buf[n - i] = c
    centered = LaurentPoly(-n, tuple(buf))
    return CnPolynomial(n, centered, centered.shift(n))


def pn_from_cn(n: int) -> LaurentPoly:
    """P_n(q) = C_n(q)/(q-1)^2, an ordinary polynomial in q (min_exp 0).

    Non-divisibility cannot occur for genuine counts; if it does, the
    ``NonDivisibleError`` from the division is allowed to propagate as an
    internal-consistency failure.
    """
    return exact_div(cn_via_odd_divisors(n).full, Q_MINUS_ONE_SQ)


def pg_roundtrip(n: int) -> IntPoly:
    """G_n recovered the long way round: build C_n, divide by (q-1)^2,
    center by q^{n-1}, and change basis to X = q + q^{-1}."""
    return laurent_to_x_basis(pn_from_cn(n).shift(-(n - 1)))


def pg_eval_int(n: int, x: int) -> int:
    """Integer value of G_n at x: the odd-divisor decomposition summed over
    ``fpoly_value``, O(log n) multiplications per term; no polynomial is
    built."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(t.sign * fpoly_value(t.f_index, x)
               for t in odd_divisor_terms(n))


def cn_eval_int(n: int, x: int) -> int:
    """Integer value of C_n at x, summed over the odd divisors: each d adds
    x^{n+r+1} + x^{n-r-1} - x^{n+r} - x^{n-r}; no polynomial is built."""
    def power(e: int) -> int:  # a decimal 0 ** 0 raises
        return x ** e if e else 1
    total = 0
    for d in odd_divisors(n):
        r = r_nd(n, d)
        total += (power(n + r + 1) + power(n - r - 1)
                  - power(n + r) - power(n - r))
    return total


def pn_eval_int(n: int, x: int) -> int:
    """Integer value of P_n at x: C_n(x)/(x-1)^2, and P_n(1) = sigma(n)."""
    return (cn_eval_int(n, x) // (x - 1) ** 2 if x != 1
            else sum(divisors(n)))


def pg_values(max_n: int, x: int) -> list[int]:
    """[G_1(x), ..., G_max_n(x)], the same sums, by a sieve over one list of
    F-values: each odd d adds its term (r = m - (d+1)/2) to every n = m*d;
    the primitive for sweeps, with ``pg_eval_int`` as its oracle."""
    fvals = fpoly_values(max_n, x)
    out = [0] * (max_n + 1)  # out[n] accumulates G_n(x)
    for d in range(1, max_n + 1, 2):
        half = (d + 1) // 2
        for m in range(1, min(half, max_n // d + 1)):  # r < 0
            out[m * d] -= fvals[half - m - 1]
        for n, f in zip(range(half * d, max_n + 1, d), fvals):  # r >= 0
            out[n] += f
    return out[1:]


def approx_defect(n: int) -> IntPoly:
    """The difference G_n - F_{n-1}, built from the interval counts as
    b_0 + sum b_i V_i(X) with b_i = a_{n,i} - 1.

    b is piecewise constant: it changes only at the ends of the divisor
    ranges of ``a_coeffs``, at most 2*tau(n) places.  Since F_j = 1 + V_1 +
    ... + V_j, Abel summation turns the sum into sum (b_j - b_{j+1}) F_j
    (with b_n = 0), which has a term only where b changes: O(tau(n) * n)
    coefficient operations instead of O(n^2).

    Asserts the strict degree bound deg < n/2 - 1 (as 2*deg < n - 2, exact
    integer comparison) and that the defect vanishes exactly for n a power
    of two; both violations raise RuntimeError since they are impossible for
    correct counts.

    >>> print(approx_defect(9))
    -X^3 - X^2 + 3*X + 2
    """
    if n < 2:
        raise ValueError("defect is defined for n >= 2")
    b = [a - 1 for a in a_coeffs(n)] + [0]
    defect = sum((fpoly(j) * (b[j] - b[j + 1])
                  for j in range(n) if b[j] != b[j + 1]), ZERO)
    if defect.degree is not None and 2 * defect.degree >= n - 2:
        raise RuntimeError(f"defect degree {defect.degree} too high at n={n}")
    if defect.is_zero() != (n & (n - 1) == 0):
        raise RuntimeError(f"power-of-two law broken at n={n}")
    return defect


def pg_via_sequences(n: int) -> LaurentPoly:
    """The centered Laurent form P_n(q)/q^{n-1} as a signed sum of monomials
    q^e, e running over set differences of consecutive-integer runs.

    For each odd divisor with a positive odd run the partner run contains
    it and the difference contributes +q^e; for a negative odd run the
    containment reverses and the contribution is -q^e.
    """
    if n < 1:
        raise ValueError("n must be positive")
    buf = [0] * (2 * n + 1)
    for d in odd_divisors(n):
        odd_run, even_run = sequence_for_divisor(n, d)
        if odd_run.is_positive():
            diff = set(even_run.elements()) - set(odd_run.elements())
            for e in diff:
                buf[n + e] += 1
        else:
            diff = set(odd_run.elements()) - set(even_run.elements())
            for e in diff:
                buf[n + e] -= 1
    return LaurentPoly(-n, tuple(buf))


# -- multiplicativity ----------------------------------------------------------

@dataclass(frozen=True)
class MultVerdict:
    """Outcome of one multiplicativity check of |G_.(x)| at coprime (m, k).

    ``law`` is "product" at x in {-2, -1, 0, 2} (plain multiplicativity),
    "three_case" at x = 1 (the factor depends on (m, k) mod 3), and
    "unconstrained" elsewhere, where nothing is asserted and lhs and rhs
    are merely reported.
    """

    x: int
    m: int
    k: int
    law: str
    ok: bool
    factor: int | None
    lhs: int
    rhs: int


def mult_check(x: int, m: int, k: int) -> MultVerdict:
    """Check |G_m(x)| * |G_k(x)| against |G_{mk}(x)| for coprime m, k.

    At x in {-2, -1, 0, 2} equality must hold; at x = 1 the product equals
    1, 2 or 4 times |G_{mk}(1)| according to {m, k} mod 3 ({0,2} -> 2,
    {2,2} -> 4, else 1); at any other x both sides are reported unasserted.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    if gcd(m, k) != 1:
        raise ValueError(f"m={m} and k={k} are not coprime")
    lhs = abs(pg_eval_int(m, x)) * abs(pg_eval_int(k, x))
    rhs = abs(pg_eval_int(m * k, x))
    if x in (-2, -1, 0, 2):
        return MultVerdict(x, m, k, "product", lhs == rhs, 1, lhs, rhs)
    if x == 1:
        residues = {m % 3, k % 3}
        factor = 4 if residues == {2} else 2 if residues == {0, 2} else 1
        return MultVerdict(x, m, k, "three_case",
                           lhs == factor * rhs, factor, lhs, factor * rhs)
    return MultVerdict(x, m, k, "unconstrained", True, None, lhs, rhs)


# -- special families ----------------------------------------------------------

@dataclass(frozen=True)
class SpecialFamilyReport:
    """How G_n - F_{n-1} degenerates, with its number-theoretic cross-checks.

    ``defect_kind`` is one of "zero", "+F0", "-F0", "+F1", "-F1", "other";
    ``predicted_kind`` is the same label derived purely from the shape of n
    (n = 2^a * p with p prime and p = 2^{a+1} -+ 1 or 2^{a+1} -+ 3, or a
    power of two).  ``f0_sign``/``f1_sign`` record whether +-F_0 / +-F_1
    occurs anywhere in the odd-divisor decomposition, cross-checked against
    n being triangular (n = r(r+1)/2, sign (-1)^{r+1}) respectively
    near-triangular (n = r(r+3)/2, same sign rule).
    """

    n: int
    defect_kind: str
    predicted_kind: str
    kind_ok: bool
    f0_sign: int
    f1_sign: int
    f0_ok: bool
    f1_ok: bool

    @property
    def ok(self) -> bool:
        return self.kind_ok and self.f0_ok and self.f1_ok


def _predicted_kind(n: int) -> str:
    a = (n & -n).bit_length() - 1
    p = n >> a
    if p == 1:
        return "zero"
    if is_prime(p):
        if p == 2 ** (a + 1) - 1:
            return "+F0"
        if p == 2 ** (a + 1) + 1:
            return "-F0"
        if p == 2 ** (a + 1) - 3:
            return "+F1"
        if p == 2 ** (a + 1) + 3:
            return "-F1"
    return "other"


def _near_triangular_index(n: int) -> int | None:
    """The r >= 1 with n = r(r+3)/2, if any (8n+9 a perfect square >= 25)."""
    s = isqrt(8 * n + 9)
    if s * s == 8 * n + 9 and s >= 5:
        return (s - 3) // 2
    return None


def special_family_check(n: int) -> SpecialFamilyReport:
    """Classify the defect G_n - F_{n-1} and cross-check the classification.

    The defect equals the signed sum of F-terms over odd divisors d > 1.
    Distinct divisors always contribute distinct F-indices, and the same
    index can never occur with both signs (two odd divisors d2 = d1 + (2m+1)
    would have to differ by an odd number while staying odd), so the
    classification reads off the term multiset: no term means zero defect,
    a single F_0 or F_1 term means the defect is exactly that polynomial.
    """
    if n < 1:
        raise ValueError("n must be positive")
    terms = odd_divisor_terms(n)
    extra = [t for t in terms if t.d > 1]
    if not extra:
        kind = "zero"
    elif len(extra) == 1 and extra[0].f_index in (0, 1):
        kind = f"{'+' if extra[0].sign > 0 else '-'}F{extra[0].f_index}"
    else:
        kind = "other"
    f0_sign = next((t.sign for t in terms if t.f_index == 0), 0)
    f1_sign = next((t.sign for t in terms if t.f_index == 1), 0)
    tri = triangular_index(n)
    near = _near_triangular_index(n)
    f0_expected = 0 if tri is None else (1 if tri & 1 else -1)
    f1_expected = 0 if near is None else (1 if near & 1 else -1)
    predicted = _predicted_kind(n)
    return SpecialFamilyReport(
        n=n,
        defect_kind=kind,
        predicted_kind=predicted,
        kind_ok=kind == predicted,
        f0_sign=f0_sign,
        f1_sign=f1_sign,
        f0_ok=f0_sign == f0_expected,
        f1_ok=f1_sign == f1_expected,
    )
