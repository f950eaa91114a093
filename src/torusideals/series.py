"""Truncated formal power series in t whose coefficients are polynomials in X.

This is the independent verification engine: the ideal-count polynomials are
recoverable from the infinite product

    prod_{i>=1} (1 - t^i)^2 / (1 - X t^i + t^{2i})
        = 1 + (X - 2) * sum_{n>=1} G_n(X) t^n,

and the two families from the rational functions (2 - Xt)/(1 - Xt + t^2)
and (1 + t)/(1 - Xt + t^2).  Everything here is plain truncated arithmetic:
exact through t^N, no identities from the other modules.

A series of order N keeps exactly the coefficients of t^0..t^N.  Any factor
(1 - t^i)^2/(1 - X t^i + t^{2i}) with i > N is 1 + O(t^{N+1}), so the
product needs only the factors with i <= N.  The product is expanded by
multiplying out the integer numerator and then dividing it in place by one
sparse denominator factor at a time, on packed integers (O(N^2) bigint
steps); the dense ``series_div`` serves the two rational families and
``series_inverse``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .intpoly import (IntPoly, ONE, TWO, X, ZERO, add_product, slot_width,
                      unpack_balanced)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of t^0..t^order; ``coeffs[k]`` is a polynomial in X."""

    order: int
    coeffs: tuple[IntPoly, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be non-negative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}")

    def truncate(self, new_order: int) -> TruncatedSeries:
        """Drop terms above t^new_order (new_order <= order)."""
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(new_order, self.coeffs[: new_order + 1])


def series_from_terms(order: int, terms: dict[int, IntPoly]) -> TruncatedSeries:
    """Series with the given t-power -> coefficient map, zero elsewhere."""
    cs = [ZERO] * (order + 1)
    for k, p in terms.items():
        if k < 0:
            raise ValueError("negative t-power")
        if k <= order:
            cs[k] = p
    return TruncatedSeries(order, tuple(cs))


def series_one(order: int) -> TruncatedSeries:
    return series_from_terms(order, {0: ONE})


def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product truncated at the common order, coefficient-exact.

    The convolution accumulates into raw coefficient lists with
    ``add_product``, so no intermediate polynomial objects are built.
    """
    _check_orders(a, b)
    n = a.order
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for i, p in enumerate(a.coeffs):
        if p.coeffs:
            for j in range(n - i + 1):
                add_product(out[i + j], p.coeffs, b.coeffs[j].coeffs)
    return TruncatedSeries(n, tuple(IntPoly(tuple(c)) for c in out))


def series_div(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """The series S with S * den == num through t^order.

    Requires den to have constant term 1, which makes the division exact
    over the integers: S_k = num_k - sum_{j=1..k} den_j * S_{k-j}.
    """
    _check_orders(num, den)
    if den.coeffs[0] != ONE:
        raise ValueError("denominator constant term must be 1")
    n = num.order
    negated = [[-c for c in p.coeffs] for p in den.coeffs]
    result: list[IntPoly] = []
    for k in range(n + 1):
        acc = list(num.coeffs[k].coeffs)
        for j in range(1, k + 1):
            add_product(acc, negated[j], result[k - j].coeffs)
        result.append(IntPoly(tuple(acc)))
    return TruncatedSeries(n, tuple(result))


def series_inverse(a: TruncatedSeries) -> TruncatedSeries:
    """The series b with a * b == 1 through t^order; a must have constant
    term 1 (every denominator expanded here does)."""
    if a.coeffs[0] != ONE:
        raise ValueError("constant term must be 1 to invert")
    return series_div(series_one(a.order), a)


def expand_pg_product(order: int) -> TruncatedSeries:
    """Expand prod_{i=1..order} (1 - t^i)^2 / (1 - X t^i + t^{2i}).

    The numerators are multiplied out into one integer series, which is
    then divided in place by each sparse denominator factor in turn: S
    divided by (1 - X t^i + t^{2i}) is S_m += X S_{m-i} - S_{m-2i} for
    m = i..order in ascending order.  No factor raises the X-degree of S_m
    above m, and S_m is held packed, as its value at X = 2^w (see
    ``intpoly``), so a step is one bigint shift and two adds: O(order^2)
    steps on numbers of O(order * w) bits.

    The width rests on a majorant.  1/(1 - X t^i + t^{2i}) is
    sum_k U_k(X) t^{ik}, U_k the monic second-kind Chebyshev polynomial,
    whose |coefficients| sum to the Fibonacci number F_{k+1}, the
    coefficient of t^{ik} in 1/(1 - t^i - t^{2i}); and sums of
    |coefficients| are submultiplicative.  So no coefficient of S_m exceeds
    [t^m] prod (1 + t^i)^2 / (1 - t^i - t^{2i}) in size, which the same
    in-place loops give on plain integers in O(order^2) steps.

    >>> for c in expand_pg_product(4).coeffs:
    ...     print(c)
    1
    X - 2
    X^2 - X - 2
    X^3 - X^2 - 4*X + 4
    X^4 - X^3 - 4*X^2 + 3*X + 2
    """
    if order < 1:
        raise ValueError("order must be positive")
    n = order
    s = [1] + [0] * n  # prod (1 - t^i)^2: S_m at X = 2^w, as it has no X
    major = [1] + [0] * n  # prod (1 + t^i)^2, then the majorant
    for i in range(1, n + 1):
        for _ in range(2):
            for m in range(n, i - 1, -1):
                s[m] -= s[m - i]
                major[m] += major[m - i]
    for i in range(1, n + 1):
        for m in range(i, n + 1):
            major[m] += major[m - i] + (major[m - 2 * i] if m >= 2 * i else 0)
    w = slot_width(max(major))
    for i in range(1, n + 1):
        for m in range(i, min(2 * i, n + 1)):  # no S_{m-2i} term: m < 2i
            s[m] += s[m - i] << w
        for m in range(2 * i, n + 1):
            s[m] += (s[m - i] << w) - s[m - 2 * i]
    # read back from the top, dropping each packed value once it is read,
    # so that the packed and the read-back series are never both whole
    out = [IntPoly(tuple(unpack_balanced(s.pop(), w, m + 1)))
           for m in range(n, -1, -1)]
    return TruncatedSeries(n, tuple(reversed(out)))


_X_MINUS_2 = X - TWO


def pg_from_series(order: int,
                   expansion: TruncatedSeries | None = None) -> list[IntPoly]:
    """The ideal-count polynomials G_1..G_order, each read off the product
    expansion (built at ``order`` unless given) by dividing the t^n
    coefficient exactly by (X - 2).

    A nonzero remainder would mean the expansion itself is broken; the
    division then raises ``NonDivisibleError`` rather than drop it.
    """
    expansion = expansion or expand_pg_product(order)
    return [expansion.coeffs[n] // _X_MINUS_2 for n in range(1, order + 1)]


def expand_f_gf(order: int) -> TruncatedSeries:
    """Expansion of (1 + t)/(1 - Xt + t^2); coefficient of t^k is the
    degree-k running-sum polynomial."""
    if order < 1:
        raise ValueError("order must be positive")
    num = series_from_terms(order, {0: ONE, 1: ONE})
    den = series_from_terms(order, {0: ONE, 1: -X, 2: ONE})
    return series_div(num, den)


def expand_tcheb_gf(order: int) -> TruncatedSeries:
    """Expansion of (2 - Xt)/(1 - Xt + t^2); coefficient of t^k is the
    monic Chebyshev polynomial of degree k."""
    if order < 1:
        raise ValueError("order must be positive")
    num = series_from_terms(order, {0: TWO, 1: -X})
    den = series_from_terms(order, {0: ONE, 1: -X, 2: ONE})
    return series_div(num, den)
