"""The monic Chebyshev family and its running-sum family.

``tcheb(k)`` is the monic degree-k polynomial V_k with
V_k(q + q^{-1}) = q^k + q^{-k} (the Vieta-Lucas normalization, 2*T_k(X/2)
in terms of the classical first-kind Chebyshev T_k; only the monic variant
is implemented).  ``fpoly(k)`` is the running sum 1 + V_1 + ... + V_k,
monic of degree k.

Each family has at least two independent construction routes (binomial
closed form, matrix trace, and the three-term recurrence that the ``verify``
sweep rolls itself) so they can cross-validate one another.  The closed
forms are the production route; values come from Lucas-sequence doubling
(``tcheb_value``, ``fpoly_value``) or, for a whole sweep, the value recurrence
(``fpoly_stream``, ``fpoly_values``), for any number type: the CLI prints
values computed in ``decimal_radix`` (linear-time ``str()``).  At x = -2,
-1, 0 and 1 the values repeat in k (``fpoly_period``).  Nothing is cached.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import islice
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal,
                     DivisionByZero, Inexact, InvalidOperation, Overflow,
                     Rounded, localcontext)

from .intpoly import ONE, TWO, X, IntPoly

#: Exact decimal arithmetic, entered only through ``localcontext``.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[
    Inexact, Rounded, InvalidOperation, Overflow, DivisionByZero])
MAX_DIGITS = 10 ** 8  #: the most digits an answer (summed over a sweep) may have
#: the most values one sweep may have: the indices of ``oeis-check``, the
#: rows times the points of ``table values``.  10^7 still admits
#: ``oeis-check odd_div_count --max-n 10^7``, which answered before there
#: was a limit; there ``oeis-check sigma --emit`` takes 14 s, and a values
#: table at one point about 50 s as CSV and 3 min as JSON
MAX_TERMS = 10 ** 7


@contextmanager
def decimal_radix(x: int) -> Iterator[Decimal]:
    """The point x as an exact ``Decimal`` inside ``EXACT``, so that values
    computed from it in the block print in linear time.

    >>> with decimal_radix(3) as x:
    ...     big = fpoly_value(20000, x)
    ...     print(len(str(big)), big % 10**9 == fpoly_value(20000, 3) % 10**9)
    8360 True
    """
    with localcontext(EXACT):
        yield Decimal(x)


def check_digits(size: int, unit: str = "digits") -> None:
    """Refuse an answer estimated at more than ``MAX_DIGITS`` digits, or
    characters where ``unit`` says the estimate counts those."""
    if size > MAX_DIGITS:  # no str() of an int past 4300 digits, no float
        about = (f"{size:,}" if size < 10 ** 18
                 else f"10^{math.log10(size):.0f}")
        raise ValueError(f"answer would have about {about} {unit} "
                         f"(limit {MAX_DIGITS:,})")


def check_terms(count: int) -> None:
    """Refuse a sweep of more than ``MAX_TERMS`` values; called after
    ``check_digits``, which refuses every count past 10^8."""
    if count > MAX_TERMS:
        raise ValueError(f"sweep would have {count:,} terms "
                         f"(limit {MAX_TERMS:,})")


def value_digits(k: int, x: int, count: int = 1) -> int:
    """About how many digits F_j(x) (or V_j(x), G_{j+1}(x)) has, summed over
    j = k..k+count-1, as an int: 1 + (j+1) * log10((|x| + sqrt(x^2-4))/2)."""
    rate = (math.log10(abs(x)) + math.log10(0.5 + math.sqrt(0.25 - 1 / x**2))
            if abs(x) > 2 else 0)  # no float holds a huge x
    step = round(rate * 2 ** 32)  # so that no size overflows a float
    return (count * (2 * k + count + 1) * step + 2 ** 32 >> 33) + count


def tcheb(k: int) -> IntPoly:
    """Monic Chebyshev polynomial of degree k: V_0 = 2, else the closed form.

    >>> print(tcheb(4))
    X^4 - 4*X^2 + 2
    """
    if k < 0:
        raise ValueError("tcheb index must be non-negative")
    return tcheb_closed(k) if k else TWO


def fpoly(k: int) -> IntPoly:
    """The running sum 1 + V_1 + ... + V_k; monic of degree k.

    >>> print(fpoly(2))
    X^2 + X - 1
    """
    if k < 0:
        raise ValueError("fpoly index must be non-negative")
    return fpoly_closed(k) if k else ONE


def _lucas_pair(k: int, x: int) -> tuple[int, int]:
    """(V_k(x), V_{k+1}(x)) by Lucas-sequence doubling over the bits of k:
    V_{2m} = V_m^2 - 2 and V_{2m+1} = V_m V_{m+1} - x."""
    a, b = 2, x  # V_m, V_{m+1} with m = 0
    for bit in bin(k)[2:]:
        if bit == "1":
            a, b = a * b - x, b * b - 2
        else:
            a, b = a * a - 2, a * b - x
    return a, b


def tcheb_value(k: int, x: int) -> int:
    """Integer value of tcheb(k) at x, V_k(x) by Lucas doubling."""
    if k < 0:
        raise ValueError("tcheb index must be non-negative")
    return +_lucas_pair(k, x)[0]  # a decimal product can leave -0


def fpoly_value(k: int, x: int) -> int:
    """Integer value of fpoly(k) at x in O(log k) multiplications, from the
    difference law F_k(x) = (V_{k+1}(x) - V_k(x))/(x - 2), with
    F_k(2) = 2k + 1; no polynomial is built."""
    if k < 0:
        raise ValueError("fpoly index must be non-negative")
    if x == 2:
        return 2 * k + 1
    v, w = _lucas_pair(k, x)
    # by 2 - x: a zero quotient (x < 2 only) stays +0 as a Decimal
    return (v - w) // (2 - x)


def fpoly_stream(x: int) -> Iterator[int]:
    """F_0(x), F_1(x), ... without end, by the value recurrence
    F_{k+1}(x) = x*F_k(x) - F_{k-1}(x); the primitive for sweeps over k."""
    a, b = 1, x + 1
    while True:
        yield a
        a, b = b, x * b - a


def fpoly_values(count: int, x: int) -> list[int]:
    """[F_0(x), ..., F_{count-1}(x)] from ``fpoly_stream``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return list(islice(fpoly_stream(x), count))


def fpoly_period(x: int) -> list[int]:
    """F_0(x), ..., F_{p-1}(x) for the period p of F_k(x) in k at
    x = -2, -1, 0 and 1 (p = 2, 3, 4 and 6), rolled from the recurrence.

    >>> fpoly_period(1)
    [1, 2, 1, -1, -2, -1]
    """
    if not -2 <= x <= 1:
        raise ValueError("F_k(x) is periodic in k at x = -2, -1, 0, 1 only")
    vals = list(islice(fpoly_stream(x), 8))
    return vals[:next(p for p in range(2, 7) if vals[p:p + 2] == vals[:2])]


def _ucheb(n: int) -> IntPoly:
    """U_n = sum (-1)^m C(n-m, m) X^{n-2m}, the monic second-kind Chebyshev
    polynomial (zero for n < 0); each binomial comes from the previous one
    by the ratio (n-2m+2)(n-2m+1) / (m(n-m+1)), one small product each."""
    out = [0] * (n + 1)
    c = 1
    for m in range(n // 2 + 1):
        if m:
            c = c * (n - 2 * m + 2) * (n - 2 * m + 1) // (m * (n - m + 1))
        out[n - 2 * m] = -c if m & 1 else c
    return IntPoly(tuple(out))


def tcheb_closed(k: int) -> IntPoly:
    """Closed form of tcheb(k) for k >= 1: the coefficient of X^{k-2m} is
    (-1)^m * (C(k-m, m) + C(k-m-1, m-1)), i.e. V_k = U_k - U_{k-2}."""
    if k < 1:
        raise ValueError("closed form is stated for k >= 1")
    return _ucheb(k) - _ucheb(k - 2)


def fpoly_closed(k: int) -> IntPoly:
    """Closed form of fpoly(k) for k >= 1 as two interleaved binomial sums:
    sum (-1)^m C(k-m, m) X^{k-2m}  +  sum (-1)^m C(k-m-1, m) X^{k-2m-1},
    i.e. F_k = U_k + U_{k-1}."""
    if k < 1:
        raise ValueError("closed form is stated for k >= 1")
    return _ucheb(k) + _ucheb(k - 1)


def tcheb_trace(k: int) -> IntPoly:
    """tcheb(k) as the trace of the k-th power of [[X, -1], [1, 0]], computed
    by binary matrix exponentiation over the polynomial ring."""
    if k < 0:
        raise ValueError("tcheb index must be non-negative")
    a, b, c, d = ONE, IntPoly(()), IntPoly(()), ONE  # identity
    pa, pb, pc, pd = X, IntPoly((-1,)), ONE, IntPoly(())
    while k:
        if k & 1:
            a, b, c, d = (a * pa + b * pc, a * pb + b * pd,
                          c * pa + d * pc, c * pb + d * pd)
        k >>= 1
        if k:
            pa, pb, pc, pd = (pa * pa + pb * pc, pa * pb + pb * pd,
                              pc * pa + pd * pc, pc * pb + pd * pd)
    return a + d

