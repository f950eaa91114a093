"""The monic Chebyshev family and its running-sum family.

``tcheb(k)`` is the monic degree-k polynomial V_k with
V_k(q + q^{-1}) = q^k + q^{-k} (the Vieta-Lucas normalization, 2*T_k(X/2)
in terms of the classical first-kind Chebyshev T_k; only the monic variant
is implemented).  ``fpoly(k)`` is the running sum 1 + V_1 + ... + V_k,
monic of degree k.

Each family has at least two independent construction routes (binomial
closed form, matrix trace, and the three-term recurrence that the ``verify``
sweep rolls itself) so they can cross-validate one another.  The closed
forms are the production route, as coefficient streams that make one
coefficient at a time from the last, in either order (``tcheb_coeffs``,
``fpoly_coeffs`` from two runs of ``ucheb_run``, and ``fpoly_sum`` for
signed sums of F_k); the dense ``tcheb`` and ``fpoly`` are the streams
collected, k = 0 and the refusal of k < 0 included.  Values come from
Lucas-sequence doubling (``tcheb_value``, ``fpoly_value``) or, for a
whole sweep, the value recurrence (``fpoly_stream``, which
``hilbert.fpoly_blocks`` cuts into blocks at |x| > 2), for any number
type: the CLI prints values computed in ``decimal_radix`` (linear-time
``str()``).  At x = -2, -1, 0 and 1 the values repeat in k
(``fpoly_period``).  Nothing is cached.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain, islice, repeat, zip_longest
from operator import add, mul
from decimal import Decimal, localcontext

from .intpoly import EXACT, TWO, IntPoly, slot_width, unpack_balanced

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


def check_sweep(digits: int, count: int) -> None:
    """Refuse a sweep estimated at more than ``MAX_DIGITS`` digits, and then
    one of more than ``MAX_TERMS`` values."""
    check_digits(digits)
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
    """Monic Chebyshev polynomial of degree k, ``tcheb_coeffs`` collected.

    >>> print(tcheb(4))
    X^4 - 4*X^2 + 2
    """
    return IntPoly(tuple(tcheb_coeffs(k)))


def fpoly(k: int) -> IntPoly:
    """The running sum 1 + V_1 + ... + V_k, ``fpoly_coeffs`` collected.

    >>> print(fpoly(2))
    X^2 + X - 1
    """
    return IntPoly(tuple(fpoly_coeffs(k)))


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


def _binomial_run(n: int, shift: int, descending: bool) -> Iterator[int]:
    """(-1)^m c_m for m = 0..n//2, the coefficients of X^{n-2m}: from
    X^n down or, ascending, from the lowest power up.  c_0 = 1 and
    c_m = c_{m-1} (n-2m+2)(n-2m+1) / (m (n-m+1-shift)), one small product
    and one exact division per step, run backwards from c_{n//2} when
    ascending: c_m = C(n-m, m) at shift 0, the monic second-kind
    Chebyshev polynomial U_n (nothing for n < 0), and
    c_m = n/(n-m) C(n-m, m) = C(n-m, m) + C(n-m-1, m-1) at shift 1, V_n
    for n >= 1."""
    top, n1 = n // 2, n + 1 - shift
    if descending:
        c, a = 1, n  # a = n - 2m + 2 at step m
        for m in range(top + 1):
            if m:  # an exact division: the sign alternates with -c
                c = -c * (a * (a - 1)) // (m * (n1 - m))
                a -= 2
            yield c
        return
    # c_top: 1 and 2 for even n, (n+1)/2 and n for odd n
    c = (shift + 1) if n % 2 == 0 else (n if shift else (n + 1) // 2)
    c, a = (-c if top & 1 else c), n - 2 * top + 2
    for m in range(top, -1, -1):
        yield c
        if m:
            c = -c * (m * (n1 - m)) // (a * (a - 1))
            a += 2


def _interleave(k: int, hi: Iterable[int], lo: Iterable[int],
                descending: bool) -> Iterator[int]:
    """The k + 1 coefficients of a degree-k polynomial whose terms
    X^{k-2m} come from the run ``hi`` and X^{k-1-2m} from ``lo``, both in
    the order asked for; the ascending order starts from ``lo`` when k is
    odd.  ``lo`` may be longer than its share, as V_k's endless zeros."""
    if not descending and k % 2:
        hi, lo = lo, hi
    return islice(chain.from_iterable(zip_longest(hi, lo)), k + 1)


def tcheb_coeffs(k: int, descending: bool = False) -> Iterator[int]:
    """The k + 1 coefficients of V_k, from X^0 up or, descending, from X^k
    down, each made as it is read: the coefficient of X^{k-2m} is
    (-1)^m (C(k-m, m) + C(k-m-1, m-1)), with zeros between.

    >>> list(tcheb_coeffs(4)), list(tcheb_coeffs(3, descending=True))
    ([2, 0, -4, 0, 1], [1, 0, -3, 0])
    """
    if k < 0:
        raise ValueError("tcheb index must be non-negative")
    if not k:
        return iter(TWO.coeffs)  # V_0 = 2
    return _interleave(k, _binomial_run(k, 1, descending), repeat(0),
                       descending)


def ucheb_run(n: int, descending: bool = False) -> Iterator[int]:
    """The run (-1)^m C(n-m, m), m = 0..n//2, of the monic second-kind
    Chebyshev polynomial U_n: its coefficients of X^{n-2m}, from X^n down
    or, ascending, from the lowest power up; nothing for n < 0.  F_k is
    U_k + U_{k-1}, so the run of U_k serves F_k and F_{k+1}.

    >>> list(ucheb_run(4)), list(ucheb_run(3, descending=True))
    ([1, -3, 1], [1, -2])
    """
    return _binomial_run(n, 0, descending)


def fpoly_coeffs(k: int, descending: bool = False) -> Iterator[int]:
    """The k + 1 coefficients of F_k = U_k + U_{k-1}, from X^0 up or,
    descending, from X^k down, each made as it is read: two interleaved
    binomial runs, (-1)^m C(k-m, m) at X^{k-2m} and (-1)^m C(k-m-1, m) at
    X^{k-2m-1}.

    >>> list(fpoly_coeffs(4)), list(fpoly_coeffs(3, descending=True))
    ([1, -2, -3, 1, 1], [1, 1, -2, -1])
    """
    if k < 0:
        raise ValueError("fpoly index must be non-negative")
    return _interleave(k, ucheb_run(k, descending),
                       ucheb_run(k - 1, descending), descending)


def fpoly_sum(terms: Iterable[tuple[int, int]],
              descending: bool = False) -> Iterator[int]:
    """The coefficients of sum c F_r over the (c, r) ``terms``, up to the
    largest r, from X^0 up or, descending, from the top down: the streams
    of ``fpoly_coeffs``, sorted by r, joined two neighbours at a time in a
    balanced tree, ceil(log2(terms)) joins deep, so each coefficient is
    made as it is read; no dense polynomial is built.  Nothing for no
    terms.

    >>> list(fpoly_sum([(1, 2), (-3, 0)]))  # X^2 + X - 1 - 3
    [-4, 1, 1]
    >>> list(fpoly_sum([(1, 2), (-3, 0)], descending=True))
    [1, 1, -4]
    """
    sums = [(r, fpoly_coeffs(r, descending) if c == 1
             else map(mul, fpoly_coeffs(r, descending), repeat(c)))
            for c, r in sorted(terms, key=lambda t: t[1])]
    # join neighbours a and b, ra <= rb, into their sum up to rb, and halve
    # the list until one sum is left: a balanced tree
    while len(sums) > 1:
        joined = [(rb, chain(islice(b, rb - ra), map(add, b, a)) if descending
                   # map stops at a's end without reading b
                   else chain(map(add, a, b), b))
                  for (ra, a), (rb, b) in zip(sums[::2], sums[1::2])]
        sums = joined + sums[2 * len(joined):]  # an odd one out waits
    return sums[0][1] if sums else iter(())


def tcheb_closed(k: int) -> IntPoly:
    """Closed form of tcheb(k) for k >= 1, V_k = U_k - U_{k-2}: (-1)^m
    (C(k-m, m) + C(k-m-1, m-1)) at X^{k-2m}.  No caller in the library;
    kept for the ``chebfam.oracle`` tracer layer (ROADMAP item 15)."""
    if k < 1:
        raise ValueError("closed form is stated for k >= 1")
    return IntPoly(tuple(tcheb_coeffs(k)))


def fpoly_closed(k: int) -> IntPoly:
    """Closed form of fpoly(k) for k >= 1, F_k = U_k + U_{k-1}: the sum of
    (-1)^m C(k-m, m) X^{k-2m} and (-1)^m C(k-m-1, m) X^{k-2m-1}.  Kept,
    as ``tcheb_closed`` is, for the tracer layer only."""
    if k < 1:
        raise ValueError("closed form is stated for k >= 1")
    return IntPoly(tuple(fpoly_coeffs(k)))


def tcheb_trace(k: int) -> IntPoly:
    """tcheb(k) as the trace of the k-th power of [[X, -1], [1, 0]], by
    binary matrix exponentiation over the integers at X = 2^w (see
    ``intpoly``), read back once.  No closed form, stream or recurrence of
    the family enters it, so it stays an independent route.

    The width is w = ``slot_width(L_k)``: the |coefficients| of V_k sum to
    the Lucas number L_k, so none exceeds it, and the read-back raises
    ``OverflowError`` rather than wraps when the trace does not fit.

    >>> print(tcheb_trace(4))
    X^4 - 4*X^2 + 2
    """
    if k < 0:
        raise ValueError("tcheb index must be non-negative")
    lucas, ahead = 2, 1  # L_0, L_1
    for _ in range(k):
        lucas, ahead = ahead, lucas + ahead
    w = slot_width(lucas)
    count = k + 1
    a, b, c, d = 1, 0, 0, 1  # identity
    pa, pb, pc, pd = 1 << w, -1, 1, 0
    while k:
        if k & 1:
            a, b, c, d = (a * pa + b * pc, a * pb + b * pd,
                          c * pa + d * pc, c * pb + d * pd)
        k >>= 1
        if k:
            pa, pb, pc, pd = (pa * pa + pb * pc, pa * pb + pb * pd,
                              pc * pa + pd * pc, pc * pb + pd * pd)
    return IntPoly(tuple(unpack_balanced(a + d, w, count)))
