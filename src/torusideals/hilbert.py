"""The codimension-n ideal-count polynomials and their cross-formulas.

The families, all exact, and the coefficient runs of two of them:

* ``cn_*``: the full count C_n(q), a palindromic monic polynomial of degree
  2n divisible by (q-1)^2 -- built either from the odd divisors of n or from
  the triangular-number coefficient formula;
* ``pn_from_cn``: the quotient P_n(q) = C_n(q)/(q-1)^2, palindromic with
  non-negative coefficients;
* ``cn_runs`` and ``pn_runs``: the coefficients of C_n and P_n as
  run-length lists, O(tau(n)) long, with no dense tuple: the routes the
  CLI writes whole polynomials from.  ``cn_runs`` places the at most
  4 tau_odd(n) terms of the odd divisors; ``pn_runs`` adds the signed
  intervals of exponents that the consecutive-integer runs of
  ``sequence_for_divisor`` differ by.  ``cn_via_odd_divisors`` and
  ``pg_via_sequences`` are their dense expansions, so ``verify routes``
  checks them against the coefficient formula ("cn two-route") and against
  C_n divided by (q-1)^2 ("pg sequence route");
* ``pg_*``: the degree n-1 polynomial G_n with G_n(q + q^{-1}) =
  P_n(q)/q^{n-1}, reachable by four independent routes (divisor-interval
  counts, odd-divisor sums of running-sum polynomials, Laurent round trip,
  and the generating-function oracle in ``series``).  The odd-divisor
  route is also a coefficient stream, ``pg_coeffs``, that holds no dense
  polynomial: the route the CLI writes G_n from, which
  ``pg_via_odd_divisors`` collects;
* ``pg_blocks``: the values G_n(x) of a sweep over n, one block at a time,
  from the odd-divisor walk of ``divisors.odd_divisor_runs``; the kernel of
  every sweep that the CLI prints, with ``pg_eval_int`` as its oracle.

The defect G_n - F_{n-1} has two routes of its own: ``approx_defect``
builds it from the interval counts, ``defect_kind`` reads its shape off the
odd-divisor terms.  Every function here computes a route, returns a plain
polynomial (or its coefficients) and asserts no law about it: ``verify`` compares the routes and
checks the laws, reporting the values on both sides.  Only malformed input,
an n too large to factor, and a count that (q-1)^2 does not divide raise.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from decimal import Decimal, localcontext
from itertools import chain, cycle, islice, repeat
from operator import add, sub

from .chebfam import EXACT, fpoly_period, fpoly_stream, fpoly_sum, fpoly_value
from .divisors import (
    OddDivisorTerm,
    a_coeffs,
    blocks,
    divisors,
    odd_divisor_runs,
    odd_divisor_terms,
    odd_divisors,
    sequence_for_divisor,
    triangular_index,
)
from .intpoly import (
    IntPoly,
    LaurentPoly,
    chebyshev_sum,
    exact_div,
    laurent_to_x_basis,
)

#: q - 1, which every full count carries squared.
Q_MINUS_ONE = LaurentPoly(0, (-1, 1))


def pg_via_interval(n: int) -> IntPoly:
    """G_n from the divisor-interval counts: a_{n,0} + sum a_{n,i} V_i(X).

    >>> print(pg_via_interval(3))
    X^2 + X - 2
    """
    if n < 1:
        raise ValueError("n must be positive")
    return chebyshev_sum(a_coeffs(n))


def pg_coeffs(n: int, descending: bool = False) -> Iterator[int]:
    """The n coefficients of G_n, from X^0 up or, descending, from X^{n-1}
    down, each made as it is read: the signed sum of F-polynomials indexed
    by the odd divisors, +F_{r} for divisors with offset r >= 0,
    -F_{-r-1} for the rest, as ``fpoly_sum`` merges their tau_odd(n)
    coefficient streams.

    >>> list(pg_coeffs(3))
    [-2, 1, 1]
    """
    if n < 1:
        raise ValueError("n must be positive")
    return fpoly_sum(((t.sign, t.f_index) for t in odd_divisor_terms(n)),
                     descending)


def pg_via_odd_divisors(n: int) -> IntPoly:
    """G_n as the signed sum of F-polynomials indexed by the odd divisors:
    ``pg_coeffs`` collected."""
    return IntPoly(tuple(pg_coeffs(n)))


def cn_runs(n: int) -> list[tuple[int, int]]:
    """The (value, length) runs of C_n's 2n + 1 coefficients, from q^0 up.

    Each odd divisor d, with offset r = n/d - (d+1)/2, adds
    q^n (q^{r+1} + q^{-r-1} - q^r - q^{-r}): at most 4 tau_odd(n) nonzero
    terms, with runs of zeros between them.

    >>> cn_runs(4)
    [(1, 1), (-1, 1), (0, 5), (-1, 1), (1, 1)]
    """
    if n < 1:
        raise ValueError("n must be positive")
    steps: Counter[int] = Counter()
    for t in odd_divisor_terms(n):
        for e, c in ((n + t.r + 1, 1), (n - t.r - 1, 1),
                     (n + t.r, -1), (n - t.r, -1)):
            steps[e] += c
            steps[e + 1] -= c
    return _step_runs(steps, 2 * n + 1)


def pn_runs(n: int) -> list[tuple[int, int]]:
    """The (value, length) runs of P_n's 2n - 1 coefficients, from q^0 up.

    The odd run of each odd divisor and its involute share their top
    element, so they differ by the exponents range(lo + 1, hi + 1) of the
    centered form P_n/q^{n-1}, lo and hi their two starts a and a': +1 on
    it when the odd run is positive, -1 when it is negative.  Only the
    2 tau_odd(n) ends of those intervals are sorted; no run is
    materialized.

    >>> pn_runs(5)
    [(1, 3), (0, 3), (1, 3)]
    """
    if n < 1:
        raise ValueError("n must be positive")
    steps: Counter[int] = Counter()
    for d in odd_divisors(n):
        odd_run, even_run = sequence_for_divisor(n, d)
        sign = 1 if odd_run.is_positive() else -1
        lo, hi = sorted((odd_run.a, even_run.a))
        steps[lo + n] += sign  # centered exponent lo + 1 is q^(lo + n)
        steps[hi + n] -= sign
    return _step_runs(steps, 2 * n - 1)


def _step_runs(steps: Counter[int], size: int) -> list[tuple[int, int]]:
    """The (value, length) runs of c_0..c_{size-1}, where c starts at 0 and
    changes by steps[e] at index e; adjacent runs have distinct values."""
    runs = []
    value = start = 0
    for e in sorted(e for e, c in steps.items() if c) + [size]:
        if e > start:
            runs.append((value, e - start))
            start = e
        value += steps[e]
    return runs


def expand_runs(runs: list[tuple[int, int]]) -> tuple[int, ...]:
    """The dense coefficients that the (value, length) runs stand for.

    >>> expand_runs([(1, 2), (0, 1), (-1, 1)])
    (1, 1, 0, -1)
    """
    return tuple(chain.from_iterable(repeat(v, k) for v, k in runs))


def cn_via_odd_divisors(n: int) -> LaurentPoly:
    """C_n(q) summed over odd divisors d with offset r = n/d - (d+1)/2:
    each d contributes q^n (q^{r+1} + q^{-r-1} - q^r - q^{-r}).  The dense
    expansion of ``cn_runs``, which ``verify`` holds against
    ``cn_via_coeff_formula``."""
    return LaurentPoly(0, expand_runs(cn_runs(n)))


def cn_via_coeff_formula(n: int) -> LaurentPoly:
    """C_n(q) from the coefficient formula.

    The constant coefficient of C_n(q)/q^n is 2*(-1)^r when n = r(r+1)/2 and
    0 otherwise.  For i >= 1 the coefficient of q^i + q^{-i} is (-1)^k when
    2n = k(k+2i+1) and (-1)^{k-1} when 2n = k(k+2i-1) (k >= 1).  Solutions
    are enumerated over the divisors k of 2n rather than by scanning i, and
    each adds its sign, so the claim that the two cases never fire at the
    same i is left to ``verify``: a hit of both would show as a wrong
    coefficient there.
    """
    if n < 1:
        raise ValueError("n must be positive")
    buf = [0] * (2 * n + 1)  # index e holds the coefficient of q^e
    r = triangular_index(n)
    if r is not None:
        buf[n] = -2 if r & 1 else 2
    two_n = 2 * n
    for k in divisors(two_n):
        other = two_n // k
        sign = -1 if k & 1 else 1  # (-1)^k
        # 2n = k(k + 2i + 1) gives i = (other - k - 1)/2 with sign (-1)^k,
        # 2n = k(k + 2i - 1) gives i = (other - k + 1)/2 with sign (-1)^{k-1}
        for num, c in ((other - k - 1, sign), (other - k + 1, -sign)):
            if num >= 2 and num % 2 == 0:
                buf[n + num // 2] += c
                buf[n - num // 2] += c
    return LaurentPoly(0, tuple(buf))


def pn_from_cn(n: int) -> LaurentPoly:
    """P_n(q) = C_n(q)/(q-1)^2, an ordinary polynomial in q (min_exp 0).

    Divides by q - 1 twice, since ``exact_div`` divides by a monic linear
    divisor only.  Non-divisibility cannot occur for genuine counts; if it
    does, the ``NonDivisibleError`` from either division is allowed to
    propagate as an internal-consistency failure.
    """
    return exact_div(exact_div(cn_via_odd_divisors(n), Q_MINUS_ONE),
                     Q_MINUS_ONE)


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
    return sum(power(n + t.r + 1) + power(n - t.r - 1)
               - power(n + t.r) - power(n - t.r) for t in odd_divisor_terms(n))


def pn_eval_int(n: int, x: int) -> int:
    """Integer value of P_n at x: C_n(x)/(x-1)^2, and P_n(1) = G_n(2), since
    G_n(q + 1/q) = P_n(q)/q^{n-1}."""
    return cn_eval_int(n, x) // (x - 1) ** 2 if x != 1 else pg_eval_int(n, 2)


def _closed_terms(x: int) -> Callable[[int, int, int], tuple] | None:
    """At |x| <= 2, the signed F-terms of the runs of ``odd_divisor_runs``
    as ints: (r, step, count) -> (add, F_r(x), F_{r+step}(x), ... count of
    them), with F_{-k-1}(x) = -F_k(x), the recurrence run backwards.  They
    are 2r + 1 at x = 2 and periodic in r at x = -2, -1, 0, 1, so no list
    of values is kept.  None at |x| > 2."""
    if x == 2:
        return lambda r, step, count: (
            add, range(2 * r + 1, 2 * (r + step * count) + 1, 2 * step))
    if abs(x) > 2:
        return None
    ahead = fpoly_period(x)
    back, p = ahead[::-1], len(ahead)

    def terms(r: int, step: int, count: int) -> tuple:
        start = r % p if step > 0 else (-r - 1) % p
        return add, islice(cycle(ahead if step > 0 else back),
                           start, start + count)
    return terms


def _listed_terms(x: int, top: int) -> Callable[[int, int, int], tuple]:
    """At |x| > 2, the signed F-terms of the runs for n <= top, as exact
    ``Decimal``s from the list F_0(x), ..., F_{top//2}(x): (r, step, count)
    -> (op, terms), with op subtracting F_{-r-1}(x) where r < 0.  Every
    index asked for is below n/2: r < n/3 where r >= 0, and -r-1 <= (d-3)/2
    where r < 0, for an odd divisor d >= 3 of n."""
    with localcontext(EXACT):
        fs = list(islice(fpoly_stream(Decimal(x)), top // 2 + 1))

    def terms(r: int, step: int, count: int) -> tuple:
        op = add
        if r < 0:
            r, step, op = -r - 1, -step, sub
        stop = r + step * count
        return op, fs[r:stop if stop >= 0 else None:step]
    return terms


def fpoly_blocks(count: int, x: int) -> Iterator[list]:
    """F_0(x), ..., F_{count-1}(x) in the blocks of ``divisors.blocks``: as
    ints at |x| <= 2, from the closed and periodic forms, and otherwise as
    exact ``Decimal``s rolled by the value recurrence, printable in linear
    time.  ``x`` may be an int or an integral ``Decimal``."""
    x = int(x)
    closed = _closed_terms(x)
    stream = fpoly_stream(Decimal(x))
    for block in blocks(count):
        if closed:
            yield list(closed(block.start - 1, 1, len(block))[1])
        else:
            with localcontext(EXACT):
                fs = list(islice(stream, len(block)))
            yield fs


def pg_blocks(top: int, x: int) -> Iterator[tuple[list, list]]:
    """The sweep of G_n(x) for n = 1..top, one block of ``divisors.blocks``
    at a time: the lists of F_{n-1}(x) and of G_n(x) over the block, as
    ``fpoly_blocks`` gives its values.

    G_n(x) is the sum of F_r(x) over the odd divisors d of n, r = n/d -
    (d+1)/2 and F_{-k-1} = -F_k: F_{n-1}(x) for d = 1, and the runs of
    ``odd_divisor_runs`` for the rest.  So a sweep holds one block, and
    at |x| > 2 also F_0(x), ..., F_{top//2}(x), about a quarter of the
    sweep's digits.  ``pg_eval_int`` is its oracle.

    >>> [gs for _, gs in pg_blocks(6, 2)]  # sigma(n)
    [[1, 3, 4, 7, 6, 12]]
    """
    x = int(x)
    terms = _closed_terms(x) or _listed_terms(x, top)
    for block, fs in zip(blocks(top), fpoly_blocks(top, x)):
        with localcontext(EXACT):
            gs = list(fs)  # the d = 1 term
            for sl, count, r, step in odd_divisor_runs(block.start, block[-1]):
                op, vals = terms(r, step, count)
                gs[sl] = map(op, gs[sl], vals)
        yield fs, gs


def approx_defect(n: int) -> IntPoly:
    """The difference G_n - F_{n-1}, built from the interval counts as
    b_0 + sum b_i V_i(X) with b_i = a_{n,i} - 1.

    b is piecewise constant: it changes only at the ends of the divisor
    ranges of ``a_coeffs``, at most 2*tau(n) places.  Since F_j = 1 + V_1 +
    ... + V_j, Abel summation turns the sum into sum (b_j - b_{j+1}) F_j
    (with b_n = 0), which has a term only where b changes: O(tau(n) * n)
    coefficient operations instead of O(n^2).

    The paper's laws on the result, degree < n/2 - 1 and zero exactly when
    n is a power of two, are checked by ``verify special``.

    >>> print(approx_defect(9))
    -X^3 - X^2 + 3*X + 2
    """
    if n < 2:
        raise ValueError("defect is defined for n >= 2")
    b = [a - 1 for a in a_coeffs(n)] + [0]
    return IntPoly(tuple(fpoly_sum((b[j] - b[j + 1], j)
                                   for j in range(n) if b[j] != b[j + 1])))


def defect_kind(terms: list[OddDivisorTerm]) -> str:
    """The shape of the defect G_n - F_{n-1}, read off the odd-divisor terms
    of n: "zero", "+F0", "-F0", "+F1", "-F1" or "other".

    The defect is the signed sum of the terms with d > 1.  Distinct
    divisors give distinct F-indices, and no index occurs with both signs,
    so no term means a zero defect and one F_0 or F_1 term means the defect
    is exactly that polynomial.

    >>> defect_kind(odd_divisor_terms(10))
    '-F0'
    """
    extra = [t for t in terms if t.d > 1]
    if not extra:
        return "zero"
    if len(extra) == 1 and extra[0].f_index < 2:
        return f"{'+' if extra[0].sign > 0 else '-'}F{extra[0].f_index}"
    return "other"


def pg_via_sequences(n: int) -> LaurentPoly:
    """The centered Laurent form P_n(q)/q^{n-1} as a signed sum of monomials
    q^e, e running over set differences of consecutive-integer runs.

    For each odd divisor with a positive odd run the partner run contains
    it and the difference contributes +q^e; for a negative odd run the
    containment reverses and the contribution is -q^e.  The dense
    expansion of ``pn_runs``, shifted down by n - 1, which ``verify`` holds
    against C_n divided by (q-1)^2.
    """
    return LaurentPoly(-(n - 1), expand_runs(pn_runs(n)))
