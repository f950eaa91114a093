"""Divisor arithmetic and consecutive-integer-run combinatorics.

Besides the plain divisor enumerations this module owns two things the
polynomial modules lean on:

* the interval-count coefficients ``a_coeff(n, i)``: the number of divisors
  d of n with (i + sqrt(2n+i^2))/2 < d <= i + sqrt(2n+i^2), decided purely
  in integer arithmetic (floating-point square roots would misclassify
  divisors that sit exactly on the boundary), and all of them for one n at
  once, ``a_coeffs(n)``;

* runs of consecutive integers summing to n (``IncreasingSequence``) and the
  involution pairing the odd-length run for each odd divisor with an
  even-length partner.  These runs index the monomials of the ideal-count
  polynomials.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import isqrt


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, by trial division to sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _trial_divisors(n, 1)


def odd_divisors(n: int) -> list[int]:
    """The odd positive divisors of n, ascending (always contains 1): the
    divisors of the odd part of n, so a power of two costs nothing."""
    if n < 1:
        raise ValueError("n must be positive")
    return _trial_divisors(n >> (n & -n).bit_length() - 1, 2)


def odd_divisor_counts(top: int) -> list[int]:
    """[len(odd_divisors(n)) for n = 1..top], by a counting sieve over odd d.

    >>> odd_divisor_counts(9)
    [1, 1, 2, 1, 2, 2, 2, 1, 3]
    """
    counts = [0] * (top + 1)
    for d in range(1, top + 1, 2):
        counts[d::d] = [c + 1 for c in counts[d::d]]
    return counts[1:]


#: The most trial divisions one divisor list may take: about a second.
TRIAL_LIMIT = 10**7


def _trial_divisors(n: int, step: int) -> list[int]:
    """The divisors of n among 1, 1 + step, 1 + 2 step, ..., ascending;
    refused when that takes more than ``TRIAL_LIMIT`` trial divisions."""
    if isqrt(n) > step * TRIAL_LIMIT:  # n itself may be too long for str()
        raise ValueError("cannot factor n within the work limit")
    small, large = [], []
    for d in range(1, isqrt(n) + 1, step):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def is_prime(n: int) -> bool:
    """Primality by trial division; adequate at desk scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def a_coeff(n: int, i: int) -> int:
    """Number of divisors d of n with (i + s)/2 < d <= i + s, s = sqrt(2n+i^2).

    The comparisons are done on squared quantities:
      d <= i + s      <=>  d*(d - 2i) <= 2n
      d > (i + s)/2   <=>  2d - i > 0  and  2d*(d - i) > n
    so boundary divisors (d exactly equal to i + s) are classified exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= i <= n - 1:
        raise ValueError(f"index i={i} out of range 0..{n - 1}")
    count = 0
    for d in divisors(n):
        if d * (d - 2 * i) <= 2 * n and 2 * d - i > 0 and 2 * d * (d - i) > n:
            count += 1
    return count


def a_coeffs(n: int) -> list[int]:
    """[a_coeff(n, 0), ..., a_coeff(n, n-1)] from one divisor list.

    Solved for i, the conditions of ``a_coeff`` say that d counts exactly
    for ceil((d^2 - 2n)/(2d)) <= i < (2d^2 - n)/(2d) (the bound 2d - i > 0
    follows from the upper one); each divisor adds 1 on that range of a
    difference array.
    """
    if n < 1:
        raise ValueError("n must be positive")
    diff = [0] * (n + 1)
    for d in divisors(n):
        lo = max(0, -((2 * n - d * d) // (2 * d)))
        hi = min(n - 1, (2 * d * d - n - 1) // (2 * d))
        if lo <= hi:
            diff[lo] += 1
            diff[hi + 1] -= 1
    return list(accumulate(diff[:n]))


def triangular_index(n: int) -> int | None:
    """The r with n = r(r+1)/2, or None if n is not triangular.

    Uses the exact test: n is triangular iff 8n+1 is a perfect square.
    """
    if n < 1:
        raise ValueError("n must be positive")
    s = isqrt(8 * n + 1)
    return (s - 1) // 2 if s * s == 8 * n + 1 else None


def near_triangular_index(n: int) -> int | None:
    """The r >= 1 with n = r(r+3)/2, or None (8n+9 a perfect square >= 25)."""
    s = isqrt(8 * n + 9)
    return (s - 3) // 2 if s * s == 8 * n + 9 and s >= 5 else None


@dataclass(frozen=True)
class IncreasingSequence:
    """The run of consecutive integers {a+1, ..., a+h}; h >= 1 elements.

    Stores only the pair (a, h); the element set is materialized on demand.
    A run is *positive* when a >= 0, *odd* when h is odd; its represented
    sum is h*(h + 2a + 1)/2.
    """

    a: int
    h: int

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError("run length h must be >= 1")

    def elements(self) -> range:
        return range(self.a + 1, self.a + self.h + 1)

    @property
    def total(self) -> int:
        """Sum of the elements: h*(h + 2a + 1)/2."""
        return self.h * (self.h + 2 * self.a + 1) // 2

    def is_positive(self) -> bool:
        return self.a >= 0

    def is_odd(self) -> bool:
        return self.h % 2 == 1


def involute(s: IncreasingSequence) -> IncreasingSequence:
    """The partner run under a + a' + 1 = 0, a' + h' = a + h.

    An involution on runs with positive total; it preserves the represented
    sum, flips the parity of the length, and swaps positive with negative
    runs.
    """
    return IncreasingSequence(-s.a - 1, 2 * s.a + s.h + 1)


def sequence_for_divisor(n: int, d: int) -> tuple[IncreasingSequence, IncreasingSequence]:
    """The odd-length run attached to an odd divisor d of n, with its partner.

    The odd run is IS(n/d - (d+1)/2, d), centered around n/d; the partner is
    its involute IS(-n/d + (d-1)/2, 2n/d).  Both sum to n.
    """
    if d < 1 or d % 2 == 0 or n % d:
        raise ValueError(f"d={d} is not an odd divisor of {n}")
    odd = IncreasingSequence(n // d - (d + 1) // 2, d)
    return odd, involute(odd)


def representations(n: int) -> list[IncreasingSequence]:
    """Every run (a, h) with h >= 1 summing to n, i.e. h*(h + 2a + 1) = 2n.

    Enumerated independently of the divisor pairing: h ranges over the
    divisors of 2n whose codivisor has the opposite parity.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for h in divisors(2 * n):
        other = 2 * n // h
        if (other - h) % 2 == 1:  # h + 2a + 1 = other needs opposite parity
            out.append(IncreasingSequence((other - h - 1) // 2, h))
    out.sort(key=lambda s: s.h)
    return out


@dataclass(frozen=True)
class OddDivisorTerm:
    """One odd divisor d of n with its offset r = n/d - (d+1)/2.

    The term contributes the degree ``f_index`` running-sum polynomial with
    sign ``sign`` to the decompositions: +F_r when r >= 0, else -F_{-r-1}.
    """

    d: int
    r: int

    @property
    def sign(self) -> int:
        return 1 if self.r >= 0 else -1

    @property
    def f_index(self) -> int:
        return self.r if self.r >= 0 else -self.r - 1


def odd_divisor_terms(n: int) -> list[OddDivisorTerm]:
    """One term per odd divisor of n, ascending in d; every formula that
    needs the offsets r reads them here."""
    return [OddDivisorTerm(d, n // d - (d + 1) // 2) for d in odd_divisors(n)]
