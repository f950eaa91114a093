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

It also owns the walk behind every sweep over n: ``blocks`` cuts 1..top
into blocks, and ``odd_divisor_runs`` gives the odd divisors of each block
as runs of offsets, which ``odd_divisor_counts`` counts and
``hilbert.pg_blocks`` turns into values.
"""
from __future__ import annotations

from collections.abc import Iterator
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


#: The n that one block of an odd-divisor walk covers, for top < 2^14: the
#: values of a sweep are held one block at a time
BLOCK = 1 << 9


def odd_divisor_runs(lo: int, hi: int) -> Iterator[tuple[slice, int, int, int]]:
    """The pairs n = m*d with lo <= n <= hi and d >= 3 an odd divisor, as
    runs (positions, length, r, step): the positions of their n - lo as a
    slice, and along them the offset r = m - (d+1)/2, starting at r and
    moving by step, +1 or -1, without changing sign.

    Each d <= sqrt(hi) walks its multiples, r rising with m; each larger d
    has a cofactor m < sqrt(hi), which walks the odd d, r falling.  A block
    costs O(B log B + sqrt(hi)) steps for B = hi - lo + 1.

    Over 9..12: d = 3 at 9 and 12 (r = 1, 2), then the cofactor 1 with
    d = 9, 11 (r = -4, -5) and the cofactor 2 with d = 5 (r = -1):

    >>> list(odd_divisor_runs(9, 12))  # doctest: +NORMALIZE_WHITESPACE
    [(slice(0, 4, 3), 2, 1, 1), (slice(0, 3, 2), 2, -4, -1),
     (slice(1, 2, 4), 1, -1, -1)]
    """
    root = isqrt(hi)
    for d in range(3, root + 1, 2):  # m rises: r < 0 below m = (d+1)/2
        half = (d + 1) // 2
        first, last = -(-lo // d), hi // d
        turn = min(max(first, half), last + 1)
        for a, b in ((first, turn - 1), (turn, last)):
            if a <= b:
                yield (slice(a * d - lo, b * d - lo + 1, d), b - a + 1,
                       a - half, 1)
    for m in range(1, hi // (root + 1) + 1):  # d rises: r < 0 from d = 2m+1
        first = max(root + 1, 3, -(-lo // m)) | 1
        last = (hi // m - 1) | 1
        turn = min(max(first, 2 * m + 1), last + 2)
        for a, b in ((first, turn - 2), (turn, last)):
            if a <= b:
                yield (slice(m * a - lo, m * b - lo + 1, 2 * m),
                       (b - a) // 2 + 1, m - (a + 1) // 2, -1)


def blocks(top: int) -> Iterator[range]:
    """n = 1..top as consecutive ranges of ``BLOCK`` n, or from top = 2^14
    on of about 8 sqrt(top): the walk of a block costs about 1.5 sqrt(top)
    runs besides its n, and the count of odd divisors to 10^7 took 27 s in
    blocks of 2^11 and 7 s in blocks of 2^14.

    >>> list(blocks(1200))
    [range(1, 513), range(513, 1025), range(1025, 1201)]
    >>> len(next(blocks(10 ** 7)))
    25088
    """
    size = BLOCK * max(1, isqrt(top) >> 6)
    return (range(lo, min(lo + size, top + 1)) for lo in range(1, top + 1, size))


def odd_divisor_counts(top: int) -> Iterator[int]:
    """len(odd_divisors(n)) for n = 1..top, one block at a time: the walk of
    ``odd_divisor_runs`` with every term 1.

    >>> list(odd_divisor_counts(9))
    [1, 1, 2, 1, 2, 2, 2, 1, 3]
    """
    for block in blocks(top):
        counts = [1] * len(block)  # d = 1
        for sl, *_ in odd_divisor_runs(block.start, block[-1]):
            counts[sl] = [c + 1 for c in counts[sl]]
        yield from counts


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
