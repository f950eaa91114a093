"""Brute-force representation counters, the oracles of the root-of-unity
values of G_n; deliberately independent of the library's polynomial code."""
from __future__ import annotations

from math import isqrt


def two_squares_count(n: int) -> int:
    """Number of ordered pairs (x, y) of integers with x^2 + y^2 = n,
    counting signs, by brute-force enumeration of |x| <= sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    count = 0
    for x in range(-isqrt(n), isqrt(n) + 1):
        rem = n - x * x
        y = isqrt(rem)
        if y * y == rem:
            count += 1 if y == 0 else 2
    return count


def square_plus_twice_square_count(n: int) -> int:
    """Number of ordered pairs (x, y) with x^2 + 2*y^2 = n, counting signs,
    by brute-force enumeration of |y| <= sqrt(n/2)."""
    if n < 1:
        raise ValueError("n must be positive")
    count = 0
    for y in range(-isqrt(n // 2), isqrt(n // 2) + 1):
        rem = n - 2 * y * y
        x = isqrt(rem)
        if x * x == rem:
            count += 1 if x == 0 else 2
    return count
