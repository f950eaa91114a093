"""Brute-force representation counters, the oracles of the root-of-unity
values of G_n, and the binomial coefficients of the second-kind Chebyshev
polynomials, the oracle of the coefficient streams; deliberately
independent of the library's polynomial code."""
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


def ucheb(n: int) -> list[int]:
    """The coefficients of U_n = sum (-1)^m C(n-m, m) X^{n-2m} from X^0 up
    (none for n < 0), each binomial from the previous one by the ratio
    (n-2m+2)(n-2m+1) / (m(n-m+1)): the library's dense formula before its
    coefficient streams, kept as their oracle."""
    out = [0] * (n + 1)
    c = 1
    for m in range(n // 2 + 1):
        if m:
            c = c * (n - 2 * m + 2) * (n - 2 * m + 1) // (m * (n - m + 1))
        out[n - 2 * m] = -c if m & 1 else c
    return out


def tcheb_oracle(k: int) -> list[int]:
    """V_k = U_k - U_{k-2} (V_0 = 2), coefficients from X^0 up."""
    if k == 0:
        return [2]
    low = ucheb(k - 2) + [0, 0]
    return [a - b for a, b in zip(ucheb(k), low)]


def fpoly_oracle(k: int) -> list[int]:
    """F_k = U_k + U_{k-1}, coefficients from X^0 up."""
    return [a + b for a, b in zip(ucheb(k), ucheb(k - 1) + [0])]
