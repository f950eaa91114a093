"""Reference values computed without the library, for checking its output.

Everything here is written from the definitions: divisor sums by sieve,
V_k(x) (the Lucas sequence with P = x, Q = 1, so V_k(3) = L_{2k}) by fast
doubling or by its own recurrence, F_k(x) = (V_{k+1}(x) - V_k(x)) / (x - 2)
with F_k(2) = 2k + 1, and G_n(x) as the signed sum of F over odd divisors.
"""
from __future__ import annotations


def odd_divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            for e in {d, n // d}:
                if e & 1:
                    out.append(e)
        d += 1
    return sorted(out)


def sigma(n: int) -> int:
    total, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            total += d if d * d == n else d + n // d
        d += 1
    return total


def divisor_sieve(limit: int) -> tuple[list[int], list[list[int]]]:
    """sigma(n) and the odd divisors of n for every n <= limit."""
    sig = [0] * (limit + 1)
    odd: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            sig[m] += d
            if d & 1:
                odd[m].append(d)
    return sig, odd


def lucas_v(k: int, x: int) -> int:
    """V_k(x) by doubling: V_{2m} = V_m^2 - 2, V_{2m+1} = V_m V_{m+1} - x."""
    a, b = 2, x  # V_m, V_{m+1} with m = 0
    for bit in bin(k)[2:]:
        if bit == "1":
            a, b = a * b - x, b * b - 2
        else:
            a, b = a * a - 2, a * b - x
    return a


def f_value(k: int, x: int) -> int:
    if x == 2:
        return 2 * k + 1
    num = lucas_v(k + 1, x) - lucas_v(k, x)
    q, r = divmod(num, x - 2)
    if r:
        raise ArithmeticError(f"F_{k}({x}) is not integral")
    return q


def v_values(top: int, x: int) -> list[int]:
    """V_0(x) .. V_top(x) from V_{k+1} = x V_k - V_{k-1}."""
    v = [2, x]
    while len(v) < top + 1:
        v.append(x * v[-1] - v[-2])
    return v[:top + 1]


def f_values(top: int, x: int) -> list[int]:
    """F_0(x) .. F_top(x) as differences of V."""
    if x == 2:
        return [2 * k + 1 for k in range(top + 1)]
    v = v_values(top + 1, x)
    return [(v[k + 1] - v[k]) // (x - 2) for k in range(top + 1)]


def _terms(n: int, odd: list[int]) -> list[tuple[int, int]]:
    """(sign, index) of F per odd divisor d, offset r = n/d - (d+1)/2."""
    out = []
    for d in odd:
        r = n // d - (d + 1) // 2
        out.append((1, r) if r >= 0 else (-1, -r - 1))
    return out


def g_value(n: int, x: int, odd: list[int] | None = None,
            fvals: list[int] | None = None) -> int:
    """G_n(x); ``fvals`` (F_0(x), F_1(x), ...) saves recomputing F."""
    odd = odd_divisors(n) if odd is None else odd
    f = (lambda k: fvals[k]) if fvals is not None else (lambda k: f_value(k, x))
    return sum(s * f(k) for s, k in _terms(n, odd))


def c_value(n: int, x: int) -> int:
    """C_n(x): per odd divisor, x^(n+r+1) - x^(n+r) - x^(n-r) + x^(n-r-1)."""
    total = 0
    for d in odd_divisors(n):
        r = n // d - (d + 1) // 2
        total += x ** (n + r + 1) - x ** (n + r) - x ** (n - r) + x ** (n - r - 1)
    return total


def p_value(n: int, x: int) -> int:
    """P_n(x) = C_n(x) / (x - 1)^2, and P_n(1) = sigma(n)."""
    if x == 1:
        return sigma(n)
    q, r = divmod(c_value(n, x), (x - 1) ** 2)
    if r:
        raise ArithmeticError(f"C_{n}({x}) not divisible by ({x} - 1)^2")
    return q
