"""Symbolic factorizations of the point-count zeta functions.

The local zeta function of the n-point counting problem is a ratio of
degree-one factors (1 - q^e t); the Hasse-Weil function is the matching
product of shifted Riemann zeta values zeta(s - e), with the same integers
e, so ``hasse_weil_factors`` returns the local factorization.  Both are
represented purely as exponent multisets (sorted tuples) -- nothing is
evaluated numerically, because the verifiable content is exactly the
factor structure:

  per odd divisor d of n, with r = n/d - (d+1)/2,
    numerator exponents   {n + r, n - r}
    denominator exponents {n + r + 1, n - r - 1}

Each multiset has 2 * (number of odd divisors) elements, all in [0, 2n],
symmetric about n; the symmetry is the functional equation s -> 2n - s.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .divisors import odd_divisor_terms
from .hilbert import cn_via_coeff_formula


@dataclass(frozen=True)
class ZetaFactorization:
    """Local zeta function as exponent multisets: e in ``numerator`` stands
    for a factor (1 - q^e t), likewise for ``denominator``."""

    n: int
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def cancelled(self) -> ZetaFactorization:
        """Remove factors common to numerator and denominator."""
        num, den = Counter(self.numerator), Counter(self.denominator)
        common = num & den
        return ZetaFactorization(
            self.n,
            tuple(sorted((num - common).elements())),
            tuple(sorted((den - common).elements())),
        )

    def to_json(self) -> dict:
        return {"n": self.n, "num": list(self.numerator),
                "den": list(self.denominator)}


def local_zeta_factors(n: int) -> ZetaFactorization:
    """Exponent multisets of the local zeta function, sorted ascending.

    >>> z = local_zeta_factors(4)
    >>> z.numerator, z.denominator
    ((1, 7), (0, 8))
    """
    if n < 1:
        raise ValueError("n must be positive")
    num: list[int] = []
    den: list[int] = []
    for t in odd_divisor_terms(n):
        num += [n + t.r, n - t.r]
        den += [n + t.r + 1, n - t.r - 1]
    return ZetaFactorization(n, tuple(sorted(num)), tuple(sorted(den)))


def hasse_weil_factors(n: int) -> ZetaFactorization:
    return local_zeta_factors(n)


def check_functional_equation(n: int) -> bool:
    """Whether the map e -> 2n - e sends each exponent multiset to itself,
    the symbolic form of the functional equation s -> 2n - s."""
    hw = hasse_weil_factors(n)
    return (sorted(2 * n - e for e in hw.numerator) == list(hw.numerator)
            and sorted(2 * n - e for e in hw.denominator)
            == list(hw.denominator))


def zeta_consistency_with_cn(n: int) -> ZetaFactorization:
    """The cancelled factorization rebuilt from the coefficient formula for
    the full count, a second route to ``local_zeta_factors(n).cancelled()``.

    A coefficient c at q^e of the count contributes the exponent e with
    multiplicity |c|, to the denominator when c > 0 and to the numerator
    when c < 0.
    """
    num: list[int] = []
    den: list[int] = []
    for e, c in cn_via_coeff_formula(n).support():
        target, mult = (den, c) if c > 0 else (num, -c)
        target += [e] * mult
    return ZetaFactorization(n, tuple(sorted(num)),
                             tuple(sorted(den))).cancelled()


# -- rendering ------------------------------------------------------------------

def _factor_str(e: int, mult: int) -> str:
    base = "(1-t)" if e == 0 else "(1-q*t)" if e == 1 else f"(1-q^{e}*t)"
    return base if mult == 1 else f"{base}^{mult}"


def format_local_zeta(z: ZetaFactorization) -> str:
    """Product string in the usual display style, e.g. for n = 4:
    (1-q*t)(1-q^7*t) / (1-t)(1-q^8*t)."""
    num = "".join(_factor_str(e, m) for e, m in sorted(Counter(z.numerator).items()))
    den = "".join(_factor_str(e, m) for e, m in sorted(Counter(z.denominator).items()))
    return f"{num} / {den}"
