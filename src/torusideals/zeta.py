"""Symbolic factorizations of the point-count zeta functions.

The local zeta function of the n-point counting problem is a ratio of
degree-one factors (1 - q^e t); the Hasse-Weil function is the matching
product of shifted Riemann zeta values zeta(s - e), with the same integers
e, so ``hasse_weil_factors`` returns the local factorization.  Both are
represented purely as exponent multisets (sorted tuples) -- nothing is
evaluated numerically, because the verifiable content is exactly the
factor structure.

As log Z = sum C_n(q^m) t^m / m, the numerator and denominator are the
exponents of C_n's negative and positive terms, two of each per odd
divisor of n as ``hilbert.cn_exponents`` lists them: all in [0, 2n] and
symmetric about n, the symmetry being the functional equation s -> 2n - s.
``zeta_consistency_with_cn`` reads the coefficient formula's terms from
``hilbert.cn_formula_exponents``: no polynomial is built here.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable
from itertools import groupby

from .hilbert import cn_exponents, cn_formula_exponents


class ZetaFactorization(namedtuple("ZetaFactorization",
                                   "n numerator denominator")):
    """Local zeta function as exponent multisets: e in ``numerator`` stands
    for a factor (1 - q^e t), likewise for ``denominator``."""

    __slots__ = ()
    n: int
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    @classmethod
    def of_terms(cls, n: int, plus: Iterable[int],
                 minus: Iterable[int]) -> ZetaFactorization:
        """The factorization of a count with terms +q^e at the exponents
        ``plus`` (the denominator) and -q^e at ``minus`` (the numerator)."""
        return cls(n, tuple(sorted(minus)), tuple(sorted(plus)))

    def cancelled(self) -> ZetaFactorization:
        """Remove factors common to numerator and denominator."""
        num, den = Counter(self.numerator), Counter(self.denominator)
        return self.of_terms(self.n, (den - num).elements(),
                             (num - den).elements())

    def to_json(self) -> dict:
        return {"n": self.n, "num": list(self.numerator),
                "den": list(self.denominator)}


def local_zeta_factors(n: int) -> ZetaFactorization:
    """Exponent multisets of the local zeta function, sorted ascending.

    >>> z = local_zeta_factors(4)
    >>> z.numerator, z.denominator
    ((1, 7), (0, 8))
    """
    return ZetaFactorization.of_terms(n, *cn_exponents(n))


def hasse_weil_factors(n: int) -> ZetaFactorization:
    return local_zeta_factors(n)


def check_functional_equation(z: ZetaFactorization) -> bool:
    """Whether the map e -> 2n - e sends each exponent multiset of ``z`` to
    itself, the symbolic form of the functional equation s -> 2n - s."""
    return all(sorted(2 * z.n - e for e in es) == list(es)
               for es in (z.numerator, z.denominator))


def zeta_consistency_with_cn(n: int) -> ZetaFactorization:
    """The cancelled factorization from the coefficient formula's terms, a
    second route to ``local_zeta_factors(n).cancelled()``.  Its lists are
    unsummed, so a term +q^e may meet a -q^e: ``cancelled`` removes both."""
    return ZetaFactorization.of_terms(n, *cn_formula_exponents(n)).cancelled()


# -- rendering ------------------------------------------------------------------

def _factor_str(e: int, mult: int) -> str:
    base = "(1-t)" if e == 0 else "(1-q*t)" if e == 1 else f"(1-q^{e}*t)"
    return base if mult == 1 else f"{base}^{mult}"


def format_local_zeta(z: ZetaFactorization) -> str:
    """Product string in the usual display style, e.g. for n = 4:
    (1-q*t)(1-q^7*t) / (1-t)(1-q^8*t)."""
    return " / ".join("".join(_factor_str(e, sum(1 for _ in g))
                              for e, g in groupby(es))
                      for es in (z.numerator, z.denominator))
