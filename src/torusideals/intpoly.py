"""Exact dense polynomials over the integers, plus Laurent polynomials in q.

Two carriers live here: ``IntPoly`` for ordinary polynomials in X with
arbitrary-precision integer coefficients, and ``LaurentPoly`` for finitely
supported integer combinations of powers q^i with i possibly negative.
Everything is immutable and canonical; all arithmetic is exact.

The one non-obvious operation is the basis change ``laurent_to_x_basis``:
a palindromic Laurent polynomial that is symmetric about q^0 is a unique
integer combination of 1 and the binomials q^i + q^{-i}, and each
q^i + q^{-i} equals the degree-i monic Chebyshev polynomial evaluated at
q + q^{-1}.  The inverse substitution is therefore exact over the integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


class NonDivisibleError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _strip(cs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(cs)
    while end and cs[end - 1] == 0:
        end -= 1
    return cs[:end]


@dataclass(frozen=True)
class IntPoly:
    """Dense polynomial in X; ``coeffs[i]`` is the coefficient of X^i.

    Canonical form: no trailing zeros, the zero polynomial is the empty
    tuple.  The constructor normalizes, so equality is structural.

    >>> IntPoly((1, 0, 1))
    IntPoly('X^2 + 1')
    >>> IntPoly((0, 0)) == IntPoly(())
    True
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _strip(tuple(self.coeffs)))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        """Coefficient of X^i (zero outside the stored range)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(_add_at(list(a), 0, b)))

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        return IntPoly(tuple(add_product([], self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def __divmod__(self, other: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Long division over the integers.

        Requires every quotient coefficient to be an integer, which holds in
        particular whenever ``other`` is monic; raises ``NonDivisibleError``
        when an intermediate leading coefficient is not divisible.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = other.coeffs
        dlead = dcs[-1]
        qlen = len(rem) - len(dcs) + 1
        if qlen <= 0:
            return ZERO, self
        quo = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            top = rem[k + len(dcs) - 1]
            if top == 0:
                continue
            q, r = divmod(top, dlead)
            if r:
                raise NonDivisibleError(
                    f"leading coefficient {top} not divisible by {dlead}")
            quo[k] = q
            for j, d in enumerate(dcs):
                rem[k + j] -= q * d
        return IntPoly(tuple(quo)), IntPoly(tuple(rem))

    def __floordiv__(self, other: IntPoly) -> IntPoly:
        """Exact quotient; raises ``NonDivisibleError`` on nonzero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():  # no operand in the message: it may be huge
            raise NonDivisibleError("nonzero remainder in exact division")
        return q

    def divides(self, other: IntPoly) -> bool:
        """True iff self divides other exactly over the integers."""
        try:
            _, r = divmod(other, self)
        except NonDivisibleError:
            return False
        return r.is_zero()

    # -- evaluation and substitution -----------------------------------------

    def eval_int(self, x: int) -> int:
        """Exact value at an integer, by ``_horner``."""
        return _horner(self.coeffs, x)

    def eval_q_plus_qinv(self) -> LaurentPoly:
        """Substitute X := q + q^{-1}, landing in the Laurent ring."""
        acc = LAURENT_ZERO
        arg = LaurentPoly(-1, (1, 0, 1))  # q + q^{-1}
        for c in reversed(self.coeffs):
            acc = acc * arg + LaurentPoly(0, (c,))
        return acc

    # -- rendering ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntPoly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


ZERO = IntPoly(())
ONE = IntPoly((1,))
TWO = IntPoly((2,))
X = IntPoly((0, 1))


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial in q; ``coeffs[i]`` is the coefficient of q^{min_exp+i}.

    Canonical form: first and last stored coefficients are nonzero; the zero
    polynomial is ``LaurentPoly(0, ())``.
    """

    min_exp: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(self.coeffs)
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        cs = _strip(cs[lead:])
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "min_exp", self.min_exp + lead if cs else 0)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero Laurent polynomial has no support")
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, e: int) -> int:
        """Coefficient of q^e."""
        i = e - self.min_exp
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def support(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) over the nonzero support, ascending."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_exp + i, c

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.min_exp + len(self.coeffs), other.min_exp + len(other.coeffs))
        out = [0] * (hi - lo)
        _add_at(out, self.min_exp - lo, self.coeffs)
        _add_at(out, other.min_exp - lo, other.coeffs)
        return LaurentPoly(lo, tuple(out))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(self.min_exp + other.min_exp,
                           tuple(add_product([], self.coeffs, other.coeffs)))

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by q^k (k of either sign)."""
        if self.is_zero():
            return self
        return LaurentPoly(self.min_exp + k, self.coeffs)

    def eval_int(self, q: int) -> int:
        """Exact integer value; requires min_exp >= 0."""
        if not self.is_zero() and self.min_exp < 0:
            raise ValueError("cannot evaluate negative powers at an integer")
        return _horner(self.coeffs, q) * q ** self.min_exp

    # -- predicates ----------------------------------------------------------

    def is_palindromic(self) -> bool:
        """True iff the coefficient sequence reads the same reversed."""
        return self.coeffs == self.coeffs[::-1]

    def is_centered(self) -> bool:
        """True iff the support is symmetric about q^0 (min_exp = -max_exp)."""
        return self.is_zero() or self.min_exp == -self.max_exp

    # -- rendering ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({format_laurent(self)!r})"

    def __str__(self) -> str:
        return format_laurent(self)


LAURENT_ZERO = LaurentPoly(0, ())


def add_product(acc: list[int], a: Sequence[int],
                b: Sequence[int]) -> list[int]:
    """Add the product of the coefficient lists ``a`` and ``b`` into ``acc``,
    growing it as needed, and return it.

    The one multiply-accumulate loop of the library, behind both ``__mul__``
    methods and the series arithmetic.  Schoolbook; fine at desk scale.
    Swap in a subquadratic kernel here if degrees ever grow past a few
    thousand.

    >>> add_product([1, 1], [1, 1], [1, -1])
    [2, 1, -1]
    """
    if not a or not b:
        return acc
    need = len(a) + len(b) - 1
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                acc[i + j] += c * d
    return acc


def _add_at(out: list[int], at: int, cs: Sequence[int]) -> list[int]:
    """Add ``cs`` into ``out`` from index ``at`` on, and return ``out``: the
    one coefficient-add loop, behind both ``__add__`` methods."""
    for i, c in enumerate(cs, at):
        out[i] += c
    return out


def _horner(cs: Sequence[int], x: int) -> int:
    """sum c_i x^i by Horner's scheme."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def monomial(e: int, c: int = 1) -> LaurentPoly:
    """The Laurent monomial c * q^e."""
    return LaurentPoly(e, (c,))


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact Laurent division: the Q with Q * den == num.

    Raises ``NonDivisibleError`` when no such Q exists over the integers and
    ``ZeroDivisionError`` on a zero divisor (a malformed input, not a failed
    division).
    """
    if den.is_zero():
        raise ZeroDivisionError("Laurent division by zero")
    if num.is_zero():
        return LAURENT_ZERO
    q = IntPoly(num.coeffs) // IntPoly(den.coeffs)
    return LaurentPoly(num.min_exp - den.min_exp, q.coeffs)


def laurent_to_x_basis(lp: LaurentPoly) -> IntPoly:
    """Rewrite a centered palindromic Laurent polynomial as a polynomial in
    X = q + q^{-1}.

    With b_i the coefficient of q^i (equal to that of q^{-i} by symmetry),
    the result is b_0 + sum_{i>=1} b_i * V_i(X) where V_i is the monic
    degree-i polynomial with V_i(q + q^{-1}) = q^i + q^{-i} (see
    ``chebyshev_sum``).  Substituting X := q + q^{-1} back reproduces the
    input exactly.
    """
    if not lp.is_palindromic():
        raise ValueError("not palindromic: cannot change basis to X = q + 1/q")
    if not lp.is_centered():
        raise ValueError(
            f"support not centered about q^0 (min_exp={lp.min_exp}, "
            f"max_exp={lp.max_exp}); divide out the middle power of q first")
    return chebyshev_sum(lp.coeffs[len(lp.coeffs) // 2:])


def chebyshev_sum(b: Sequence[int]) -> IntPoly:
    """b[0] + sum_{i>=1} b[i] * V_i(X), V_i the monic degree-i polynomial
    with V_i(q + q^{-1}) = q^i + q^{-i}.

    The one kernel for this sum: V_i is rolled by V_{i+1} = X V_i - V_{i-1}
    on coefficient lists, up to the last nonzero b[i].  V_i has only powers
    X^j with j = i mod 2, so V_i and each parity half of the result are kept
    as the lists of those coefficients alone.

    >>> print(chebyshev_sum([1, 0, 1]))
    X^2 - 1
    """
    m = max((i for i, c in enumerate(b) if c), default=-1)
    if m < 0:
        return ZERO
    halves = [[b[0]] + [0] * (m // 2), [0] * ((m + 1) // 2)]
    prev, cur = [2], [1]  # V_0, V_1: the coefficients of X^0 and X^1
    for i in range(1, m + 1):
        bi = b[i]
        if bi:
            acc = halves[i & 1]
            acc[:len(cur)] = [a + bi * c for a, c in zip(acc, cur)]
        if i < m:
            # X * V_i on the powers of parity i + 1; for odd i these start
            # at X^0, where X * V_i has no term
            shifted = [0] + cur if i & 1 else cur
            nxt = [s - p for s, p in zip(shifted, prev)] + shifted[len(prev):]
            prev, cur = cur, nxt
    out = [0] * (m + 1)
    out[0::2], out[1::2] = halves
    return IntPoly(tuple(out))


# -- JSON encoding ------------------------------------------------------------
# Shared by every module: coefficients as decimal strings so that arbitrary
# precision survives any JSON implementation.

def intpoly_to_json(p: IntPoly) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs]}


def intpoly_from_json(obj: dict) -> IntPoly:
    return IntPoly(tuple(int(c) for c in obj["coeffs"]))


def laurent_to_json(lp: LaurentPoly) -> dict:
    return {"min_exp": lp.min_exp, "coeffs": [str(c) for c in lp.coeffs]}


def laurent_from_json(obj: dict) -> LaurentPoly:
    return LaurentPoly(int(obj["min_exp"]), tuple(int(c) for c in obj["coeffs"]))


# -- rendering ------------------------------------------------------------------

def _term_str(c: int, e: int, var: str, first: bool) -> str:
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    if e == 0:
        body = str(mag)
    else:
        head = "" if mag == 1 else f"{mag}*"
        body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
    if first:
        return body if c > 0 else f"-{body}"
    return f" {sign} {body}"


def _format_terms(min_exp: int, cs: Sequence[int], var: str) -> str:
    """The nonzero terms c * var^e, e = min_exp + i, highest first; the one
    rendering loop, behind both carriers."""
    parts = []
    for e, c in zip(range(min_exp + len(cs) - 1, min_exp - 1, -1), reversed(cs)):
        if c:
            parts.append(_term_str(c, e, var, not parts))
    return "".join(parts) or "0"


def format_poly(p: IntPoly) -> str:
    """Human-readable form, highest degree first: 'X^3 + X^2 - 2*X - 1'."""
    return _format_terms(0, p.coeffs, "X")


def format_laurent(lp: LaurentPoly) -> str:
    """Human-readable form, highest exponent first; negative powers as q^-k."""
    return _format_terms(lp.min_exp, lp.coeffs, "q")
