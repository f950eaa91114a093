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

Both directions, and the product expansion in ``series``, are shift-and-add
recurrences, and they run on *packed* integers: a polynomial c_0 + c_1 X +
... is held as its value at X = 2^w, one w-bit slot per coefficient, so a
whole step of the recurrence is one C-level bigint shift and add instead of
a Python loop over the coefficients.  Evaluation at 2^w is a ring
homomorphism, so every intermediate value is exact whatever its
coefficients; only the final value is read back, by ``unpack_balanced``.
That is exact as long as each final coefficient c satisfies
|c| < 2^(w-1), so the width comes from a proven bound on the coefficients
(``slot_width``), never from a guess, and the read-back raises rather than
wraps when a value does not fit its slots.  The bounds, each a sum of
|coefficients| of the basis it expands in:

* basis change, b_0 + sum b_i V_i: |b_0| + sum |b_i| L_i, L_i the Lucas
  numbers;
* substitution, sum g_j X^j at X = q + 1/q: sum |g_j| 2^j;
* product expansion: [t^m] prod (1 + t^i)^2 / (1 - t^i - t^{2i}), a
  majorant built from the Fibonacci numbers (see
  ``series.expand_pg_product``).

Division (``divmod``, ``//``, ``exact_div``) is by a monic linear X - a
only, the shape of every exact division the library makes: C_n by q - 1
(twice) and each product-expansion coefficient by X - 2.  The quotient and
the remainder N(a) are the running values of N's Horner scheme at a
(synthetic division), one C-level ``accumulate`` with no division and a
one-term remainder.  Any other divisor raises ``ValueError``.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from decimal import Decimal
from itertools import accumulate, count


class NonDivisibleError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _strip(cs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(cs)
    while end and cs[end - 1] == 0:
        end -= 1
    return cs[:end]


def _immutable(self: object, name: str, *value: object) -> None:
    """``__setattr__`` and ``__delattr__`` of the polynomial classes."""
    raise AttributeError(
        f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class IntPoly:
    """Dense polynomial in X; ``coeffs[i]`` is the coefficient of X^i.

    Canonical form: no trailing zeros, the zero polynomial is the empty
    tuple.  The constructor normalizes, so equality is structural.

    >>> IntPoly((1, 0, 1))
    IntPoly('X^2 + 1')
    >>> IntPoly((0, 0)) == IntPoly(())
    True
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        object.__setattr__(self, "coeffs", _strip(tuple(coeffs)))

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __reduce__(self) -> tuple:
        return self.__class__, (self.coeffs,)

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
        """Quotient and remainder on division by a monic linear X - a;
        any other divisor raises ``ValueError``.

        Synthetic division (Ruffini-Horner): with c_m..c_0 the coefficients
        of self, the running values of s := s * a + c are the quotient
        coefficients q_{m-1}..q_0 and last self(a), the remainder, so no
        coefficient is ever divided.  ``accumulate`` drives the scheme from
        C; at a = 1 the step is its own plain addition, with no Python call
        per coefficient.

        >>> divmod(IntPoly((1, 0, 1)), X - ONE)
        (IntPoly('X + 1'), IntPoly('2'))
        """
        dcs = other.coeffs
        if len(dcs) != 2 or dcs[1] != 1:
            raise ValueError("divisor is not a monic linear X - a")
        cs = self.coeffs
        if len(cs) < 2:
            return ZERO, self
        a = -dcs[0]
        run = list(accumulate(reversed(cs),
                              None if a == 1 else lambda s, c: s * a + c))
        rem = run.pop()
        return IntPoly(tuple(reversed(run))), IntPoly((rem,))

    def __floordiv__(self, other: IntPoly) -> IntPoly:
        """Exact quotient; raises ``NonDivisibleError`` on nonzero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():  # no operand in the message: it may be huge
            raise NonDivisibleError("nonzero remainder in exact division")
        return q

    # -- evaluation and substitution -----------------------------------------

    def eval_int(self, x: int) -> int:
        """Exact value at an integer, by ``_horner``."""
        return _horner(self.coeffs, x)

    def eval_q_plus_qinv(self) -> LaurentPoly:
        """Substitute X := q + q^{-1}, landing in the Laurent ring.

        With d the degree and g_j the coefficients, q^d times the result is
        sum g_j (q^2 + 1)^j q^{d-j}, a polynomial of degree 2d in q.  It is
        computed packed at q = 2^w by Horner's scheme, acc := acc (q^2 + 1)
        + g_j q^{d-j} for j = d..0: one shift and two adds per coefficient.
        (q^2 + 1)^j has coefficient sum 2^j, so no coefficient of the result
        exceeds sum |g_j| 2^j in size: the bound behind w.

        >>> IntPoly((0, 0, 1)).eval_q_plus_qinv()
        LaurentPoly('q^2 + 2 + q^-2')
        """
        cs = self.coeffs
        if not cs:
            return LAURENT_ZERO
        d = len(cs) - 1
        w = slot_width(sum(abs(g) << j for j, g in enumerate(cs)))
        acc = 0
        for j in range(d, -1, -1):
            acc = (acc << 2 * w) + acc + (cs[j] << (d - j) * w)
        return LaurentPoly(-d, tuple(unpack_balanced(acc, w, 2 * d + 1)))

    # -- rendering ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntPoly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


ZERO = IntPoly(())
ONE = IntPoly((1,))
TWO = IntPoly((2,))
X = IntPoly((0, 1))


class LaurentPoly:
    """Laurent polynomial in q; ``coeffs[i]`` is the coefficient of q^{min_exp+i}.

    Canonical form: first and last stored coefficients are nonzero; the zero
    polynomial is ``LaurentPoly(0, ())``.
    """

    __slots__ = ("min_exp", "coeffs")
    min_exp: int
    coeffs: tuple[int, ...]

    def __init__(self, min_exp: int = 0, coeffs: Iterable[int] = ()) -> None:
        cs = tuple(coeffs)
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        cs = _strip(cs[lead:])
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "min_exp", min_exp + lead if cs else 0)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.min_exp, self.coeffs) == (other.min_exp, other.coeffs)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.min_exp, self.coeffs))

    def __reduce__(self) -> tuple:
        return self.__class__, (self.min_exp, self.coeffs)

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
    """Exact Laurent division by den = q^e (q - a), a != 0: the Q with
    Q * den == num.

    The coefficients divide as polynomials by ``IntPoly.__floordiv__``, so
    any other den raises ``ValueError`` (a monomial, q - 0 included, is a
    constant to that division), and a nonzero remainder
    ``NonDivisibleError``.
    """
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

    The one kernel for this sum: Clenshaw's recurrence packed at X = 2^w,
    y_k = b_k + X y_{k+1} - y_{k+2} for k = m..1 (m the last nonzero
    index), then the sum is b_0 + X y_1 - 2 y_2; one shift and two adds per
    term.  The |coefficients| of V_i sum to the Lucas number L_i, so no
    coefficient of the result exceeds |b_0| + sum |b_i| L_i in size: the
    bound behind w.

    >>> print(chebyshev_sum([1, 0, 1]))
    X^2 - 1
    """
    m = max((i for i, c in enumerate(b) if c), default=-1)
    if m < 0:
        return ZERO
    terms = b[1:m + 1]
    bound, lucas, prev = abs(b[0]), 1, 2  # L_1, L_0
    for c in terms:
        bound += abs(c) * lucas
        lucas, prev = lucas + prev, lucas
    w = slot_width(bound)
    y1 = y2 = 0  # y_{k+1}, y_{k+2}
    for c in reversed(terms):
        y1, y2 = c + (y1 << w) - y2, y1
    return IntPoly(tuple(unpack_balanced(b[0] + (y1 << w) - 2 * y2, w, m + 1)))


# -- packed integers ----------------------------------------------------------
# A polynomial with |coefficients| <= bound travels as its value at 2^w,
# w = slot_width(bound), and comes back through unpack_balanced.

def slot_width(bound: int) -> int:
    """The least multiple of 8, w, with bound < 2^(w-1): the slot width in
    which ``unpack_balanced`` reads back every coefficient of size at most
    ``bound``.

    >>> slot_width(127), slot_width(128)
    (8, 16)
    """
    return (bound.bit_length() + 8) // 8 * 8


def unpack_balanced(v: int, w: int, count: int) -> list[int]:
    """The digits c_0..c_{count-1} with v = sum c_i 2^(w i) and
    -2^(w-1) <= c_i < 2^(w-1): v read in balanced base 2^w, w a multiple
    of 8.

    Adding 2^(w-1) to every slot makes each digit non-negative, so v has
    such digits exactly when the biased value fits in count * w bits.
    Flipping the top bit of each slot back turns its byte groups into the
    digits in two's complement, read with one ``to_bytes``.  Raises
    ``OverflowError`` when v does not fit in ``count`` slots; it never
    wraps.

    >>> unpack_balanced(3 - (2 << 8) + (1 << 16), 8, 3)
    [3, -2, 1]
    >>> unpack_balanced(1 << 16, 8, 2)
    Traceback (most recent call last):
    ...
    OverflowError: value does not fit in 2 slots of 8 bits
    """
    if w <= 0 or w % 8:
        raise ValueError(f"slot width {w} is not a positive multiple of 8")
    size = w // 8
    bias = int.from_bytes((1 << (w - 1)).to_bytes(size, "little") * count,
                          "little")
    try:
        raw = ((v + bias) ^ bias).to_bytes(size * count, "little")
    except OverflowError:
        raise OverflowError(
            f"value does not fit in {count} slots of {w} bits") from None
    return [int.from_bytes(raw[i:i + size], "little", signed=True)
            for i in range(0, len(raw), size)]


# -- decimal strings ------------------------------------------------------------
# Coefficients as decimal strings, so that arbitrary precision survives any
# JSON implementation: the CLI's coefficient slices (``cli._coeff_pieces``)
# and a ``term_str`` coefficient past the int-to-str digit limit.

def decimal_strs(cs: Sequence[int]) -> list[str]:
    """The decimal strings of the ints cs, at any size.  ``str()`` of an int
    refuses past ``sys.get_int_max_str_digits()`` digits (4300 by default);
    a ``Decimal`` holds an int exactly and prints it without that limit.

    >>> decimal_strs([-12, 0])
    ['-12', '0']
    >>> [len(s) for s in decimal_strs([10 ** 5000, -7])]
    [5001, 2]
    """
    try:
        return [str(c) for c in cs]
    except ValueError:
        return [str(Decimal(c)) for c in cs]


# -- rendering ------------------------------------------------------------------

def term_str(c: int, e: int, var: str, first: bool) -> str:
    """The term c * var^e as the formatters write it: ' + 3*q^5', or
    '-q^5' when it comes first; the one place the term syntax is spelled.

    >>> term_str(3, 5, "q", False), term_str(-1, 5, "q", True)
    (' + 3*q^5', '-q^5')
    """
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    power = "" if e == 0 else var if e == 1 else f"{var}^{e}"
    if mag == 1 and e:
        body = power
    else:
        try:
            digits = str(mag)
        except ValueError:  # past the int-to-str digit limit
            digits, = decimal_strs((mag,))
        body = f"{digits}*{power}" if e else digits
    if first:
        return body if c > 0 else f"-{body}"
    return f" {sign} {body}"


def format_terms(top: int, cs: Iterable[int], var: str) -> Iterator[str]:
    """The strings of the nonzero terms c * var^e of the coefficients
    ``cs``, which run from e = ``top`` down, one at a time, or '0'; the one
    rendering loop, behind both carriers and the CLI's streams."""
    first = True
    for e, c in zip(count(top, -1), cs):
        if c:
            yield term_str(c, e, var, first)
            first = False
    if first:
        yield "0"


def format_poly(p: IntPoly) -> str:
    """Human-readable form, highest degree first: 'X^3 + X^2 - 2*X - 1'."""
    return "".join(format_terms(len(p.coeffs) - 1, reversed(p.coeffs), "X"))


def format_laurent(lp: LaurentPoly) -> str:
    """Human-readable form, highest exponent first; negative powers as q^-k."""
    return "".join(format_terms(lp.min_exp + len(lp.coeffs) - 1,
                                reversed(lp.coeffs), "q"))
