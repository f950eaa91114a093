"""Exact polynomial and Laurent arithmetic."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from torusideals.intpoly import (
    IntPoly,
    LaurentPoly,
    NonDivisibleError,
    ONE,
    TWO,
    X,
    ZERO,
    add_product,
    chebyshev_sum,
    exact_div,
    format_laurent,
    format_poly,
    laurent_to_x_basis,
    monomial,
    slot_width,
    unpack_balanced,
)
from torusideals.chebfam import tcheb, tcheb_value

coeff_lists = st.lists(st.integers(-99, 99), max_size=8)


def poly(*cs: int) -> IntPoly:
    return IntPoly(tuple(cs))


class TestIntPoly:
    def test_canonical_form(self):
        assert poly(1, 0, 0).coeffs == (1,)
        assert poly(0, 0).coeffs == ()
        assert poly() == ZERO
        assert poly(0, 0, 3).degree == 2

    def test_zero_degree_is_none(self):
        assert ZERO.degree is None
        assert poly(7).degree == 0

    def test_arithmetic(self):
        assert (X + ONE) * (X - ONE) == poly(-1, 0, 1)
        p = poly(-1, 1, 1)
        assert p + ZERO == p
        assert p - p == ZERO
        assert -p == poly(1, -1, -1)
        assert p * 3 == poly(-3, 3, 3)
        assert 2 * p == poly(-2, 2, 2)

    def test_eval(self):
        assert poly(1, 1).eval_int(3) == 4
        assert ZERO.eval_int(123456789) == 0
        assert poly(1, -2, -3, 1, 1).eval_int(5) == 666

    def test_divmod_exact(self):
        q, r = divmod(poly(-1, 0, 1), X + ONE)
        assert q == X - ONE and r == ZERO
        assert poly(-1, 0, 0, 1) // poly(-1, 1) == poly(1, 1, 1)

    def test_divmod_remainder(self):
        q, r = divmod(poly(1, 0, 1), X - ONE)
        assert (X - ONE) * q + r == poly(1, 0, 1)
        with pytest.raises(NonDivisibleError):
            poly(1, 0, 1) // (X - ONE)

    def test_format(self):
        assert format_poly(poly(-1, -2, 1, 1)) == "X^3 + X^2 - 2*X - 1"
        assert format_poly(ZERO) == "0"
        assert format_poly(poly(2)) == "2"
        assert format_poly(-X) == "-X"

    @given(coeff_lists, coeff_lists, st.integers(-20, 20))
    def test_eval_is_ring_homomorphism(self, a, b, x):
        p, q = IntPoly(tuple(a)), IntPoly(tuple(b))
        assert (p * q).eval_int(x) == p.eval_int(x) * q.eval_int(x)
        assert (p + q).eval_int(x) == p.eval_int(x) + q.eval_int(x)
        assert (p - q).eval_int(x) == p.eval_int(x) - q.eval_int(x)
        # the kernel behind every product adds p*q to a non-empty list
        acc = IntPoly(tuple(add_product([7, -1], a, b)))
        assert acc.eval_int(x) == 7 - x + p.eval_int(x) * q.eval_int(x)

    @given(st.lists(st.integers(-9, 9), max_size=80), st.integers(-20, 20))
    def test_eval_matches_plain_horner(self, a, x):
        acc = 0
        for c in reversed(a):
            acc = acc * x + c
        assert IntPoly(tuple(a)).eval_int(x) == acc
        assert LaurentPoly(3, tuple(a)).eval_int(x) == acc * x ** 3

    @given(coeff_lists, coeff_lists)
    def test_operations_stay_canonical(self, a, b):
        p, q = IntPoly(tuple(a)), IntPoly(tuple(b))
        for r in (p + q, p - q, p * q):
            assert not r.coeffs or r.coeffs[-1] != 0


class TestLaurentPoly:
    def test_canonical_form(self):
        lp = LaurentPoly(-2, (0, 1, 2, 0))
        assert lp.min_exp == -1 and lp.coeffs == (1, 2)
        assert LaurentPoly(5, (0, 0)) == LaurentPoly(0, ())

    def test_arithmetic(self):
        a = monomial(2) + monomial(-2)
        assert a.coeff(2) == a.coeff(-2) == 1 and a.coeff(0) == 0
        assert (a - a).is_zero()
        prod = LaurentPoly(-1, (1, 0, 1)) * LaurentPoly(-1, (1, 0, 1))
        assert prod == LaurentPoly(-2, (1, 0, 2, 0, 1))

    def test_eval(self):
        assert LaurentPoly(0, (1, 1, 1)).eval_int(2) == 7
        assert LaurentPoly(1, (3,)).eval_int(5) == 15
        assert monomial(10 ** 6).eval_int(2) == 2 ** 10 ** 6  # one power
        with pytest.raises(ValueError):
            LaurentPoly(-1, (1,)).eval_int(2)

    def test_palindromic(self):
        assert LaurentPoly(0, (1, 1, 1)).is_palindromic()
        assert not LaurentPoly(0, (0, 2, 1)).is_palindromic()
        assert LaurentPoly(0, ()).is_palindromic()

    def test_format(self):
        assert format_laurent(LaurentPoly(-1, (1, -2, 1))) == "q - 2 + q^-1"

    def test_exact_div(self):
        q_minus_1 = LaurentPoly(0, (-1, 1))
        sq = q_minus_1 * q_minus_1
        cubic = LaurentPoly(0, (1, 1, 1))
        # (q - 1)^2 as two divisions, and q - 1 times q^-2
        assert exact_div(exact_div(sq * cubic, q_minus_1), q_minus_1) == cubic
        assert exact_div(sq, q_minus_1.shift(-2)) == q_minus_1.shift(2)
        with pytest.raises(NonDivisibleError):
            exact_div(LaurentPoly(0, (1, 0, 1)), q_minus_1)
        # q - 0 is the monomial q: a constant to the coefficient division
        for den in (sq, LaurentPoly(0, ()), LaurentPoly(0, (0, 1))):
            with pytest.raises(ValueError):
                exact_div(sq, den)

    @given(coeff_lists, st.integers(-6, 6).filter(bool), st.integers(-3, 3),
           st.integers(-3, 3))
    def test_exact_div_inverts_multiplication(self, a, root, ea, eb):
        lp = LaurentPoly(ea, tuple(a))
        d = LaurentPoly(eb, (-root, 1))  # q^eb (q - root)
        assert exact_div(lp * d, d) == lp

    @given(coeff_lists)
    def test_one_formatter_renders_both_carriers(self, a):
        assert format_laurent(LaurentPoly(0, tuple(a))) == \
            format_poly(IntPoly(tuple(a))).replace("X", "q")


class TestBasisChange:
    def test_basic_examples(self):
        lp = LaurentPoly(-1, (1, 1, 1))  # q + 1 + q^-1
        assert laurent_to_x_basis(lp) == X + ONE
        lp = monomial(2) + monomial(-2)
        assert laurent_to_x_basis(lp) == X * X - TWO
        assert laurent_to_x_basis(LaurentPoly(0, ())) == ZERO
        assert laurent_to_x_basis(LaurentPoly(0, (5,))) == IntPoly((5,))

    def test_rejects_non_palindromic(self):
        with pytest.raises(ValueError, match="palindromic"):
            laurent_to_x_basis(LaurentPoly(-1, (1, 2, 3)))

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError, match="centered"):
            laurent_to_x_basis(LaurentPoly(0, (1, 0, 1)))

    @given(st.lists(st.integers(-30, 30), max_size=6), st.integers(-30, 30))
    def test_round_trip(self, half, middle):
        # build a centered palindromic Laurent polynomial from one half
        full = tuple(half) + (middle,) + tuple(reversed(half))
        lp = LaurentPoly(-len(half), full)
        g = laurent_to_x_basis(lp)
        assert g.eval_q_plus_qinv() == lp

    def test_substitution_inverse(self):
        p = IntPoly((3, -1, 2, 7))
        assert laurent_to_x_basis(p.eval_q_plus_qinv()) == p


class TestPackedKernels:
    """The kernels that run on integers packed at 2^w, each against an
    oracle that shares no code with it."""

    huge = st.integers(-10 ** 40, 10 ** 40)

    @staticmethod
    def v_basis_value(b, x):
        # Lucas doubling in chebfam, one index at a time
        return b[0] + sum(c * tcheb_value(i, x) for i, c in enumerate(b)
                          if i) if b else 0

    @given(st.lists(huge, max_size=150), st.integers(0, 20),
           st.integers(-5, 5))
    def test_chebyshev_sum_values(self, b, zeros, x):
        b = b + [0] * zeros  # trailing zeros change nothing
        assert chebyshev_sum(b).eval_int(x) == self.v_basis_value(b, x)

    @given(st.integers(0, 150), st.integers(-5, 5))
    def test_chebyshev_sum_of_zeros(self, length, x):
        assert chebyshev_sum([0] * length) == ZERO
        b = [0] * length + [1]  # V_length itself, or 1
        assert chebyshev_sum(b).eval_int(x) == self.v_basis_value(b, x)

    @given(st.lists(st.integers(-9, 9), max_size=149), huge.filter(bool),
           st.integers(-5, 5))
    def test_chebyshev_sum_huge_top_entry(self, b, top, x):
        b = b + [top * 10 ** 60]
        got = chebyshev_sum(b)
        assert got.degree == len(b) - 1
        assert got.eval_int(x) == self.v_basis_value(b, x)

    @given(st.integers(1, 150), st.data(), st.integers(-5, 5))
    def test_chebyshev_sum_at_the_lucas_bound(self, length, data, x):
        # every V_i with a power X^j has its coefficient there of sign
        # (-1)^((i - j)/2); b_i of that sign times M, all of one size,
        # adds them all up in the coefficient of X^j
        j = data.draw(st.integers(0, length - 1))
        big = data.draw(st.integers(1, 10 ** 40)) * data.draw(
            st.sampled_from((1, -1)))
        b = [big * (-1) ** ((i - j) // 2) if i >= j and (i - j) % 2 == 0
             else data.draw(st.sampled_from((0, big, -big)))
             for i in range(length)]
        got = chebyshev_sum(b)
        assert got.eval_int(x) == self.v_basis_value(b, x)
        top = sum(abs(tcheb(i).coeff(j)) for i in range(j, length, 2) if i)
        assert got.coeff(j) == big * (top + (j == 0))  # b_0 adds b_0 itself

    @given(st.lists(huge, min_size=1, max_size=60))
    def test_eval_q_plus_qinv_values(self, g):
        p = IntPoly(tuple(g))
        if p.is_zero():
            assert p.eval_q_plus_qinv().is_zero()
            return
        d = p.degree
        lp = p.eval_q_plus_qinv()
        assert lp.is_centered() and lp.is_palindromic()
        for q in range(2, 6):
            want = sum(c * (q * q + 1) ** j * q ** (d - j)
                       for j, c in enumerate(p.coeffs))
            assert lp.shift(d).eval_int(q) == want

    @given(st.integers(0, 60), huge.filter(bool))
    def test_eval_q_plus_qinv_at_the_bound(self, d, big):
        # equal coefficients add up every binomial: the middle coefficient
        # of q^d P(q + 1/q) is big * sum_j C(j, j/2) over even j
        p = IntPoly((big,) * (d + 1))
        lp = p.eval_q_plus_qinv()
        assert lp.coeff(0) == big * sum(math.comb(j, j // 2)
                                        for j in range(0, d + 1, 2))
        assert lp.shift(d).eval_int(2) == sum(
            big * 5 ** j * 2 ** (d - j) for j in range(d + 1))

    def test_unpack_one_slot_too_few_raises(self):
        ones = 1 + (1 << 8) + (1 << 16)
        top, bottom = 127 * ones, -128 * ones  # every 8-bit slot at an end
        assert unpack_balanced(top, 8, 3) == [127, 127, 127]
        assert unpack_balanced(bottom, 8, 3) == [-128, -128, -128]
        with pytest.raises(OverflowError, match="3 slots of 8 bits"):
            unpack_balanced(top + 1, 8, 3)
        with pytest.raises(OverflowError):
            unpack_balanced(bottom - 1, 8, 3)
        assert unpack_balanced(top + 1, 8, 4) == [-128, -128, -128, 1]
        assert unpack_balanced(0, 16, 0) == []
        with pytest.raises(OverflowError):
            unpack_balanced(1, 16, 0)
        with pytest.raises(ValueError):
            unpack_balanced(0, 12, 1)

    @given(st.integers(1, 6), st.data())
    def test_unpack_inverts_packing(self, size, data):
        w = 8 * size
        half = 1 << (w - 1)
        digits = data.draw(st.lists(st.integers(-half, half - 1),
                                    max_size=40))
        v = sum(c << (w * i) for i, c in enumerate(digits))
        assert unpack_balanced(v, w, len(digits)) == digits
        assert slot_width(half - 1) == w and slot_width(half) == w + 8


class TestSyntheticDivision:
    """divmod by a monic linear X - a, the synthetic-division path, against
    the multiplication kernel as its oracle."""

    huge = st.integers(-10 ** 40, 10 ** 40)

    @given(st.lists(huge, max_size=200), st.integers(-6, 6),
           st.one_of(st.just(0), huge))
    def test_inverts_multiplication(self, q, a, r):
        quo, divisor, rem = IntPoly(tuple(q)), X - poly(a), poly(r)
        num = quo * divisor + rem
        assert divmod(num, divisor) == (quo, rem)
        if r:
            with pytest.raises(NonDivisibleError):
                num // divisor
        else:
            assert num // divisor == quo

    @pytest.mark.parametrize("a", [-6, -1, 0, 1, 2])
    def test_constant_dividend(self, a):
        for num in (ZERO, poly(7), poly(-10 ** 40)):
            assert divmod(num, X - poly(a)) == (ZERO, num)

    def test_other_divisors_refused(self):
        # zero, a constant, a non-monic linear and two of degree >= 2
        num = poly(-4, 0, 1) * poly(1, 1) * 2  # 2 (X - 2)(X + 2)(X + 1)
        for divisor in (ZERO, poly(7), poly(-4, 2), poly(-4, 0, 1),
                        X * (X + ONE) * (X - TWO) * (X + TWO)):
            with pytest.raises(ValueError):
                divmod(num, divisor)
