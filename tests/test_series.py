"""Truncated series arithmetic and the generating-function expansions."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from torusideals import series
from torusideals.intpoly import IntPoly, NonDivisibleError, ONE, TWO, X, ZERO
from torusideals.series import (
    TruncatedSeries,
    expand_f_gf,
    expand_pg_product,
    expand_tcheb_gf,
    pg_from_series,
    series_div,
    series_from_terms,
    series_inverse,
    series_mul,
)
from torusideals.verify import verify_series


def poly(*cs: int) -> IntPoly:
    return IntPoly(tuple(cs))


class TestSeriesArithmetic:
    def test_mul_examples(self):
        one_plus_t = series_from_terms(2, {0: ONE, 1: ONE})
        one_minus_t = series_from_terms(2, {0: ONE, 1: -ONE})
        assert series_mul(one_plus_t, one_minus_t) == \
            series_from_terms(2, {0: ONE, 2: -ONE})
        a = series_from_terms(3, {0: poly(5), 2: X, 3: poly(-1, 2)})
        assert series_mul(a, series_from_terms(3, {0: ONE})) == a
        b = series_from_terms(3, {0: ONE, 1: -X})
        c = series_from_terms(3, {0: ONE, 1: X})
        assert series_mul(b, c) == series_from_terms(3, {0: ONE, 2: -(X * X)})

    def test_mul_truncates(self):
        t = series_from_terms(2, {1: ONE})
        sq = series_mul(t, t)
        assert sq.coeffs == (ZERO, ZERO, ONE)
        assert series_mul(sq, t).coeffs == (ZERO, ZERO, ZERO)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            series_mul(series_from_terms(3, {0: ONE}),
                       series_from_terms(4, {0: ONE}))

    def test_inverse_geometric(self):
        inv = series_inverse(series_from_terms(3, {0: ONE, 1: -ONE}))
        assert inv == series_from_terms(3, {0: ONE, 1: ONE, 2: ONE, 3: ONE})

    def test_inverse_quadratic_denominator(self):
        inv = series_inverse(series_from_terms(2, {0: ONE, 1: -X, 2: ONE}))
        assert inv.coeffs == (ONE, X, X * X - ONE)

    def test_inverse_requires_unit_constant(self):
        # the refusal is series_div's, which series_inverse calls
        for a in (series_from_terms(2, {0: TWO}),
                  series_from_terms(2, {1: ONE})):
            with pytest.raises(ValueError,
                               match="^denominator constant term must be 1$"):
                series_inverse(a)

    @given(st.lists(st.lists(st.integers(-9, 9), max_size=3),
                    min_size=1, max_size=5))
    @settings(max_examples=80)
    def test_inverse_property(self, tail):
        coeffs = (ONE,) + tuple(IntPoly(tuple(c)) for c in tail)
        a = TruncatedSeries(len(coeffs) - 1, coeffs)
        assert series_mul(a, series_inverse(a)) == \
            series_from_terms(a.order, {0: ONE})

    def test_truncate(self):
        s = series_from_terms(5, {0: ONE, 4: X})
        assert s.truncate(3) == series_from_terms(3, {0: ONE})
        with pytest.raises(ValueError):
            s.truncate(6)


class TestProductExpansion:
    def test_low_order_coefficients(self):
        s = expand_pg_product(6)
        assert s.coeffs[0] == ONE
        assert s.coeffs[1] == X - TWO
        assert s.coeffs[2] == (X - TWO) * (X + ONE)

    def test_pg_extraction(self):
        pgs = pg_from_series(12)
        assert pgs[0] == ONE
        assert pgs[6] == poly(0, 2, 5, -4, -5, 1, 1)

    def test_matches_dense_division(self):
        # reference: numerator and denominator multiplied out, then one
        # dense series division; the factors with i > N are 1 + O(t^{N+1}),
        # so truncating the order-60 reference gives the order-N one
        top = 60
        num = den = series_from_terms(top, {0: ONE})
        for i in range(1, top + 1):
            factor = series_from_terms(top, {0: ONE, i: -ONE})
            num = series_mul(series_mul(num, factor), factor)
            den = series_mul(den, series_from_terms(
                top, {0: ONE, i: -X, 2 * i: ONE}))
        reference = series_div(num, den)
        for order in range(1, top + 1):
            assert expand_pg_product(order) == reference.truncate(order)

    def test_extraction_refuses_a_corrupted_expansion(self):
        good = expand_pg_product(10)
        for n in range(1, 11):
            for j in range(n + 1):  # +X^j in the t^n coefficient
                cs = list(good.coeffs)
                cs[n] += IntPoly((0,) * j + (1,))
                with pytest.raises(NonDivisibleError):
                    pg_from_series(10, TruncatedSeries(10, tuple(cs)))

    def test_extraction_from_a_deeper_expansion(self):
        assert pg_from_series(20, expand_pg_product(30)) == pg_from_series(20)

    def test_verify_expands_each_order_once(self, monkeypatch):
        orders = []

        def counted(order):
            orders.append(order)
            return expand_pg_product(order)

        monkeypatch.setattr(series, "expand_pg_product", counted)
        report = verify_series(64)
        assert (report.passed, report.failed) == (196, 0)
        assert sorted(orders) == [32, 64]


class TestFamilyGeneratingFunctions:
    def test_f_rows(self):
        s = expand_f_gf(8)
        assert s.coeffs[0] == ONE
        assert s.coeffs[3] == poly(-1, -2, 1, 1)

    def test_tcheb_rows(self):
        s = expand_tcheb_gf(8)
        assert s.coeffs[0] == TWO
        assert s.coeffs[5] == poly(0, 5, 0, -5, 0, 1)

    def test_order_zero_refused(self):
        for expand in (expand_f_gf, expand_tcheb_gf):
            with pytest.raises(ValueError, match="^order must be positive$"):
                expand(0)
