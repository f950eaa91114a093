"""Divisor arithmetic, interval counts, and consecutive-run combinatorics."""
from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from oracles import square_plus_twice_square_count, two_squares_count
from torusideals import divisors as divisors_module
from torusideals.divisors import (
    BLOCK,
    TRIAL_LIMIT,
    IncreasingSequence,
    a_coeff,
    a_coeffs,
    divisors,
    involute,
    is_prime,
    odd_divisor_counts,
    odd_divisor_runs,
    odd_divisor_terms,
    odd_divisors,
    sequence_for_divisor,
    triangular_index,
)


class TestDivisorBasics:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(97) == [1, 97]
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        with pytest.raises(ValueError):
            divisors(0)

    def test_odd_divisors(self):
        assert odd_divisors(18) == [1, 3, 9]
        assert odd_divisors(16) == [1]
        assert odd_divisors(15) == [1, 3, 5, 15]

    def test_odd_divisor_count_formula(self):
        # count equals the product of (exponent + 1) over odd primes
        for n in range(1, 300):
            m, count = n, 1
            while m % 2 == 0:
                m //= 2
            p = 3
            while p * p <= m:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                count *= e + 1
                p += 2
            if m > 1:
                count *= 2
            assert len(odd_divisors(n)) == count, n

    @pytest.mark.parametrize("block", [1, 2, 3, 7, BLOCK])
    def test_odd_divisor_counts_walk_the_blocks(self, block):
        # the walk with every term 1, against the per-n divisor lists
        with patch.object(divisors_module, "BLOCK", block):
            assert list(odd_divisor_counts(1999)) == \
                [len(odd_divisors(n)) for n in range(1, 2000)]

    @given(st.integers(1, 5000), st.integers(0, 400))
    def test_runs_hold_each_odd_divisor_once(self, lo, length):
        # every odd d >= 3 of every n in the block, with its offset r, and
        # no run that changes sign
        hi = lo + length
        got: dict[int, list[int]] = {n: [] for n in range(lo, hi + 1)}
        for sl, count, r, step in odd_divisor_runs(lo, hi):
            ns, rs = range(lo, hi + 1)[sl], range(r, r + step * count, step)
            assert len(ns) == len(rs) == count > 0
            assert min(rs) >= 0 or max(rs) < 0
            for n, r_n in zip(ns, rs):
                got[n].append(r_n)
        assert {n: sorted(rs) for n, rs in got.items()} == {
            n: sorted(t.r for t in odd_divisor_terms(n) if t.d > 1)
            for n in got}

    def test_work_limit(self):
        # an odd part past (2 TRIAL_LIMIT)^2 is refused before any division;
        # the odd part of a power of two is 1
        assert odd_divisors(2**100) == [1]
        for n in ((2 * TRIAL_LIMIT + 1) ** 2, 10**18 + 3):
            with pytest.raises(ValueError, match="^cannot factor n within "
                               "the work limit$"):
                odd_divisors(n)
        with pytest.raises(ValueError, match="work limit"):
            divisors((TRIAL_LIMIT + 1) ** 2)

    def test_is_prime(self):
        assert [p for p in range(30) if is_prime(p)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert is_prime(8191) and not is_prime(8189)


class TestACoeff:
    def test_reference_values(self):
        assert a_coeff(6, 0) == 2
        assert a_coeff(12, 1) == 2
        assert a_coeff(9, 8) == 1

    def test_range_check(self):
        with pytest.raises(ValueError):
            a_coeff(6, 6)
        with pytest.raises(ValueError):
            a_coeff(6, -1)

    def test_against_float_free_boundary(self):
        # d = i + sqrt(2n + i^2) exactly: n = 12, i = 1 puts d = 6 on the
        # upper boundary, which is included
        assert a_coeff(12, 1) == 2

    def test_brute_force_oracle(self):
        # floating point with a guard band as an independent check
        from math import sqrt

        for n in range(1, 120):
            for i in range(0, n):
                s = sqrt(2 * n + i * i)
                expected = sum(
                    1 for d in divisors(n) if (i + s) / 2 + 1e-9 < d <= i + s + 1e-9
                )
                assert a_coeff(n, i) == expected, (n, i)

    def test_all_coefficients_at_once(self):
        for n in range(1, 501):
            assert a_coeffs(n) == [a_coeff(n, i) for i in range(n)], n
        with pytest.raises(ValueError):
            a_coeffs(0)


class TestRnd:
    """The offsets r_{n,d} = n/d - (d+1)/2, read off ``odd_divisor_terms``."""

    def test_values(self):
        assert [(t.d, t.r) for t in odd_divisor_terms(10)] == [(1, 9), (5, -1)]
        assert [(t.d, t.r) for t in odd_divisor_terms(15)] == \
            [(1, 14), (3, 3), (5, 0), (15, -7)]

    def test_rejects_bad_divisor(self):
        # the runs take a divisor from the caller and check it themselves
        with pytest.raises(ValueError):
            sequence_for_divisor(10, 2)
        with pytest.raises(ValueError):
            sequence_for_divisor(10, 3)

    def test_term_signs(self):
        t = odd_divisor_terms(10)[1]
        assert (t.d, t.r, t.sign, t.f_index) == (5, -1, -1, 0)
        t = odd_divisor_terms(15)[1]
        assert (t.d, t.r, t.sign, t.f_index) == (3, 3, 1, 3)


class TestTriangular:
    def test_examples(self):
        assert triangular_index(10) == 4
        assert triangular_index(6) == 3
        assert triangular_index(5) is None
        assert triangular_index(1) == 1

    def test_first_values(self):
        tri = [n for n in range(1, 100) if triangular_index(n) is not None]
        assert tri == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66, 78, 91]


class TestRepresentationCounts:
    def test_two_squares(self):
        assert two_squares_count(1) == 4
        assert two_squares_count(5) == 8
        assert two_squares_count(3) == 0
        assert two_squares_count(25) == 12

    def test_square_plus_twice_square(self):
        assert square_plus_twice_square_count(1) == 2
        assert square_plus_twice_square_count(2) == 2
        assert square_plus_twice_square_count(3) == 4

    def test_naive_double_loop_oracle(self):
        for n in range(1, 60):
            r = sum(1 for x in range(-n, n + 1) for y in range(-n, n + 1)
                    if x * x + y * y == n)
            assert two_squares_count(n) == r
            r2 = sum(1 for x in range(-n, n + 1) for y in range(-n, n + 1)
                     if x * x + 2 * y * y == n)
            assert square_plus_twice_square_count(n) == r2


class TestIncreasingSequences:
    def test_examples(self):
        odd, even = sequence_for_divisor(18, 3)
        assert (odd.a, odd.h) == (4, 3)
        assert list(odd.elements()) == [5, 6, 7]
        assert (even.a, even.h) == (-5, 12)
        odd, even = sequence_for_divisor(18, 9)
        assert (odd.a, odd.h) == (-3, 9)
        assert (even.a, even.h) == (2, 4)
        assert list(even.elements()) == [3, 4, 5, 6]
        odd, even = sequence_for_divisor(8, 1)
        assert list(odd.elements()) == [8]
        assert (even.a, even.h) == (-8, 16)

    def test_invalid(self):
        with pytest.raises(ValueError):
            IncreasingSequence(3, 0)
        with pytest.raises(ValueError):
            sequence_for_divisor(10, 4)

    def test_involution_examples(self):
        assert involute(IncreasingSequence(4, 3)) == IncreasingSequence(-5, 12)
        assert involute(IncreasingSequence(2, 4)) == IncreasingSequence(-3, 9)

    @given(st.integers(-40, 40), st.integers(1, 80))
    def test_involution_properties(self, a, h):
        s = IncreasingSequence(a, h)
        if s.total < 1:
            return  # involute partner only defined for positive totals
        t = involute(s)
        assert involute(t) == s
        assert t.total == s.total
        assert t.is_odd() != s.is_odd()
        assert t.is_positive() != s.is_positive()

    def test_total_matches_elements(self):
        for a in range(-10, 11):
            for h in range(1, 12):
                s = IncreasingSequence(a, h)
                assert s.total == sum(s.elements())
