"""Both polynomial families against frozen tables and each other."""
from __future__ import annotations

import decimal
import os
import resource
import subprocess
import sys
from itertools import islice, zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import fpoly_oracle, tcheb_oracle
from refdata import F_TABLE, TCHEB_TABLE
from torusideals import chebfam
from torusideals.chebfam import (
    EXACT,
    MAX_DIGITS,
    check_digits,
    decimal_radix,
    fpoly,
    fpoly_closed,
    fpoly_coeffs,
    fpoly_sum,
    fpoly_stream,
    fpoly_value,
    tcheb,
    tcheb_closed,
    tcheb_coeffs,
    tcheb_trace,
    value_digits,
)
from torusideals.intpoly import TWO, X, ZERO, slot_width


@pytest.mark.parametrize("k,coeffs", sorted(TCHEB_TABLE.items()))
def test_tcheb_reference_rows(k, coeffs):
    assert tcheb(k).coeffs == coeffs


@pytest.mark.parametrize("k,coeffs", sorted(F_TABLE.items()))
def test_fpoly_reference_rows(k, coeffs):
    assert fpoly(k).coeffs == coeffs


class TestCoefficientStreams:
    """Both directions of each stream, against the binomial formula of
    ``oracles`` for every k < 400 and the matrix trace at sampled k."""

    def test_streams_match_the_binomial_formula(self):
        for k in range(400):
            for stream, want in ((tcheb_coeffs, tcheb_oracle(k)),
                                 (fpoly_coeffs, fpoly_oracle(k))):
                assert list(stream(k)) == want, (stream, k)
                assert list(stream(k, descending=True)) == want[::-1], \
                    (stream, k)

    @given(st.integers(0, 399))
    @settings(max_examples=25, deadline=None)
    def test_tcheb_stream_matches_the_trace(self, k):
        want = tcheb_trace(k).coeffs
        assert tuple(tcheb_coeffs(k)) == want
        assert tuple(tcheb_coeffs(k, descending=True)) == want[::-1]

    def test_negative_index_refused(self):
        # the dense views refuse through their streams (V_0 and F_0 are
        # in the reference rows)
        for name, stream, dense in (("tcheb", tcheb_coeffs, tcheb),
                                    ("fpoly", fpoly_coeffs, fpoly)):
            for make in (stream, dense):
                with pytest.raises(ValueError, match=f"^{name} index must "
                                   "be non-negative$"):
                    make(-1)

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 60)),
                    max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_sum_merges_the_streams(self, terms):
        # repeated indices and zero weights included; the top may cancel
        want = sum((fpoly(r) * c for c, r in terms), ZERO).coeffs
        size = max((r + 1 for _, r in terms), default=0)
        asc, desc = list(fpoly_sum(terms)), list(fpoly_sum(terms, True))
        assert len(asc) == size and desc == asc[::-1]
        assert tuple(asc[:len(want)]) == want
        assert not any(asc[len(want):])

    def test_sum_of_many_terms_on_a_small_stack(self):
        # 5000 terms in a child with a 256 KB stack: a chain of joins, one
        # per term, nests 5000 iterators in C and crashes (SIGSEGV); the
        # balanced tree nests 13
        terms = [(1 if i % 3 else -1, i % 8) for i in range(5000)]
        weights = [sum(c for c, r in terms if r == k) for k in range(8)]
        want = [sum(col) for col in zip_longest(*(
            [w * a for a in fpoly_oracle(k)] for k, w in enumerate(weights)),
            fillvalue=0)]
        script = ("from torusideals.chebfam import fpoly_sum\n"
                  f"terms = {terms!r}\n"
                  "print(list(fpoly_sum(terms)), "
                  "list(fpoly_sum(terms, descending=True)))")

        def limit():
            resource.setrlimit(resource.RLIMIT_STACK, (256 << 10, 256 << 10))

        env = {**os.environ, "PYTHONPATH": str(
            Path(chebfam.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              preexec_fn=limit, timeout=120)
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert proc.stdout == f"{want} {want[::-1]}\n"


def test_trace_base_cases():
    assert tcheb_trace(0) == TWO
    assert tcheb_trace(1) == X
    assert tcheb_trace(10).coeffs == TCHEB_TABLE[10]


def test_trace_where_its_slots_widen():
    # the packed trace reads V_k back in slots of slot_width(L_k) bits: at
    # each k <= 400 where that width steps up, and the k just before it
    lucas = [2, 1]
    while len(lucas) <= 400:
        lucas.append(lucas[-1] + lucas[-2])
    widths = [slot_width(v) for v in lucas]
    steps = [k for k in range(1, 401) if widths[k] > widths[k - 1]]
    assert steps[:3] == [11, 22, 34] and len(steps) == 34
    for k in sorted({0, 1, *steps, *(k - 1 for k in steps)}):
        assert tcheb_trace(k) == tcheb(k), k


def test_closed_forms_reject_zero():
    with pytest.raises(ValueError):
        tcheb_closed(0)
    with pytest.raises(ValueError):
        fpoly_closed(0)
    with pytest.raises(ValueError):
        tcheb(-1)


@given(st.integers(0, 120), st.integers(-8, 8))
def test_value_recurrence_matches_polynomial(k, x):
    assert fpoly_value(k, x) == fpoly(k).eval_int(x)


@pytest.mark.parametrize("x", range(-8, 9))
def test_value_list_matches_doubling(x):
    assert list(islice(fpoly_stream(x), 130)) == \
        [fpoly_value(k, x) for k in range(130)]


class TestDecimalRadix:
    """Values computed at a ``decimal_radix`` point are the exact integers."""

    @pytest.mark.parametrize("x", range(-8, 9))
    def test_values_equal_int_values(self, x):
        ints = list(islice(fpoly_stream(x), 300))
        with decimal_radix(x) as point:
            decs = list(islice(fpoly_stream(point), 300))
            singles = [fpoly_value(k, point) for k in (0, 1, 2, 7, 299)]
        assert [str(v) for v in decs] == [str(v) for v in ints]
        assert singles == [ints[k] for k in (0, 1, 2, 7, 299)]
        assert "-0" not in {str(v) for v in singles}

    def test_past_the_int_digit_limit(self):
        with decimal_radix(7) as point:
            big = fpoly_value(6000, point)
            low = big % 10 ** 50
        assert len(str(big)) > 5000
        assert low == fpoly_value(6000, 7) % 10 ** 50

    def test_a_remainder_raises(self):
        with decimal_radix(7) as point:
            assert point / 2 == decimal.Decimal("3.5")  # exact, not rounded
            with pytest.raises(decimal.Inexact):  # 7 = 2*3 + 1
                (point / 2).to_integral_exact()
            with pytest.raises(decimal.DivisionByZero):
                point // 0
        assert decimal.getcontext() is not EXACT  # entered locally only

    def test_digit_estimate(self):
        # F_k(3) = L_{2k+1}: about (2k + 1) * log10(golden ratio) digits
        assert abs(value_digits(999, 3) - len(str(fpoly_value(999, 3)))) < 2
        assert value_digits(0, 2, 100) == 100  # one digit per small value
        assert value_digits(0, 7, 10001) < MAX_DIGITS
        with pytest.raises(ValueError, match="about 417,975,282 digits"):
            check_digits(value_digits(10 ** 9, 3))
