"""The ideal-count polynomial families and their cross-formulas."""
from __future__ import annotations

from itertools import chain
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from refdata import PG_TABLE, VALUES_TABLE
from torusideals import divisors as divisors_module, hilbert
from torusideals.chebfam import (decimal_radix, fpoly, fpoly_period,
                                 fpoly_value, tcheb, tcheb_value)
from torusideals.divisors import (
    BLOCK,
    a_coeffs,
    blocks,
    odd_divisor_terms,
    odd_divisors,
)
from torusideals.hilbert import (
    approx_defect,
    cn_eval_int,
    cn_runs,
    cn_via_coeff_formula,
    cn_via_odd_divisors,
    defect_kind,
    expand_runs,
    fpoly_blocks,
    pg_blocks,
    pg_coeffs,
    pg_eval_int,
    pg_roundtrip,
    pg_via_interval,
    pg_via_odd_divisors,
    pg_via_sequences,
    pn_eval_int,
    pn_from_cn,
    pn_runs,
)
from torusideals.intpoly import (LaurentPoly, NonDivisibleError, ONE, ZERO,
                                 chebyshev_sum, exact_div)
from torusideals.cli import main
from torusideals.verify import VerifySuiteReport, check_factor_identities


@pytest.mark.parametrize("n,coeffs", sorted(PG_TABLE.items()))
def test_pg_reference_rows(n, coeffs):
    assert pg_via_interval(n).coeffs == coeffs


class TestPgRoutes:
    def test_decomposition_terms(self):
        terms = odd_divisor_terms(15)
        assert [(t.d, t.sign, t.f_index) for t in terms] == \
            [(1, 1, 14), (3, 1, 3), (5, 1, 0), (15, -1, 6)]
        assert pg_via_odd_divisors(15) == \
            fpoly(14) + fpoly(3) + fpoly(0) - fpoly(6)
        terms = odd_divisor_terms(8)
        assert [(t.sign, t.f_index) for t in terms] == [(1, 7)]
        terms = odd_divisor_terms(10)
        assert [(t.sign, t.f_index) for t in terms] == [(1, 9), (-1, 0)]

    def test_stream_matches_the_interval_route(self):
        for n in range(1, 400):
            want = pg_via_interval(n).coeffs
            assert tuple(pg_coeffs(n)) == want, n
            assert tuple(pg_coeffs(n, descending=True)) == want[::-1], n
        with pytest.raises(ValueError, match="n must be positive"):
            pg_coeffs(0)

    def test_roundtrip_rows(self):
        assert pg_roundtrip(4).coeffs == PG_TABLE[4]
        assert pg_roundtrip(6).coeffs == PG_TABLE[6]
        assert pg_roundtrip(11).coeffs == PG_TABLE[11]

    def test_sequence_route(self):
        assert pg_via_sequences(1) == LaurentPoly(0, (1,))
        assert pg_via_sequences(2) == LaurentPoly(-1, (1, 1, 1))


class TestCn:
    def test_reference_examples(self):
        assert cn_via_odd_divisors(4) == \
            LaurentPoly(0, (1, -1, 0, 0, 0, 0, 0, -1, 1))
        assert cn_via_odd_divisors(3) == \
            LaurentPoly(0, (1, -1, -1, 2, -1, -1, 1))
        assert cn_via_odd_divisors(1) == LaurentPoly(0, (1, -2, 1))

    def test_coeff_formula_examples(self):
        # coefficients of C_n(q)/q^n, read at q^{n+i}
        assert cn_via_coeff_formula(6).coeff(6) == -2
        assert cn_via_coeff_formula(5).coeff(5) == 0
        c4 = cn_via_coeff_formula(4)
        assert c4.coeff(8) == 1 and c4.coeff(7) == -1
        assert all(c4.coeff(4 + i) == 0 for i in (0, 1, 2))

    def test_pn_examples(self):
        assert pn_from_cn(2) == LaurentPoly(0, (1, 1, 1))
        assert pn_from_cn(1) == LaurentPoly(0, (1,))
        assert pn_from_cn(5) == LaurentPoly(0, (1, 1, 1, 0, 0, 0, 1, 1, 1))

    def test_pn_refuses_a_corrupted_count(self, monkeypatch):
        genuine = cn_via_odd_divisors(12)
        # +-q^i breaks the first division by q - 1, (q - 1) q^i the second
        for bump in ([LaurentPoly(i, (s,)) for i in range(25) for s in (1, -1)]
                     + [LaurentPoly(i, (-1, 1)) for i in range(24)]):
            monkeypatch.setattr(hilbert, "cn_via_odd_divisors",
                                lambda n, b=bump: genuine + b)
            with pytest.raises(NonDivisibleError):
                pn_from_cn(12)


def dense_cn(n: int) -> LaurentPoly:
    """C_n as the dense sum over the odd divisors, with no runs."""
    buf = [0] * (2 * n + 1)
    for d in odd_divisors(n):
        r = n // d - (d + 1) // 2
        buf[n + r + 1] += 1
        buf[n - r - 1] += 1
        buf[n + r] -= 1
        buf[n - r] -= 1
    return LaurentPoly(0, tuple(buf))


class TestRuns:
    def test_runs_expand_to_the_dense_counts(self):
        for n in range(1, 400):
            cn = dense_cn(n)
            pn = exact_div(exact_div(cn, hilbert.Q_MINUS_ONE),
                           hilbert.Q_MINUS_ONE)
            c_runs, p_runs = cn_runs(n), pn_runs(n)
            assert expand_runs(c_runs) == cn.coeffs, n
            assert expand_runs(p_runs) == pn.coeffs, n
            assert sum(k for _, k in c_runs) == 2 * n + 1
            assert sum(k for _, k in p_runs) == 2 * n - 1
            for runs in (c_runs, p_runs):
                assert all(k >= 1 for _, k in runs)
                assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
            assert all(v >= 0 for v, _ in p_runs)

    @pytest.mark.parametrize("route,case", [("pn_runs", "pg sequence route"),
                                            ("cn_runs", "cn two-route")])
    def test_corrupted_runs_fail_verify(self, monkeypatch, capsys, route,
                                        case):
        genuine = getattr(hilbert, route)

        def corrupted(n):  # one more on the first run
            (v, k), *rest = genuine(n)
            return [(v + 1, k), *rest]

        want = {n: (str(pn_from_cn(n).shift(-(n - 1))),
                    str(LaurentPoly(-(n - 1), expand_runs(corrupted(n)))))
                if route == "pn_runs" else
                (str(LaurentPoly(0, expand_runs(corrupted(n)))),
                 str(cn_via_coeff_formula(n)))
                for n in (1, 2, 3)}
        monkeypatch.setattr(hilbert, route, corrupted)
        code = main(["verify", "routes", "--max-n", "12"])
        out = capsys.readouterr().out
        assert code == 1
        for n, (expected, actual) in want.items():
            assert f"  {case} n={n}: expected {expected}, got {actual}\n" \
                in out
        if route == "cn_runs":  # (q-1)^2 no longer divides C_n: reported
            assert "  pg interval=roundtrip n=1: expected 1, got nonzero " \
                "remainder in exact division\n" in out
            assert "  pn structure n=1: expected (q-1)^2 divides C_n, got " \
                "nonzero remainder in exact division\n" in out


class TestApproxDefect:
    def test_examples(self):
        assert approx_defect(9) == -fpoly(3) + fpoly(1)
        assert approx_defect(11) == -fpoly(4)
        assert approx_defect(16) == ZERO
        assert approx_defect(9).degree == 3

    def test_matches_v_basis_sum(self):
        # the Abel-summed F-terms equal the plain V-basis sum they replace
        for n in range(2, 401):
            assert approx_defect(n) == \
                chebyshev_sum([a - 1 for a in a_coeffs(n)])


class TestValues:
    @pytest.mark.parametrize("n", sorted(VALUES_TABLE))
    def test_reference_value_pairs(self, n):
        pg3, _, pg4, _, pg5, _ = VALUES_TABLE[n]
        assert pg_eval_int(n, 3) == pg3
        assert pg_eval_int(n, 4) == pg4
        assert pg_eval_int(n, 5) == pg5

    @given(st.integers(1, 150), st.integers(-6, 6))
    @settings(max_examples=60)
    def test_eval_matches_polynomial(self, n, x):
        assert pg_eval_int(n, x) == pg_via_interval(n).eval_int(x)

    @pytest.mark.parametrize("x", range(-6, 7))
    def test_value_list_matches_single_values(self, x):
        # the odd-divisor sieve against the per-n sums
        assert [g for _, gs in pg_blocks(2000, x) for g in gs] == \
            [pg_eval_int(n, x) for n in range(1, 2001)]
        assert list(pg_blocks(0, x)) == []

    @given(st.integers(0, 300), st.integers(-6, 6),
           st.sampled_from((1, 2, 3, 7, BLOCK)), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_block_kernel_matches_the_oracles(self, top, x, block, radix):
        # G_n(x) and F_{n-1}(x) block by block, with the point an int or in
        # the decimal radix, against the per-n sums and Lucas doubling
        with patch.object(divisors_module, "BLOCK", block), \
                decimal_radix(x) as point:
            at = point if radix else x
            swept = list(pg_blocks(top, at))
            fs = list(chain.from_iterable(fpoly_blocks(top + 1, at)))
            assert [len(f) for f, _ in swept] == list(map(len, blocks(top)))
            assert all(len(f) == len(g) <= block for f, g in swept)
            assert [g for _, gs in swept for g in gs] == \
                [pg_eval_int(n, at) for n in range(1, top + 1)]
            assert [v for f, _ in swept for v in f] == fs[:top]
            assert fs == [fpoly_value(k, at) for k in range(top + 1)]
        assert "-0" not in {str(v) for _, gs in swept for v in gs} | \
            {str(v) for v in fs}

    @pytest.mark.parametrize("x", range(-2, 3))
    def test_closed_and_periodic_forms(self, x):
        # at |x| <= 2 the sweep keeps no list: F_k(2) = 2k + 1, and F_k(x)
        # repeats with period 2, 3, 4, 6 at x = -2, -1, 0, 1
        want = [fpoly_value(k, x) for k in range(1000)]
        assert list(chain.from_iterable(fpoly_blocks(1000, x))) == want
        if x == 2:
            assert want == list(range(1, 2000, 2))
            with pytest.raises(ValueError, match="periodic"):
                fpoly_period(x)
        else:
            period = fpoly_period(x)
            assert len(period) == {-2: 2, -1: 3, 0: 4, 1: 6}[x]
            assert want == [period[k % len(period)] for k in range(1000)]

    def test_count_values_match_polynomials(self):
        # the values behind ``compute tcheb|cn|pn --eval``, in ints
        assert [tcheb_value(0, x) for x in (-1, 0, 5)] == [2, 2, 2]
        for n in range(1, 301):
            cn, pn, v = cn_via_odd_divisors(n), pn_from_cn(n), tcheb(n)
            for x in range(-8, 9):
                assert cn_eval_int(n, x) == cn.eval_int(x), (n, x)
                assert pn_eval_int(n, x) == pn.eval_int(x), (n, x)
                assert tcheb_value(n, x) == v.eval_int(x), (n, x)


class TestMultiplicativity:
    def test_product_law_examples(self):
        # |G_m(x)| |G_k(x)| = |G_mk(x)|, times 4 at x = 1 for m = k = 2 mod 3
        assert pg_eval_int(2, 2) * pg_eval_int(3, 2) == pg_eval_int(6, 2) == 12
        assert abs(pg_eval_int(4, -1) * pg_eval_int(3, -1)) == \
            abs(pg_eval_int(12, -1))
        assert abs(pg_eval_int(2, 1) * pg_eval_int(5, 1)) == \
            4 * abs(pg_eval_int(10, 1))

    def test_factor_identities(self):
        rep = VerifySuiteReport("mult", 0)
        check_factor_identities(rep)
        assert rep.ok and rep.passed == 3

    def test_corrupted_square_difference_fails(self, monkeypatch):
        genuine = hilbert.pg_via_interval
        monkeypatch.setattr(hilbert, "pg_via_interval",
                            lambda n: genuine(n) + ONE if n == 12 else genuine(n))
        rep = VerifySuiteReport("mult", 0)
        check_factor_identities(rep)
        failure, = rep.failures
        assert failure["case"] == "square-difference divisibility"
        assert failure["expected"] == "[0, 0, 0, 0]"
        values = [int(v) for v in failure["actual"].strip("[]").split(", ")]
        assert len(values) == 4 and all(values)
        assert rep.passed == 2


def kind_of(n: int) -> str:
    return defect_kind(odd_divisor_terms(n))


class TestSpecialFamilies:
    def test_examples(self):
        assert kind_of(6) == "+F0"
        assert kind_of(10) == "-F0"
        assert kind_of(20) == "+F1"
        assert kind_of(5) == "-F1"
        assert kind_of(16) == "zero"
        assert kind_of(9) == "other"

    def test_kind_matches_polynomial_arithmetic(self):
        # the combinatorial classification must equal literal subtraction
        kinds = {"zero": ZERO, "+F0": fpoly(0), "-F0": -fpoly(0),
                 "+F1": fpoly(1), "-F1": -fpoly(1)}
        for n in range(1, 400):
            defect = pg_via_odd_divisors(n) - fpoly(n - 1)
            kind = kind_of(n)
            if kind in kinds:
                assert defect == kinds[kind], n
            else:
                assert defect not in kinds.values(), n
