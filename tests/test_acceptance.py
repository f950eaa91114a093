"""Acceptance sweep: every headline guarantee at full range, exact arithmetic.

Each criterion prints one line (visible under ``pytest -s``) with its elapsed
time; a failed assertion prints a FAIL line before propagating.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from oracles import square_plus_twice_square_count, two_squares_count
from refdata import (
    F_TABLE,
    FDECOMP_TABLE,
    PG_TABLE,
    TCHEB_TABLE,
    TSUM_TABLE,
    VALUES_TABLE,
)
from torusideals import chebfam, divisors, hilbert, verify
from torusideals.cli import fdecomp_string, tsum_string


@contextmanager
def criterion(num: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} FAIL: {label}")
        raise
    print(f"criterion {num:02d} PASS ({time.perf_counter() - start:.2f}s): {label}")


def assert_passes(rep: verify.VerifySuiteReport, passed: int) -> None:
    """No check failed, and exactly ``passed`` checks ran."""
    assert not rep.failures, rep.failures[:5]
    assert rep.passed == passed


def sweep(checks, max_n: int) -> verify.VerifySuiteReport:
    """Run the per-n ``verify`` checks for n = 1..max_n."""
    rep = verify.VerifySuiteReport("acceptance", max_n)
    for n in range(1, max_n + 1):
        for check in checks:
            check(rep, n)
    return rep


def test_criterion_01_value_table():
    with criterion(1, "96 paired values at 3, 4, 5 for n <= 16"):
        for n, row in VALUES_TABLE.items():
            pg3, f3, pg4, f4, pg5, f5 = row
            assert hilbert.pg_eval_int(n, 3) == pg3
            assert chebfam.fpoly_value(n - 1, 3) == f3
            assert hilbert.pg_eval_int(n, 4) == pg4
            assert chebfam.fpoly_value(n - 1, 4) == f4
            assert hilbert.pg_eval_int(n, 5) == pg5
            assert chebfam.fpoly_value(n - 1, 5) == f5
        assert hilbert.pg_eval_int(16, 5) == 20344613659
        assert chebfam.fpoly_value(13, 4) == 37220045  # F column of row 14


def test_criterion_02_coefficient_tables():
    with criterion(2, "coefficient tables: G_n (n<=12), V_k (k<=12), F_k (k<=11)"):
        for n, coeffs in PG_TABLE.items():
            assert hilbert.pg_via_interval(n).coeffs == coeffs
        for k, coeffs in TCHEB_TABLE.items():
            assert chebfam.tcheb(k).coeffs == coeffs
        for k, coeffs in F_TABLE.items():
            assert chebfam.fpoly(k).coeffs == coeffs


def test_criterion_03_decomposition_table():
    with criterion(3, "interval-count and odd-divisor decompositions, n <= 16"):
        for n in range(1, 17):
            assert tsum_string(n) == TSUM_TABLE[n]
            assert fdecomp_string(n) == FDECOMP_TABLE[n]
        assert divisors.a_coeff(12, 1) == 2
        assert fdecomp_string(15) == "F14 - F6 + F3 + F0"


def test_criterion_04_four_route_equality():
    with criterion(4, "four independent routes to G_n agree for n <= 200"):
        assert_passes(verify.verify_routes(200), 5064)


def test_criterion_05_full_count_structure():
    with criterion(5, "two routes to C_n plus structure for n <= 500"):
        assert_passes(sweep([verify.check_counts], 500), 6 * 500)


def test_criterion_06_approximation_bound():
    with criterion(6, "defect degree < n/2 - 1 for n <= 1000; zero iff 2^k"):
        # 1000 special-family checks, 999 power-of-two checks on the kind and
        # 999 checks of both laws on the defect itself
        assert_passes(verify.verify_special(1000), 2998)


def test_criterion_07_root_of_unity_values():
    with criterion(7, "values at 2, -2, 0 against brute-force counts, n <= 300"):
        for n in range(1, 301):
            assert hilbert.pg_eval_int(n, 2) == sum(divisors.divisors(n)), n
            assert 4 * abs(hilbert.pg_eval_int(n, -2)) == \
                two_squares_count(n), n
            assert 2 * abs(hilbert.pg_eval_int(n, 0)) == \
                square_plus_twice_square_count(n), n


def test_criterion_08_multiplicativity():
    with criterion(8, "product laws for coprime m, k <= 60 and factor identities"):
        assert_passes(verify.verify_mult(60), 8551)


def test_criterion_09_family_cross_checks():
    with criterion(9, "family routes, recurrences and truncations through 64"):
        assert_passes(verify.verify_cheb(64), 577)
        assert_passes(verify.verify_series(64), 196)


def test_criterion_10_zeta_structure():
    with criterion(10, "zeta factor structure and symmetry for n <= 500"):
        assert_passes(verify.verify_zeta(500), 2002)


def test_criterion_11_special_families():
    with criterion(11, "special families over n <= 10^4"):
        assert_passes(verify.verify_special(10000), 20998)
        kinds = [hilbert.defect_kind(divisors.odd_divisor_terms(n))
                 for n in range(1, 10001)]
        assert [n for n, k in enumerate(kinds, 1) if k == "+F0"] == \
            [6, 28, 496, 8128]
        assert [n for n, k in enumerate(kinds, 1) if k == "-F0"] == \
            [3, 10, 136]


def test_criterion_12_sequence_combinatorics():
    with criterion(12, "run bijection, involution, containment, monomial route"):
        # 4 run checks for each of the 3879 odd divisors of n <= 1000, one
        # bijection check and 6 count checks per n
        assert_passes(sweep([verify.check_runs, verify.check_counts], 1000),
                      4 * 3879 + 1000 + 6 * 1000)
