"""Each ``verify`` check that stands in for a test sweep can fail: a route
made wrong at one value makes ``verify all`` exit 1 and print the case."""
from __future__ import annotations

import re
from operator import add

import pytest

from torusideals import chebfam, divisors, hilbert, intpoly, series, zeta
from torusideals.cli import main
from torusideals.intpoly import ONE, X, IntPoly, monomial, unpack_balanced


def wrong(bump, at=None):
    """The route with ``bump`` (a function, or a term to add) applied to its
    value where its first argument is ``at``, or at every call if None."""
    change = bump if callable(bump) else lambda value: value + bump
    return lambda genuine: lambda *args: (
        change(genuine(*args)) if at in (None, args[0]) else genuine(*args))


def bump_term(k, by, at=None):
    return wrong(lambda s: s._replace(
        coeffs=(*s.coeffs[:k], s.coeffs[k] + by, *s.coeffs[k + 1:])), at)


def shift_plus(pm):
    """(plus, minus) exponent lists with the first +q^e moved up to q^(e+1)."""
    return [pm[0][0] + 1, *pm[0][1:]], pm[1]


def bump_descending_join(genuine):
    """``fpoly_sum`` with 1 added at X^4 of the descending join of G_7's
    terms, +F_6 - F_2, as ``pg_coeffs`` passes them: a generator, so they
    are collected first."""
    def fpoly_sum(terms, descending=False):
        terms = list(terms)
        sums = genuine(terms, descending)
        if descending and terms == [(1, 6), (-1, 2)]:
            return map(add, sums, (0, 0, 1, 0, 0, 0, 0))
        return sums
    return fpoly_sum


def overflow():
    """Raise what ``unpack_balanced`` raises on a value too wide for its
    slots."""
    return unpack_balanced(1 << 16, 8, 2)


MUTANTS = [  # owner, name that verify calls, wrong version, case caught
    (chebfam, "tcheb", wrong(ONE, 7), "tcheb closed k=7"),
    (chebfam, "fpoly", wrong(ONE, 7), "fpoly closed k=7"),
    (chebfam, "tcheb_trace", wrong(ONE, 7), "tcheb trace k=7"),
    # a packed read-back that overflows: a failed check, not a traceback
    (chebfam, "tcheb_trace", wrong(lambda _: overflow(), 7),
     "tcheb trace k=7"),
    # the descending runs of V_9 and U_9, which every text answer prints
    (chebfam, "_binomial_run", lambda genuine: lambda n, shift, down: (
        map(add, genuine(n, shift, down), (0, 0, 1, 0, 0)) if down and n == 9
        else genuine(n, shift, down)), "tcheb closed k=9"),
    # the ascending run of V_9: the stream JSON and CSV print, and tcheb
    (chebfam, "_binomial_run", lambda genuine: lambda n, shift, down: (
        map(add, genuine(n, shift, down), (0, 1, 0, 0, 0))
        if not down and n == 9 and shift == 1
        else genuine(n, shift, down)), "tcheb gf k=9"),
    (IntPoly, "eval_q_plus_qinv", wrong(monomial(0), chebfam.tcheb(7)),
     "tcheb substitution k=7"),
    (series, "expand_f_gf", bump_term(7, ONE), "f gf k=7"),
    (series, "expand_tcheb_gf", bump_term(7, ONE), "tcheb gf k=7"),
    (series, "expand_pg_product", bump_term(5, X, 10),
     "truncation stability"),
    (series, "pg_from_series", wrong(lambda g: [*g[:6], g[6] + ONE, *g[7:]]),
     "pg series n=7"),
    # the defect's F-terms: +F_0 at n = 16, +F_4 at n = 9
    (hilbert, "defect_terms", wrong(lambda t: [*t, (1, 0)], 16),
     "defect degree bound n=16"),
    (hilbert, "defect_terms", wrong(lambda t: [*t, (1, 4)], 9),
     "defect degree bound n=9"),
    # 2F_1 - F_3 at n = 9, within both laws: only the odd divisors tell
    (hilbert, "defect_terms", wrong(lambda t: [*t, (1, 1)], 9),
     "defect degree bound n=9"),
    (divisors, "representations", wrong(lambda r: r[:-1], 7), "bijection n=7"),
    (divisors, "a_coeff", wrong(1, 7), "a_coeff tail of ones n=7"),
    # the index ranges behind the interval counts, with a second count at
    # i = n - 1: each caller reads its own binding of the name
    (divisors, "a_intervals", wrong(lambda ranges: [*ranges, (6, 6)], 7),
     "pg interval=odd_divisors n=7"),
    (hilbert, "a_intervals", wrong(lambda ranges: [*ranges, (6, 6)], 7),
     "defect degree bound n=7"),
    # the descending join behind every text compute pg and table pg
    (hilbert, "fpoly_sum", bump_descending_join,
     "pg interval=odd_divisors n=7"),
    # G_7(x) as ``verify mult`` lists it once per point
    (hilbert, "pg_eval_int", wrong(1, 7), "mult x=-2 m=2 k=7"),
    (hilbert, "cn_via_coeff_formula", wrong(monomial(7), 7),
     "cn two-route n=7"),
    # the exponent lists behind C_n's runs, its --eval values and zeta
    (hilbert, "cn_exponents", wrong(shift_plus, 7), "cn two-route n=7"),
    # the coefficient formula's terms as zeta reads them
    (zeta, "cn_formula_exponents", wrong(shift_plus, 7),
     "coefficient consistency n=7"),
    # a zero run at the top, which the carriers strip and JSON and CSV print
    (hilbert, "cn_runs", wrong(lambda runs: [*runs, (0, 1)], 7),
     "cn palindromic monic deg 2n n=7"),
    (hilbert, "pn_from_cn", wrong(monomial(0), 7), "pn structure n=7"),
    # the run list behind P_n's coefficients and its --eval values
    (hilbert, "pn_runs", wrong(lambda runs: [*runs[:-1], (runs[-1][0] + 1,
                                                         runs[-1][1])], 7),
     "pg sequence route n=7"),
    (hilbert, "pn_runs", wrong(lambda runs: [*runs, (0, 1)], 8),
     "pg sequence route n=8"),
    (zeta, "local_zeta_factors", wrong(lambda z: z._replace(
        numerator=(2, *z.numerator[1:])), 7), "functional equation n=7"),
]


# The value a failed check prints as ``got`` where the check is not an
# equality of one route's value: the mutated value, made from the genuine
# route before it is replaced; keyed "name: case", as two rows may catch
# one case with different values
SHOWN = {
    "expand_pg_product: truncation stability": lambda: (
        f"t^5: {series.expand_pg_product(10).coeffs[5] + X}"),
    "representations: bijection n=7": lambda: str(sorted(
        (s.a, s.h) for s in divisors.representations(7)[:-1])),
    "_binomial_run: tcheb closed k=9": lambda: str([  # X^5
        c + (i == 4) for i, c in enumerate(chebfam.tcheb_coeffs(9, True))]),
    "defect_terms: defect degree bound n=16": lambda: "1",
    "cn_runs: cn palindromic monic deg 2n n=7": lambda: str(
        [*hilbert.cn_runs(7), (0, 1)]),
    "pn_runs: pg sequence route n=8": lambda: str(
        [*hilbert.pn_runs(8), (0, 1)]),
    "cn_formula_exponents: coefficient consistency n=7": lambda: str(
        zeta.ZetaFactorization.of_terms(
            7, *shift_plus(hilbert.cn_formula_exponents(7))).cancelled()),
    "fpoly_sum: pg interval=odd_divisors n=7": lambda: str([  # X^4
        c + (i == 2) for i, c in enumerate(hilbert.pg_coeffs(7, True))]),
}


# one id per row, "name: case"; a repeat gets " #2", " #3", ... so that
# no earlier row's id changes
IDS = [f"{m[1]}: {m[-1]}" for m in MUTANTS]
IDS = [f"{i} #{IDS[:k].count(i) + 1}" if i in IDS[:k] else i
       for k, i in enumerate(IDS)]


@pytest.mark.parametrize("owner, name, make, case", MUTANTS, ids=IDS)
def test_verify_catches_the_wrong_route(monkeypatch, capsys, owner, name,
                                        make, case):
    key = f"{name}: {case}"
    shown = SHOWN[key]() if key in SHOWN else None
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    code = main(["verify", "all", "--max-n", "20"])
    out = capsys.readouterr().out
    m = re.search(rf"\n  {re.escape(case)}: expected (.+), got (.+)\n", out)
    assert code == 1 and m and m[1] != m[2], out
    assert shown in (None, m[2]), out


@pytest.mark.parametrize("owner, name, at, suite, case", [
    (chebfam, "tcheb_trace", lambda k: k == 7, "cheb", "tcheb trace k=7"),
    # the basis change that pg_roundtrip ends in: V_0..V_6 at n = 7
    (intpoly, "chebyshev_sum", lambda b: len(b) == 7, "routes",
     "pg interval=roundtrip n=7"),
], ids=["tcheb_trace", "chebyshev_sum"])
def test_overflowing_read_back_is_a_failed_check(monkeypatch, capsys, owner,
                                                 name, at, suite, case):
    genuine = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda arg: overflow() if at(arg) else genuine(arg))
    code = main(["verify", suite, "--max-n", "8"])
    out = capsys.readouterr().out
    assert code == 1, out
    assert re.search(rf"\n  {re.escape(case)}: expected .+, got value does "
                     r"not fit in 2 slots of 8 bits\n", out), out
