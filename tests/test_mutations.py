"""Each ``verify`` check that stands in for a test sweep can fail: a route
made wrong at one value makes ``verify all`` exit 1 and print the case."""
from __future__ import annotations

import re

import pytest

from torusideals import chebfam, divisors, hilbert, series, zeta
from torusideals.cli import main
from torusideals.intpoly import ONE, X, IntPoly, monomial


def wrong(bump, at=None):
    """The route with ``bump`` (a function, or a term to add) applied to its
    value where its first argument is ``at``, or at every call if None."""
    change = bump if callable(bump) else lambda value: value + bump
    return lambda genuine: lambda *args: (
        change(genuine(*args)) if at in (None, args[0]) else genuine(*args))


def bump_term(k, by, at=None):
    return wrong(lambda s: s._replace(
        coeffs=(*s.coeffs[:k], s.coeffs[k] + by, *s.coeffs[k + 1:])), at)


MUTANTS = [  # owner, name that verify calls, wrong version, case caught
    (chebfam, "tcheb", wrong(ONE, 7), "tcheb closed k=7"),
    (chebfam, "fpoly", wrong(ONE, 7), "fpoly closed k=7"),
    (chebfam, "tcheb_trace", wrong(ONE, 7), "tcheb trace k=7"),
    (IntPoly, "eval_q_plus_qinv", wrong(monomial(0), chebfam.tcheb(7)),
     "tcheb substitution k=7"),
    (series, "expand_f_gf", bump_term(7, ONE), "f gf k=7"),
    (series, "expand_tcheb_gf", bump_term(7, ONE), "tcheb gf k=7"),
    (series, "expand_pg_product", bump_term(5, X, 10),
     "truncation stability"),
    (series, "pg_from_series", wrong(lambda g: [*g[:6], g[6] + ONE, *g[7:]]),
     "pg series n=7"),
    (hilbert, "approx_defect", wrong(ONE, 16), "defect degree bound n=16"),
    (hilbert, "approx_defect", wrong(X * X * X * X, 9),
     "defect degree bound n=9"),
    (divisors, "representations", wrong(lambda r: r[:-1], 7), "bijection n=7"),
    (divisors, "a_coeff", wrong(1, 7), "a_coeff tail of ones n=7"),
    (hilbert, "cn_via_coeff_formula", wrong(monomial(7), 7),
     "cn two-route n=7"),
    (hilbert, "pn_from_cn", wrong(monomial(0), 7), "pn structure n=7"),
    (zeta, "local_zeta_factors", wrong(lambda z: z._replace(
        numerator=(2, *z.numerator[1:])), 7), "functional equation n=7"),
]


# The value a failed check prints as ``got`` where the check is not an
# equality of one route's value: the mutated value, made from the genuine
# route before it is replaced
SHOWN = {
    "truncation stability": lambda: (
        f"t^5: {series.expand_pg_product(10).coeffs[5] + X}"),
    "bijection n=7": lambda: str(sorted(
        (s.a, s.h) for s in divisors.representations(7)[:-1])),
}


@pytest.mark.parametrize("owner, name, make, case", MUTANTS,
                         ids=[f"{m[1]}: {m[-1]}" for m in MUTANTS])
def test_verify_catches_the_wrong_route(monkeypatch, capsys, owner, name,
                                        make, case):
    shown = SHOWN[case]() if case in SHOWN else None
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    code = main(["verify", "all", "--max-n", "20"])
    out = capsys.readouterr().out
    m = re.search(rf"\n  {re.escape(case)}: expected (.+), got (.+)\n", out)
    assert code == 1 and m and m[1] != m[2], out
    assert shown in (None, m[2]), out
