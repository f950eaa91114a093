"""Symbolic zeta factorizations."""
from __future__ import annotations

import json

from torusideals.zeta import (
    ZetaFactorization,
    format_local_zeta,
    hasse_weil_factors,
    local_zeta_factors,
    zeta_consistency_with_cn,
)


def test_reference_factorizations():
    z = local_zeta_factors(4)
    assert z.numerator == (1, 7) and z.denominator == (0, 8)
    z = local_zeta_factors(3)
    assert z.numerator == (1, 2, 4, 5) and z.denominator == (0, 3, 3, 6)
    z = local_zeta_factors(1)
    assert z.numerator == (1, 1) and z.denominator == (0, 2)
    z = local_zeta_factors(2)
    assert z.numerator == (1, 3) and z.denominator == (0, 4)


def test_double_factor_for_three():
    assert local_zeta_factors(3).denominator.count(3) == 2


def test_hasse_weil_shifts():
    # the shifts s0 of zeta(s - s0) are the local exponents
    hw = hasse_weil_factors(4)
    assert (hw.numerator, hw.denominator) == ((1, 7), (0, 8))
    assert hasse_weil_factors(2) == local_zeta_factors(2)


def test_consistency_with_coefficients():
    # the coefficient 2 of q^0 in C_3(q)/q^3 gives the factor (1 - q^3 t)^2
    assert zeta_consistency_with_cn(3) == \
        ZetaFactorization(3, (1, 2, 4, 5), (0, 3, 3, 6))
    assert zeta_consistency_with_cn(4) == local_zeta_factors(4).cancelled()


def test_cancellation():
    z = ZetaFactorization(1, (5, 3, 3), (3, 2))
    c = z.cancelled()
    assert c.numerator == (3, 5) and c.denominator == (2,)


def test_json_round_trip():
    z = local_zeta_factors(6)
    assert json.loads(json.dumps(z.to_json())) == \
        {"n": 6, "num": list(z.numerator), "den": list(z.denominator)}


def test_rendering():
    assert format_local_zeta(local_zeta_factors(4)) == \
        "(1-q*t)(1-q^7*t) / (1-t)(1-q^8*t)"
    assert format_local_zeta(local_zeta_factors(3)) == \
        "(1-q*t)(1-q^2*t)(1-q^4*t)(1-q^5*t) / (1-t)(1-q^3*t)^2(1-q^6*t)"
