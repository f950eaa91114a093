"""The value classes: construction, equality, hashing, immutability and the
``Name(field=value, ...)`` text that ``verify`` failure lines print."""
from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from torusideals import cli
from torusideals.divisors import (IncreasingSequence, OddDivisorTerm,
                                  odd_divisor_terms)
from torusideals.intpoly import LAURENT_ZERO, ONE, ZERO, IntPoly, LaurentPoly
from torusideals.oeis import SEQUENCES, SequenceCheckReport
from torusideals.series import TruncatedSeries
from torusideals.verify import VerifySuiteReport
from torusideals.zeta import local_zeta_factors


class TestPolynomials:
    def test_trailing_zeros_do_not_count(self):
        assert IntPoly((1, 0)) == IntPoly((1,))
        assert hash(IntPoly((1, 0))) == hash(IntPoly((1,)))

    def test_equal_only_to_its_own_class(self):
        assert IntPoly((1,)) != LaurentPoly(0, (1,))
        assert IntPoly((1,)) != (1,)
        assert IntPoly((1,)) != ((1,),)
        assert LaurentPoly(0, (1,)) != (0, (1,))

    def test_laurent_normalizes(self):
        p = LaurentPoly(0, (0, 2, 0))
        assert (p.min_exp, p.coeffs) == (1, (2,))
        assert p == LaurentPoly(1, (2,))
        assert hash(p) == hash(LaurentPoly(1, (2,)))
        assert LaurentPoly(5, (0, 0)).min_exp == 0

    def test_hash_is_the_hash_of_the_fields(self):
        assert hash(IntPoly((1, 2))) == hash(((1, 2),))
        assert hash(LaurentPoly(-1, (1, 0, 1))) == hash((-1, (1, 0, 1)))

    def test_defaults_and_keywords(self):
        assert IntPoly() == ZERO
        assert LaurentPoly() == LAURENT_ZERO
        assert IntPoly(coeffs=[1, 0]) == ONE
        assert LaurentPoly(min_exp=-1, coeffs=[0, 1]) == LaurentPoly(0, (1,))


class TestRecords:
    def test_refusals_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^run length h must be >= 1$"):
            IncreasingSequence(0, 0)
        with pytest.raises(ValueError, match=r"^need 2 coefficients, got 1$"):
            TruncatedSeries(1, (ONE,))
        with pytest.raises(ValueError, match=r"^order must be non-negative$"):
            TruncatedSeries(-1, ())

    def test_repr_names_the_fields(self):
        cases = [(OddDivisorTerm(3, 1), "OddDivisorTerm(d=3, r=1)"),
                 (IncreasingSequence(4, 3), "IncreasingSequence(a=4, h=3)"),
                 (local_zeta_factors(4), "ZetaFactorization(n=4, "
                  "numerator=(1, 7), denominator=(0, 8))")]
        for record, text in cases:
            assert repr(record) == str(record) == text

    def test_equality_and_hash_follow_the_fields(self):
        assert IncreasingSequence(a=1, h=2) == IncreasingSequence(1, 2)
        assert IncreasingSequence(1, 2) != IncreasingSequence(1, 3)
        assert hash(OddDivisorTerm(3, 1)) == hash(OddDivisorTerm(3, 1))
        assert len({local_zeta_factors(4), local_zeta_factors(4)}) == 1

    def test_odd_divisor_terms_are_ordinary_records(self):
        # odd_divisor_terms builds its records without the Python __new__
        for n in (1, 15, 945):
            for t in odd_divisor_terms(n):
                made = OddDivisorTerm(t.d, t.r)
                assert type(t) is OddDivisorTerm
                assert (t, hash(t), repr(t)) == (made, hash(made), repr(made))
                back = pickle.loads(pickle.dumps(t))
                assert type(back) is OddDivisorTerm and back == made

    def test_records_equal_the_tuples_of_their_fields(self):
        # namedtuple records compare as tuples
        assert OddDivisorTerm(3, 1) == (3, 1)
        assert hash(IncreasingSequence(4, 3)) == hash((4, 3))
        assert local_zeta_factors(4) == (4, (1, 7), (0, 8))

    def test_suite_reports_keep_their_own_failures(self):
        a, b = VerifySuiteReport("a", 1), VerifySuiteReport("b", 2)
        a.equal("case", 1, 2)
        b.equal("case", 1, 1)
        assert (a.suite, a.max_n, a.passed, a.failed) == ("a", 1, 0, 1)
        assert (b.suite, b.max_n, b.passed, b.failures) == ("b", 2, 1, [])


FIELDS = [
    (IntPoly((1,)), "coeffs"),
    (LaurentPoly(0, (1,)), "min_exp"),
    (LaurentPoly(0, (1,)), "coeffs"),
    (IncreasingSequence(4, 3), "h"),
    (OddDivisorTerm(3, 1), "r"),
    (local_zeta_factors(4), "numerator"),
    (TruncatedSeries(0, (ONE,)), "coeffs"),
    (SEQUENCES["pg3"], "point"),
    (SequenceCheckReport("pg3", "b000001", 0, iter(())), "compared"),
]


@pytest.mark.parametrize("obj, name", FIELDS,
                         ids=[f"{type(o).__name__}.{n}" for o, n in FIELDS])
def test_fields_cannot_be_assigned(obj, name):
    value = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = value
    assert getattr(obj, name) == value


@pytest.mark.parametrize("obj", [
    IntPoly((1, 2)), LaurentPoly(-2, (3, 0, 1)), IncreasingSequence(4, 3),
    OddDivisorTerm(3, 1), local_zeta_factors(6), TruncatedSeries(1, (ONE, ONE)),
], ids=lambda o: type(o).__name__)
def test_pickle_round_trip(obj):
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Nor ``pathlib``; nor ``tempfile``, which the text tables and
    ``--out`` import only when they run; nor ``argparse`` or ``gettext``,
    which only help and usage errors need.  ``-S`` skips ``site``, whose
    imports could load them."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import torusideals.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing', 'pathlib',"
            " 'tempfile', 'argparse', 'gettext'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
