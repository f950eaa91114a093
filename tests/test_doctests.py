"""Run the docstring examples embedded in the library modules."""
from __future__ import annotations

import doctest

import pytest

from torusideals import (chebfam, cli, divisors, hilbert, intpoly, oeis,
                         series, zeta)


@pytest.mark.parametrize(
    "module", [intpoly, chebfam, divisors, hilbert, series, zeta, oeis, cli],
    ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    # a module whose examples all vanished would pass with none run
    assert result.failed == 0 and result.attempted > 0
