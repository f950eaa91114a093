"""Run the docstring examples embedded in the library modules, and check
that the module attributes README names still exist."""
from __future__ import annotations

import doctest
import functools
import importlib
import re
from pathlib import Path

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


def test_readme_names_are_live():
    # a backticked `module.name`, up to the first character that cannot
    # be part of a dotted name, as in `hilbert.cn_runs(n)`
    readme = Path(__file__).resolve().parents[1] / "README.md"
    names = set(re.findall(
        r"`((?:intpoly|chebfam|divisors|hilbert|series|zeta|oeis|verify|cli)"
        r"(?:\.\w+)+)", readme.read_text(encoding="utf-8")))
    assert names  # a README that names none would pass with none checked
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(
                f"torusideals.{module}"))
        except AttributeError:
            missing.append(name)
    assert not missing
