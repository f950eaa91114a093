"""OEIS b-file parsing and integer-sequence cross-checks.

A b-file is the standard two-column text format: one ``index value`` pair
per line, ``#`` comment lines ignored, indices strictly increasing.

Every supported sequence mapping carries an explicit index transform,
because offsets differ between sequences (and between a polynomial's
subscript and the b-file index); a silent off-by-one is the classic failure
mode here.  The registry:

  pg3            b-file index n >= 1  ->  G_n(3)            (A329156)
  pg_eval --at x b-file index n >= 1  ->  G_n(x)            (x=3: A329156)
  f_eval --at x  b-file index k >= 0  ->  F_k(x)            (x=3: A002878,
                 the Lucas bisection L(2k+1); x=4: A001834; x=5: A030221)
  sigma          b-file index n >= 1  ->  G_n(2) = sigma(n) (A000203)
  odd_div_count  b-file index n >= 1  ->  #odd divisors     (A001227)

``sigma`` deliberately routes through G_n(2) rather than summing divisors:
the point of the check is to validate the pipeline against independent
reference data.  b-file values and sweeps are exact ``Decimal``s
(``chebfam.decimal_radix``): linear time for values of any length.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Any, Callable

from .chebfam import (EXACT, check_digits, decimal_radix, fpoly_values,
                      value_digits)
from .divisors import odd_divisor_counts
from .hilbert import pg_values

_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")  # an int() literal, unspaced


class BFileError(ValueError):
    """Malformed b-file; message carries the offending line number."""


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: (index, value) entries with strictly increasing index."""

    sequence_id: str
    entries: tuple[tuple[int, Decimal], ...]


def parse_bfile(path: str | Path) -> BFile:
    """Read a b-file; raises ``BFileError`` with a line number on bad input.
    Values are ``int()`` literals of any length, read as exact ``Decimal``."""
    path = Path(path)
    entries: list[tuple[int, Decimal]] = []
    prev: int | None = None
    with path.open(encoding="utf-8") as fh, localcontext(EXACT):
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or not all(map(_INTEGER.fullmatch, parts)):
                shown = line if len(line) <= 80 else line[:77] + "..."
                raise BFileError(f"{path}:{lineno}: expected two integers "
                                 f"'index value', got {shown!r}")
            idx, val = int(Decimal(parts[0])), +Decimal(parts[1])  # + reads -0 as 0
            if prev is not None and idx <= prev:
                raise BFileError(
                    f"{path}:{lineno}: index {idx} not increasing (after {prev})")
            prev = idx
            entries.append((idx, val))
    return BFile(path.stem, tuple(entries))


@dataclass(frozen=True)
class SequenceSpec:
    """A checkable sequence: ``values(x, top)`` lists the values at the
    b-file indices min_index..top, as one sweep at x = ``point`` or, if
    that is None, ``--at`` (the odd-divisor count ignores x)."""

    key: str
    point: int | None
    min_index: int
    values: Callable[[Any, int], list]

    def point_at(self, at: int | None) -> int:
        """The sweep's x: the fixed ``point``, or ``at`` for a sequence
        without one; ``at`` is refused where it does not apply."""
        if self.point is None and at is None:
            raise ValueError(f"sequence {self.key!r} requires --at")
        if self.point is not None and at is not None:
            raise ValueError(f"--at does not apply to {self.key}")
        return self.point if at is None else at

    def sweep(self, at: int | None, top: int) -> list:
        """``values`` at ``point_at(at)`` in the decimal radix, refused if
        too long."""
        x = self.point_at(at)
        check_digits(value_digits(0, x, top - self.min_index + 1))
        with decimal_radix(x) as point:
            return self.values(point, top)


def _pg_sweep(x: Any, top: int) -> list:
    """G_1(x), ..., G_top(x) from one F-sweep."""
    return pg_values(fpoly_values(top, x))


SEQUENCES: dict[str, SequenceSpec] = {
    "pg3": SequenceSpec("pg3", 3, 1, _pg_sweep),
    "pg_eval": SequenceSpec("pg_eval", None, 1, _pg_sweep),
    "f_eval": SequenceSpec("f_eval", None, 0,
                           lambda x, top: fpoly_values(top + 1, x)),
    "sigma": SequenceSpec("sigma", 2, 1, _pg_sweep),
    "odd_div_count": SequenceSpec(
        "odd_div_count", 0, 1,
        lambda x, top: odd_divisor_counts(top)),
}


@dataclass
class SequenceCheckReport:
    """Outcome of comparing computed values against a b-file overlap."""

    sequence: str
    bfile_id: str
    compared: int
    mismatches: list[tuple[int, Decimal, Any]] = field(default_factory=list)
    # (index, value from b-file, computed value)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "sequence": self.sequence,
            "bfile": self.bfile_id,
            "compared": self.compared,
            "mismatches": [
                {"index": i, "expected": str(e), "computed": str(c)}
                for i, e, c in self.mismatches
            ],
        }


def check_sequence(key: str, bfile: BFile, at: int | None = None,
                   max_index: int | None = None) -> SequenceCheckReport:
    """Compare the named sequence against a b-file over the overlapping
    index range (up to ``max_index``); an empty overlap is refused."""
    spec = SEQUENCES[key]
    wanted = [(idx, val) for idx, val in bfile.entries
              if idx >= spec.min_index
              and (max_index is None or idx <= max_index)]
    if not wanted:
        span = (f">= {spec.min_index}" if max_index is None
                else f"in {spec.min_index}..{max_index}")
        raise ValueError(f"no b-file index {span}: nothing to compare")
    values = spec.sweep(at, wanted[-1][0])
    pairs = [(idx, val, values[idx - spec.min_index]) for idx, val in wanted]
    return SequenceCheckReport(key, bfile.sequence_id, len(wanted),
                               [p for p in pairs if p[1] != p[2]])


def emit_bfile(key: str, path: str | Path, at: int | None = None,
               max_index: int = 100) -> int:
    """Write computed values in b-file format (candidate reference data for
    sequences without one); returns the number of lines written."""
    spec = SEQUENCES[key]
    top = max(max_index, spec.min_index - 1)  # no lines below min_index
    values = spec.sweep(at, top)
    with open(path, "w", encoding="utf-8") as fh:  # line by line: no copy
        fh.writelines(f"{i} {v}\n" for i, v in enumerate(values, spec.min_index))
    return len(values)
