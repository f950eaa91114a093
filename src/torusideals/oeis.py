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
reference data.  b-file values are exact ``Decimal``s, and so are sweeps
at |x| > 2 (small ints at |x| <= 2): linear time for values of any length.
Neither a b-file nor a sweep nor the list of mismatches is held whole:
they are read a line or a block at a time (``hilbert.pg_blocks``) and the
mismatches found as they are read, and a sweep is refused before its
first value past ``chebfam.MAX_DIGITS`` digits or ``chebfam.MAX_TERMS``
terms.
"""
from __future__ import annotations

import os
import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from decimal import Decimal
from itertools import chain, islice

from .chebfam import check_digits, check_terms, value_digits
from .divisors import odd_divisor_counts
from .hilbert import fpoly_blocks, pg_blocks

_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")  # an int() literal, unspaced
_ZERO = Decimal(0)  # what a b-file's -0 reads as


class BFileError(ValueError):
    """Malformed b-file; message carries the offending line number."""


def parse_bfile(path: str | os.PathLike) -> Iterator[tuple[int, Decimal]]:
    """The (index, value) entries of a b-file, read a line at a time;
    raises ``BFileError`` with a line number on a bad line, as it is
    reached.  Values are ``int()`` literals of any length, read as exact
    ``Decimal``."""
    prev: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or not all(map(_INTEGER.fullmatch, parts)):
                shown = line if len(line) <= 80 else line[:77] + "..."
                raise BFileError(f"{path}:{lineno}: expected two integers "
                                 f"'index value', got {shown!r}")
            idx, val = int(Decimal(parts[0])), Decimal(parts[1]) or _ZERO
            if prev is not None and idx <= prev:
                raise BFileError(
                    f"{path}:{lineno}: index {idx} not increasing (after {prev})")
            prev = idx
            yield idx, val


class SequenceSpec(namedtuple("SequenceSpec", "key point min_index values")):
    """A checkable sequence: ``values(x, top)`` gives the values at the
    b-file indices min_index..top, in order, as one sweep at x = ``point``
    or, if that is None, ``--at`` (the odd-divisor count ignores x)."""

    __slots__ = ()
    key: str
    point: int | None
    min_index: int
    values: Callable[[int, int], Iterable]

    def point_at(self, at: int | None) -> int:
        """The sweep's x: the fixed ``point``, or ``at`` for a sequence
        without one; ``at`` is refused where it does not apply."""
        if self.point is None and at is None:
            raise ValueError(f"sequence {self.key!r} requires --at")
        if self.point is not None and at is not None:
            raise ValueError(f"--at does not apply to {self.key}")
        return self.point if at is None else at

    def sweep(self, at: int | None, top: int) -> Iterator:
        """``values`` at ``point_at(at)``, refused at once if too long;
        computed one block at a time as they are read."""
        x = self.point_at(at)
        count = top - self.min_index + 1
        check_digits(value_digits(0, x, count))
        check_terms(count)
        return iter(self.values(x, top))


def _pg_sweep(x: int, top: int) -> Iterator:
    """G_1(x), ..., G_top(x)."""
    return chain.from_iterable(gs for _, gs in pg_blocks(top, x))


def _f_sweep(x: int, top: int) -> Iterator:
    """F_0(x), ..., F_top(x)."""
    return chain.from_iterable(fpoly_blocks(top + 1, x))


SEQUENCES: dict[str, SequenceSpec] = {
    "pg3": SequenceSpec("pg3", 3, 1, _pg_sweep),
    "pg_eval": SequenceSpec("pg_eval", None, 1, _pg_sweep),
    "f_eval": SequenceSpec("f_eval", None, 0, _f_sweep),
    "sigma": SequenceSpec("sigma", 2, 1, _pg_sweep),
    "odd_div_count": SequenceSpec(
        "odd_div_count", 0, 1, lambda x, top: odd_divisor_counts(top)),
}


class SequenceCheckReport(namedtuple("SequenceCheckReport",
                                     "sequence bfile_id compared mismatches")):
    """A comparison of computed values with a b-file overlap: ``compared``
    from the first read of the file, and ``mismatches``, the (index,
    b-file value, computed value) triples that differ, found by the sweep
    and the second read as they are iterated, once; none is held."""

    __slots__ = ()
    sequence: str
    bfile_id: str
    compared: int
    mismatches: Iterator[tuple[int, Decimal, object]]

    def to_json(self) -> dict:
        """The fields that precede the mismatches in the JSON report."""
        return {"sequence": self.sequence, "bfile": self.bfile_id,
                "compared": self.compared}


def check_sequence(key: str, path: str | os.PathLike, at: int | None = None,
                   max_index: int | None = None) -> SequenceCheckReport:
    """Compare the named sequence against the b-file at ``path`` over the
    overlapping index range (up to ``max_index``); an empty overlap, and a
    sweep past the limits, are refused here.  The file is read twice: once
    now, to validate it and find the last index of the overlap, which
    sizes the sweep, and once as the report's mismatches are iterated, to
    compare its entries with the sweep's values as they come."""
    spec = SEQUENCES[key]

    def wanted(entries: Iterable[tuple[int, Decimal]]) -> Iterator:
        return ((idx, val) for idx, val in entries if idx >= spec.min_index
                and (max_index is None or idx <= max_index))

    compared = top = 0
    for top, _ in wanted(parse_bfile(path)):
        compared += 1
    if not compared:
        span = (f">= {spec.min_index}" if max_index is None
                else f"in {spec.min_index}..{max_index}")
        raise ValueError(f"no b-file index {span}: nothing to compare")
    values = spec.sweep(at, top)

    def mismatches() -> Iterator[tuple[int, Decimal, object]]:
        at_index = spec.min_index
        for idx, val in wanted(parse_bfile(path)):
            computed = next(islice(values, idx - at_index, None))
            at_index = idx + 1
            if val != computed:
                yield idx, val, computed
            if idx == top:  # the rest was validated by the first read
                break

    stem = os.path.splitext(os.path.basename(path))[0]
    return SequenceCheckReport(key, stem, compared, mismatches())


def emit_bfile(key: str, path: str | os.PathLike, at: int | None = None, *,
               max_index: int) -> int:
    """Write computed values in b-file format (candidate reference data for
    sequences without one), one line at a time as the sweep's blocks come;
    returns the number of lines written."""
    spec = SEQUENCES[key]
    top = max(max_index, spec.min_index - 1)  # no lines below min_index
    values = spec.sweep(at, top)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i} {v}\n" for i, v in enumerate(values, spec.min_index))
    return top - spec.min_index + 1
