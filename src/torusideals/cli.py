"""Command-line front end: compute objects, reproduce the reference tables,
run verification sweeps, and cross-check sequences against OEIS b-files.

Exit codes: 0 full pass, 1 verification/comparison failure, 2 usage or I/O
error, or a size past a work limit.  Output is deterministic: stable
orderings, no timestamps, large integers always rendered as decimal strings.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from decimal import localcontext
from itertools import chain, islice

from . import chebfam, hilbert, zeta
from .divisors import a_coeffs, odd_divisor_terms
from .intpoly import decimal_strs, format_terms, term_str
from .oeis import SEQUENCES, check_sequence, emit_bfile
from .verify import DEFAULT_RANGES, SUITES, run_suites

TABLE_DEFAULTS = {"values": 16, "pg": 12, "tcheb": 12, "fpoly": 11, "decomp": 16}


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the ``pieces`` one after another to ``out`` or stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _csv_lines(rows: Iterable[list[str]]) -> Iterator[str]:
    """The CSV lines of ``rows``, one at a time, quoted as Python 3.11's
    ``csv.writer`` quotes them with the line terminator "\\n": a cell with a
    comma, a quote or a newline, and a row's only cell when it is empty."""
    for row in rows:
        yield ",".join('"' + c.replace('"', '""') + '"'
                       if "," in c or '"' in c or "\n" in c
                       or (not c and len(row) == 1) else c
                       for c in row) + "\n"


def _json_pieces(obj: object) -> Iterator[str]:
    """``json.dumps(obj, indent=2)`` plus a newline, in pieces."""
    yield from json.JSONEncoder(indent=2).iterencode(obj)
    yield "\n"


def _padded(widths: list[int], lines: Iterable[list[str]]) -> Iterator[str]:
    """The first of ``lines`` (the header), a line of dashes, then the
    rest, each cell padded to its column's width and each line
    ``rstrip``ped: the last column is padded too, so the dash line under
    it is as wide as its widest cell.  Lines go out one by one."""
    def fmt(cells: list[str]) -> str:
        return "  ".join(map(str.ljust, cells, widths)).rstrip() + "\n"
    lines = iter(lines)
    yield fmt(next(lines))
    yield fmt(["-" * w for w in widths])
    yield from map(fmt, lines)


def _text_table(headers: list[str], rows: Iterable[dict]) -> Iterator[str]:
    """The cells of ``rows`` under ``headers``, each column padded to its
    widest cell, with ``rows`` read once: as the widths are taken, each
    row's cells go, unpadded and tab-separated, to an anonymous spill
    file, and the padded lines are written from it, so no cell may hold a
    tab or a newline.  The spill is never larger than the table's own
    text."""
    import tempfile  # at module level it loads some 40 modules at start-up

    widths = list(map(len, headers))
    with tempfile.TemporaryFile("w+", encoding="utf-8") as spill:
        for r in rows:
            cells = [str(r[h]) for h in headers]
            widths = list(map(max, widths, map(len, cells)))
            spill.write("\t".join(cells) + "\n")
        spill.seek(0)
        yield from _padded(widths, chain(
            [headers], (line[:-1].split("\t") for line in spill)))


# -- compute --------------------------------------------------------------------

# each dense kind's coefficient stream, from X^0 up or, descending, from
# the top down; written as it comes, never held
_COEFFS = {
    "tcheb": chebfam.tcheb_coeffs,
    "fpoly": chebfam.fpoly_coeffs,
    "pg": hilbert.pg_coeffs,
}

# C_n and P_n are written from their coefficient runs, never densely
_RUNS = {"cn": hilbert.cn_runs, "pn": hilbert.pn_runs}

#: The most coefficients one written piece holds: a slice of F_25000's
#: coefficients, of up to 5223 digits each, stays under 1.5 MB
_PIECE = 1 << 8

# Coefficient digits of V_k, and of F_k and G_{k+1}, per k^2, in 40ths:
# V_3000 has 677,334 of them, F_3000 and G_3001 have 1,350,816
_DIGIT_RATE = {"tcheb": 3, "fpoly": 6, "pg": 6}


def _table_digits(which: str, max_n: int) -> int:
    """About how many coefficient digits ``table which --max-n max_n`` has:
    the ``_DIGIT_RATE`` summed, as 1^2 + ... + N^2 = N(N + 1)(2N + 1)/6."""
    return _DIGIT_RATE[which] * max_n * (max_n + 1) * (2 * max_n + 1) // 240


_VALUES = {
    "tcheb": chebfam.tcheb_value,
    "fpoly": chebfam.fpoly_value,
    "pg": hilbert.pg_eval_int,
    "cn": hilbert.cn_eval_int,
    "pn": hilbert.pn_eval_int,
}

# The first index of each kind, where it is not 1
_FIRST = {"tcheb": 0, "fpoly": 0}


def _record(kind: str, fields: dict, text: str, fmt: str) -> Iterable[str]:
    """A one-record answer: ``{"kind": kind, **fields}`` as JSON, the fields
    as a CSV header and row (a list field as its items joined by spaces),
    or the line ``text``."""
    if fmt == "json":
        return _json_pieces({"kind": kind, **fields})
    if fmt == "csv":
        return _csv_lines([list(fields), [
            " ".join(map(str, v)) if isinstance(v, list) else str(v)
            for v in fields.values()]])
    return [text + "\n"]


def _cmd_compute(args: argparse.Namespace) -> int:
    kind, n, fmt = args.object, args.n, args.format
    min_n = _FIRST.get(kind, 1)
    if n < min_n:
        print(f"error: --n must be >= {min_n} for {kind}", file=sys.stderr)
        return 2
    if kind == "zeta":
        if args.eval is not None:
            print("error: --eval does not apply to zeta", file=sys.stderr)
            return 2
        z = zeta.local_zeta_factors(n)
        _emit(_record(kind, z.to_json(), zeta.format_local_zeta(z), fmt),
              args.out)
        return 0

    if args.eval is not None:
        x = args.eval
        chebfam.check_digits(chebfam.value_digits(  # C_n(x) ~ x^2n ~ F_n(x^2)
            n - 1 if kind == "pg" else n, x * x if kind in ("cn", "pn") else x))
        with chebfam.decimal_radix(x) as point:
            value = _VALUES[kind](n, point)
        _emit(_record(kind, {"n": n, "eval_at": x, "value": str(value)},
                      str(value), fmt), args.out)
        return 0

    if kind in _RUNS:
        runs = _RUNS[kind](n)
        chebfam.check_digits(_run_chars(runs, fmt), "characters")
        text, fields = _text_run_pieces(runs), {"min_exp": 0}
        pieces = (([str(v)], k) for v, k in runs)
    else:
        chebfam.check_digits(_DIGIT_RATE[kind] * n * n // 40)
        # only the stream that is read is made
        text, fields, pieces = _terms(kind, n), {}, _coeff_pieces(kind, n)
    _emit(chain(text, ["\n"]) if fmt == "text" else
          _whole_polys(fmt, [({"kind": kind, "n": n, **fields}, pieces)]),
          args.out)
    return 0


def _terms(kind: str, n: int) -> Iterator[str]:
    """The text terms of the dense polynomial ``kind`` at index n, highest
    power first, from a fresh descending stream of ``_COEFFS``."""
    yield from format_terms(n - 1 if kind == "pg" else n,
                            _COEFFS[kind](n, True), "X")


def _coeff_pieces(kind: str, n: int) -> Iterator[tuple[list[str], int]]:
    """The coefficients of the dense polynomial ``kind`` at index n from
    X^0 up, as slices of at most ``_PIECE`` decimal strings, each made
    once, as the coefficients come."""
    cs = _COEFFS[kind](n)
    while chunk := list(islice(cs, _PIECE)):
        yield decimal_strs(chunk), 1


def _whole_polys(fmt: str,
                 rows: Iterable[tuple[dict, Iterable[tuple[list[str], int]]]],
                 table: str | None = None) -> Iterator[str]:
    """The one writer of whole polynomials, one (fields, pieces) row at a
    time: the CSV ``n,coeffs`` with one unquoted space-joined field, or the
    ``indent=2`` JSON ``{**fields, "coeffs": [...]}``, with ``table`` the
    rows of a ``_json_list``.  Each piece (decimal strings, count) is
    written ``count`` times over, at most ``_PIECE`` coefficients to a
    string: a dense slice is one join, a run one repeat."""
    depth = 0 if table is None else 2  # the nesting of a row's object
    if fmt == "json":
        pad = "\n" + "  " * (depth + 2)
        lead, glue, end = f'[{pad}"', f'",{pad}"', f'"{pad[:-2]}]'
    else:
        lead, glue, end = "", " ", ""

    def written(fields: dict,
                pieces: Iterable[tuple[list[str], int]]) -> Iterator[str]:
        if fmt == "json":
            head, tail = json.dumps({**fields, "coeffs": []}, indent=2).replace(
                "\n", "\n" + "  " * depth).rsplit("[]", 1)
        else:
            head, tail = f"{fields['n']},", "\n"
        yield head
        before = lead
        for strs, count in pieces:
            for done in range(0, count, _PIECE):
                yield (before + glue.join(strs)
                       + (glue + strs[-1]) * (min(_PIECE, count - done) - 1))
                before = glue
        yield end + tail

    each = (written(fields, pieces) for fields, pieces in rows)
    if fmt != "json":
        return chain(["n,coeffs\n"], chain.from_iterable(each))
    if table is None:
        return chain(chain.from_iterable(each), ["\n"])
    return _json_list({"table": table}, "rows", each)


def _json_list(fields: dict, key: str,
               items: Iterable[Iterable[str]]) -> Iterator[str]:
    """``json.dumps({**fields, key: [...]}, indent=2)`` plus a newline, one
    item at a time, the list last: each item is the pieces of its value as
    ``json.dumps`` indents it two levels deep."""
    head, tail = json.dumps({**fields, key: []}, indent=2).rsplit("[]", 1)
    yield head
    sep, end = "[\n    ", "[]"
    for pieces in items:
        yield sep
        yield from pieces
        sep, end = ",\n    ", "\n  ]"
    yield end + tail + "\n"


def _run_chars(runs: list[tuple[int, int]], fmt: str) -> int:
    """At most how many characters the runs, lowest term q^0, print as in
    ``fmt``: each coefficient's JSON or CSV item, or each nonzero term as
    wide as the widest of its run."""
    size = top = 0
    for v, k in runs:
        top += k
        if fmt != "text":
            size += k * (len(str(v)) + (8 if fmt == "json" else 1))
        elif v:
            size += k * len(term_str(v, top - 1, "q", False))
    return size


def _text_run_pieces(runs: list[tuple[int, int]]) -> Iterator[str]:
    """``format_laurent`` of the runs, highest exponent first: the terms of
    a run past q^1 are one join over their exponents, with the repeated
    prefix (sign, c*, q^) taken from ``term_str``."""
    top = sum(k for _, k in runs)  # one past the highest exponent
    first = True
    for v, k in reversed(runs):
        hi, top = top - 1, top - k  # the run covers exponents top..hi
        if not v:
            continue
        if first:
            yield term_str(v, hi, "q", True)
            hi, first = hi - 1, False
        prefix = term_str(v, 2, "q", False).removesuffix("2")
        low = max(top, 2)
        for start in range(hi, low - 1, -_PIECE):
            yield prefix + prefix.join(
                map(str, range(start, max(start - _PIECE, low - 1), -1)))
        for e in (1, 0):
            if top <= e <= hi:
                yield term_str(v, e, "q", False)


# -- table ----------------------------------------------------------------------

_REL_LABEL = {0: "equal", 1: "off_by_one"}


def values_rows(max_n: int, points: list[int]) -> Iterator[dict]:
    """Paired exact values of the ideal-count and running-sum families at
    each point, with the equal / off-by-one / other relation: rows keyed
    ``n``, every ``pg_x``, every ``f_x``, every ``rel_x``, computed once,
    one block of ``hilbert.pg_blocks`` at a time.  A repeated point, and a
    sweep past the digit or term limit, are refused here, before any
    row."""
    repeats = [x for x, k in Counter(points).items() if k > 1]
    if repeats:
        raise ValueError(f"--N repeats the point {repeats[0]}")
    chebfam.check_digits(sum(2 * chebfam.value_digits(0, x, max_n)
                             for x in points))
    chebfam.check_terms(max_n * len(points))
    keys = ["n", *(f"{c}_{x}" for c in ("pg", "f", "rel") for x in points)]

    def rows() -> Iterator[dict]:  # each key string made once, for every row
        start = 1
        for swept in zip(*(hilbert.pg_blocks(max_n, x) for x in points)):
            with localcontext(chebfam.EXACT):
                rels = [[_REL_LABEL.get(abs(g - f), "other")
                         for g, f in zip(gs, fs)] for fs, gs in swept]
            stop = start + len(rels[0])
            yield from (dict(zip(keys, row)) for row in zip(
                range(start, stop), *(gs for _, gs in swept),
                *(fs for fs, _ in swept), *rels))
            start = stop
    return rows()


def tsum_string(n: int) -> str:
    """The interval-count combination, constants folded: an even constant
    2m renders as m*T0 (T0 = 2), an odd one keeps a bare 1."""
    parts = []
    a0, *rest = a_coeffs(n)
    if a0 % 2:
        parts.append("1")
    if a0 // 2:
        parts.append("T0" if a0 // 2 == 1 else f"{a0 // 2}*T0")
    for i, ai in enumerate(rest, 1):
        if ai:
            parts.append(f"T{i}" if ai == 1 else f"{ai}*T{i}")
    return " + ".join(parts)


def fdecomp_string(n: int) -> str:
    """The odd-divisor decomposition as a signed F-sum, highest index first,
    e.g. 'F14 - F6 + F3 + F0'."""
    terms = sorted(odd_divisor_terms(n), key=lambda t: -t.f_index)
    parts = []
    for t in terms:
        if not parts:
            parts.append(("-" if t.sign < 0 else "") + f"F{t.f_index}")
        else:
            parts.append(("- " if t.sign < 0 else "+ ") + f"F{t.f_index}")
    return " ".join(parts)


def _cell_table(which: str, headers: list[str], rows: Iterable[dict],
                fmt: str) -> Iterable[str]:
    """The rows, one row dict at a time, each read once: as the JSON
    ``_json_list`` of ``which``, each row with ``n`` a number and every
    other cell its string, or as the ``headers`` cells, in CSV or padded
    text."""
    if fmt == "json":  # json.dumps(row, indent=2), two levels deep
        return _json_list({"table": which}, "rows", (
            ["{\n      " + ",\n      ".join(
                f"{json.dumps(k)}: {v if k == 'n' else json.dumps(str(v))}"
                for k, v in r.items()) + "\n    }"] for r in rows))
    if fmt == "csv":
        return _csv_lines(chain([headers], (
            [str(r[h]) for h in headers] for r in rows)))
    return _text_table(headers, rows)


def _points(text: str) -> list[int]:
    """The evaluation points of ``--N``, refused with the flag named."""
    points = []
    for p in text.split(","):
        try:
            points.append(int(p))
        except ValueError:
            raise ValueError(f"--N takes comma-separated integers, "
                             f"got {p!r}") from None
    return points


def _cmd_table(args: argparse.Namespace) -> int:
    which = args.which
    max_n = args.max_n if args.max_n is not None else TABLE_DEFAULTS[which]
    if max_n < _FIRST.get(which, 1):
        print("error: --max-n out of range", file=sys.stderr)
        return 2

    if which == "values":
        points = _points(args.points)
        headers = ["n", *(f"{c}_{x}" for x in points
                          for c in ("pg", "f", "rel"))]
        _emit(_cell_table(which, headers, values_rows(max_n, points),
                          args.format), args.out)
        return 0

    if which == "decomp":
        # characters per n^2: the csv and json have about 3 (194,223,598 at
        # n = 8000); the text pads the tsum column to its widest cell, 8.35
        # at n = 4000
        chebfam.check_digits((9 if args.format == "text" else 3)
                             * max_n * max_n, "characters")
        rows = ({"n": n, "tsum": tsum_string(n), "fdecomp": fdecomp_string(n)}
                for n in range(1, max_n + 1))
        _emit(_cell_table(which, ["n", "tsum", "fdecomp"], rows, args.format),
              args.out)
        return 0

    # polynomial tables
    ns = range(_FIRST.get(which, 1), max_n + 1)
    chebfam.check_digits(_table_digits(which, max_n))
    if args.format == "text":
        # No row's text is longer than the next row's, so the last row's
        # is the column width and no row is spilled: for V_k and F_k each
        # term maps to a term of the next row that is no shorter, and G_n,
        # F_{n-1} plus F-terms of lower index, is checked at every n the
        # digit guard admits (tests/test_cli.py)
        widths = [len(str(max_n)),
                  max(len(which), sum(map(len, _terms(which, max_n))))]
        _emit(_padded(widths, chain([["n", which]], (
            [str(n), "".join(_terms(which, n))] for n in ns))), args.out)
    else:
        rows = (({"n": n}, _coeff_pieces(which, n)) for n in ns)
        _emit(_whole_polys(args.format, rows, which), args.out)
    return 0


# -- verify -----------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n is not None and args.max_n < 1:
        print("error: --max-n must be >= 1", file=sys.stderr)
        return 2
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.max_n)
    if args.format == "json":
        _emit(_json_pieces([r.to_json() for r in reports]), args.out)
    elif args.format == "csv":
        _emit(_cell_table("verify", ["suite", "max_n", "passed", "failed"],
                          [r.to_json() for r in reports], "csv"), args.out)
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.ok else "FAIL"
            lines.append(f"suite {r.suite}: n <= {r.max_n}: "
                         f"{r.passed} checks passed, {r.failed} failed: {status}")
            for f in r.failures[:20]:
                lines.append("  {case}: expected {expected}, got {actual}"
                             .format(**f))
            if len(r.failures) > 20:
                lines.append(f"  ... and {len(r.failures) - 20} more")
        _emit((line + "\n" for line in lines), args.out)
    return 0 if all(r.ok for r in reports) else 1


# -- oeis-check --------------------------------------------------------------------

def _cmd_oeis_check(args: argparse.Namespace) -> int:
    SEQUENCES[args.sequence].point_at(args.at)  # refused before any write
    if args.emit:
        count = emit_bfile(args.sequence, args.emit, at=args.at,
                           max_index=100 if args.max_n is None else args.max_n)
        # text keeps the notice on stdout; json and csv keep stdout parseable
        print(f"wrote {count} terms to {args.emit}",
              file=sys.stdout if args.format == "text" else sys.stderr)
        if args.bfile is None:
            return 0
    if args.bfile is None:
        print("error: provide a b-file to check against, or --emit",
              file=sys.stderr)
        return 2
    report = check_sequence(args.sequence, args.bfile, at=args.at,
                            max_index=args.max_n)
    shown = list(islice(report.mismatches, 20))  # the rest not held
    if args.format == "json":  # every mismatch, written as it is found
        _emit(_json_list(report.to_json(), "mismatches", (
            [f'{{\n      "index": {idx},\n      "expected": '
             f'{json.dumps(str(expected))},\n      "computed": '
             f'{json.dumps(str(computed))}\n    }}']
            for idx, expected, computed in chain(shown, report.mismatches))),
            args.out)
        return 1 if shown else 0
    mismatched = len(shown) + sum(1 for _ in report.mismatches)
    if args.format == "csv":
        row = {**report.to_json(), "mismatches": mismatched}
        _emit(_cell_table("oeis", ["sequence", "bfile", "compared",
                                   "mismatches"], [row], "csv"), args.out)
    else:
        status = "FAIL" if mismatched else "PASS"
        lines = [f"{report.sequence} vs {report.bfile_id}: "
                 f"{report.compared} terms compared, "
                 f"{mismatched} mismatches: {status}"]
        for idx, expected, computed in shown:
            lines.append(f"  index {idx}: b-file {expected}, computed {computed}")
        _emit((line + "\n" for line in lines), args.out)
    return 1 if shown else 0


# -- argument parsing ----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    common.add_argument("--out", metavar="FILE",
                        help="write output to FILE instead of stdout")

    parser = argparse.ArgumentParser(
        prog="torusideals",
        description="Exact ideal-count polynomials of the two-variable "
                    "Laurent torus algebra, with verification sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[common],
                       help="compute one polynomial or factorization")
    p.add_argument("object", choices=(*_VALUES, "zeta"))
    p.add_argument("--n", type=int, required=True, help="index n (or k)")
    p.add_argument("--eval", type=int, default=None, metavar="X",
                   help="evaluate at the integer X instead of printing "
                        "coefficients")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("table", parents=[common],
                       help="reproduce a reference table")
    p.add_argument("which", choices=tuple(TABLE_DEFAULTS))
    p.add_argument("--max-n", type=int, default=None,
                   help="last row (defaults to the reference range)")
    p.add_argument("--N", dest="points", default="3,4,5",
                   help="comma-separated evaluation points for 'values'")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify", parents=[common],
                       help="run identity verification sweeps")
    p.add_argument("suite", choices=("all",) + tuple(SUITES),
                   help="which sweep to run")
    p.add_argument("--max-n", type=int, default=None,
                   help=f"range bound (defaults: {DEFAULT_RANGES})")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oeis-check", parents=[common],
                       help="compare a computed sequence against an OEIS "
                            "b-file")
    p.add_argument("sequence", choices=tuple(SEQUENCES))
    p.add_argument("bfile", nargs="?", default=None,
                   help="path to the b-file (omit with --emit to only "
                        "write a candidate file)")
    p.add_argument("--at", type=int, default=None,
                   help="evaluation point for pg_eval / f_eval")
    p.add_argument("--max-n", type=int, default=None,
                   help="highest index to compare or emit")
    p.add_argument("--emit", metavar="FILE", default=None,
                   help="write the computed sequence in b-file format")
    p.set_defaults(fn=_cmd_oeis_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse fills the optional b-file positional together with the
    # sequence, so a b-file given after an option comes back unparsed
    if (args.command == "oeis-check" and args.bfile is None and extra
            and not extra[0].startswith("-")):
        args.bfile = extra.pop(0)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # BFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller size", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
