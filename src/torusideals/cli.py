"""Command-line front end: compute objects, reproduce the reference tables,
run verification sweeps, and cross-check sequences against OEIS b-files.

Exit codes: 0 full pass, 1 verification/comparison failure, 2 usage or I/O
error, or a size past a work limit.  Output is deterministic: stable
orderings, no timestamps, large integers always rendered as decimal strings.
Each ``_cmd_*`` handler returns its exit code and answer (None for none) or
raises ``ValueError``; ``main`` is the one place that writes either, but
for the notice of ``oeis-check --emit``, which ``_cmd_oeis_check`` prints
itself: to stdout as text, to stderr for json and csv.
"""
from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Iterator
from decimal import localcontext
from itertools import chain, islice, zip_longest
from types import SimpleNamespace

from . import chebfam, hilbert, zeta
from .divisors import a_coeffs, odd_divisor_terms
from .intpoly import decimal_strs, format_terms, spell_terms, sum_text
from .oeis import SEQUENCES, check_sequence, emit_bfile, write_file
from .verify import DEFAULT_RANGES, SUITES, run_suites

TABLE_DEFAULTS = {"values": 16, "pg": 12, "tcheb": 12, "fpoly": 11, "decomp": 16}


def _csv_lines(rows: Iterable[list[str]]) -> Iterator[str]:
    """The CSV lines of ``rows``, one at a time, quoted as Python 3.11's
    ``csv.writer`` quotes them with the line terminator "\\n": a cell with a
    comma, a quote or a newline, and a row's only cell when it is empty.

    >>> list(_csv_lines([["n", "1, 2"], [""]]))
    ['n,"1, 2"\\n', '""\\n']
    """
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
    rest, each cell but the last padded to its column's width and each
    line ``rstrip``ped, so the dash line under the last column is as wide
    as its widest cell.  Lines go out one by one."""
    def fmt(cells: list[str]) -> str:
        *head, last = cells
        return "  ".join([*map(str.ljust, head, widths), last]).rstrip() + "\n"
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
    import tempfile  # not at start-up (see oeis.write_file)

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


# each dense kind's value at a point; C_n and P_n's come from their runs
_VALUES = {
    "tcheb": chebfam.tcheb_value,
    "fpoly": chebfam.fpoly_value,
    "pg": hilbert.pg_eval_int,
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


def _cmd_compute(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    kind, n, fmt = args.object, args.n, args.format
    min_n = _FIRST.get(kind, 1)
    if n < min_n:
        raise ValueError(f"--n must be >= {min_n} for {kind}")
    if kind == "zeta":
        if args.eval is not None:
            raise ValueError("--eval does not apply to zeta")
        z = zeta.local_zeta_factors(n)
        return 0, _record(kind, z.to_json(), zeta.format_local_zeta(z), fmt)

    if args.eval is not None:
        x = args.eval
        chebfam.check_digits(chebfam.value_digits(  # C_n(x) ~ x^2n ~ F_n(x^2)
            n - 1 if kind == "pg" else n, x * x if kind in _RUNS else x))
        with chebfam.decimal_radix(x) as point:
            value = (hilbert.eval_runs(_RUNS[kind](n), point) if kind in _RUNS
                     else _VALUES[kind](n, point))
        return 0, _record(kind, {"n": n, "eval_at": x, "value": str(value)},
                          str(value), fmt)

    if kind in _RUNS:
        runs = _RUNS[kind](n)
        chebfam.check_digits(_run_chars(runs, fmt), "characters")
        text, fields = _text_run_pieces(runs), {"min_exp": 0}
        pieces = (([str(v)], k) for v, k in runs)
    else:
        chebfam.check_digits(_DIGIT_RATE[kind] * n * n // 40)
        # only the stream that is read is made
        text, fields, pieces = _terms(kind, n), {}, _coeff_pieces(kind, n)
    return 0, (chain(text, ["\n"]) if fmt == "text" else
               _whole_polys(fmt, [({"kind": kind, "n": n, **fields}, pieces)]))


def _terms(kind: str, n: int) -> Iterator[str]:
    """The text terms of the dense polynomial ``kind`` at index n, highest
    power first, from a fresh descending stream of ``_COEFFS``."""
    yield from format_terms(n - 1 if kind == "pg" else n,
                            _COEFFS[kind](n, True), "X")


def _fpoly_texts(max_n: int) -> Iterator[str]:
    """The texts of F_0, ..., F_max_n one by one.  F_k = U_k + U_{k-1},
    and the run of U_k (``chebfam.ucheb_run``) sits at the same powers in
    F_k and F_{k+1}; so each run's terms are rendered once, for two rows,
    and only the previous run is kept."""
    lo: list[str] = []  # U_{-1} = 0
    for k in range(max_n + 1):
        hi = spell_terms(list(chebfam.ucheb_run(k, True)), k, 2, "X")
        # U_k leads with X^k, then the powers alternate between the runs
        yield "".join(sum_text(chain.from_iterable(
            zip_longest(hi, lo, fillvalue=""))))
        lo = hi


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
            size += k * len(spell_terms((v,), top - 1, 1, "q")[0])
    return size


def _text_run_pieces(runs: list[tuple[int, int]]) -> Iterator[str]:
    """``str()`` of the runs as a ``LaurentPoly``, highest exponent first:
    the terms of a run past q^1 are one join over their exponents, with the
    repeated prefix (sign, c*, q^) taken from ``spell_terms``."""
    def pieces() -> Iterator[str]:
        top = sum(k for _, k in runs)  # one past the highest exponent
        for v, k in reversed(runs):
            hi, top = top - 1, top - k  # the run covers exponents top..hi
            if not v:
                continue
            prefix = spell_terms((v,), 2, 1, "q")[0].removesuffix("2")
            low = max(top, 2)
            for start in range(hi, low - 1, -_PIECE):
                yield prefix + prefix.join(
                    map(str, range(start, max(start - _PIECE, low - 1), -1)))
            for e in (1, 0):
                if top <= e <= hi:
                    yield spell_terms((v,), e, 1, "q")[0]
    return sum_text(pieces())


# -- table ----------------------------------------------------------------------

_REL_LABEL = {0: "equal", 1: "off_by_one"}


def values_rows(max_n: int, points: list[int]) -> Iterator[dict]:
    """Paired exact values of the ideal-count and running-sum families at
    each point, with the equal / off-by-one / other relation: rows keyed
    ``n``, every ``pg_x``, every ``f_x``, every ``rel_x``, computed once,
    one block of ``hilbert.pg_blocks`` at a time.  A repeated point, and a
    sweep past the digit or term limit, are refused here, before any
    row."""
    counts: dict[int, int] = {}
    for x in points:
        counts[x] = counts.get(x, 0) + 1
    repeats = [x for x, k in counts.items() if k > 1]
    if repeats:
        raise ValueError(f"--N repeats the point {repeats[0]}")
    chebfam.check_sweep(sum(2 * chebfam.value_digits(0, x, max_n)
                            for x in points), max_n * len(points))
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
    cs = a_coeffs(n)
    odd, cs[0] = cs[0] % 2, cs[0] // 2
    return " + ".join(["1"] * odd + [f"T{i}" if a == 1 else f"{a}*T{i}"
                                     for i, a in enumerate(cs) if a])


def fdecomp_string(n: int) -> str:
    """The odd-divisor decomposition as a signed F-sum, highest index first,
    e.g. 'F14 - F6 + F3 + F0'."""
    return "".join(sum_text(
        f" {'-' if t.sign < 0 else '+'} F{t.f_index}" for t in
        sorted(odd_divisor_terms(n), key=lambda t: -t.f_index)))


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


def _cmd_table(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    which = args.which
    max_n = args.max_n if args.max_n is not None else TABLE_DEFAULTS[which]
    if max_n < _FIRST.get(which, 1):
        raise ValueError("--max-n out of range")

    if which == "values":
        points = _points(args.points)
        headers = ["n", *(f"{c}_{x}" for x in points
                          for c in ("pg", "f", "rel"))]
        return 0, _cell_table(which, headers, values_rows(max_n, points),
                              args.format)

    if which == "decomp":
        # characters per n^2: the csv and json have about 3 (194,223,598 at
        # n = 8000); the text pads the tsum column to its widest cell, 8.35
        # at n = 4000
        chebfam.check_digits((9 if args.format == "text" else 3)
                             * max_n * max_n, "characters")
        rows = ({"n": n, "tsum": tsum_string(n), "fdecomp": fdecomp_string(n)}
                for n in range(1, max_n + 1))
        return 0, _cell_table(which, ["n", "tsum", "fdecomp"], rows,
                              args.format)

    # polynomial tables
    ns = range(_FIRST.get(which, 1), max_n + 1)
    chebfam.check_digits(_table_digits(which, max_n))
    if args.format == "text":
        # No row's text is longer than the next row's, so the last row's
        # is the column width and no row is spilled: for V_k and F_k each
        # term maps to a term of the next row that is no shorter, and G_n,
        # F_{n-1} plus F-terms of lower index, is checked at every n the
        # digit guard admits (tests/test_cli.py)
        last = sum(map(len, _terms(which, max_n)))
        texts = (_fpoly_texts(max_n) if which == "fpoly" else
                 ("".join(_terms(which, n)) for n in ns))
        widths = [len(str(max_n)), max(len(which), last)]
        return 0, _padded(widths, chain([["n", which]], (
            [str(n), text] for n, text in zip(ns, texts))))
    rows = (({"n": n}, _coeff_pieces(which, n)) for n in ns)
    return 0, _whole_polys(args.format, rows, which)


# -- verify -----------------------------------------------------------------------

def _cmd_verify(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.max_n)
    rows = [r.to_json() for r in reports]
    code = 0 if all(r.ok for r in reports) else 1
    if args.format == "json":
        return code, _json_pieces(rows)
    if args.format == "csv":
        return code, _cell_table("verify", ["suite", "max_n", "passed",
                                            "failed"], rows, "csv")
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
    return code, (line + "\n" for line in lines)


# -- oeis-check --------------------------------------------------------------------

def _cmd_oeis_check(args: SimpleNamespace) -> tuple[int, Iterable | None]:
    SEQUENCES[args.sequence].point_at(args.at)  # refused before any write
    if args.bfile is None and not args.emit:
        raise ValueError("provide a b-file to check against, or --emit")
    if args.emit:
        count = emit_bfile(args.sequence, args.emit, at=args.at,
                           max_index=100 if args.max_n is None else args.max_n)
        # text keeps the notice on stdout; json and csv keep stdout parseable
        print(f"wrote {count} terms to {args.emit}",
              file=sys.stdout if args.format == "text" else sys.stderr)
        if args.bfile is None:
            return 0, None
    report = check_sequence(args.sequence, args.bfile, at=args.at,
                            max_index=args.max_n)
    shown = list(islice(report.mismatches, 20))  # the rest not held
    code = 1 if shown else 0
    if args.format == "json":  # every mismatch, written as it is found
        return code, _json_list(report.to_json(), "mismatches", (
            [f'{{\n      "index": {idx},\n      "expected": '
             f'{json.dumps(str(expected))},\n      "computed": '
             f'{json.dumps(str(computed))}\n    }}']
            for idx, expected, computed in chain(shown, report.mismatches)))
    mismatched = len(shown) + sum(1 for _ in report.mismatches)
    lines = [f"{report.sequence} vs {report.bfile_id}: {report.compared} "
             f"terms compared, {mismatched} mismatches: "
             f"{'FAIL' if mismatched else 'PASS'}",
             *(f"  index {idx}: b-file {expected}, computed {computed}"
               for idx, expected, computed in shown)]
    fields = {**report.to_json(), "mismatches": mismatched}
    return code, _record("oeis", fields, "\n".join(lines), args.format)


# -- argument parsing ----------------------------------------------------------------

# The grammar of the four commands, read by both parsers: each command's
# help, handler and arguments, every argument a positional's or an
# option's name and the keywords of argparse's ``add_argument``
_COMMON = (("--format", {"choices": ("text", "json", "csv"), "default": "text",
                         "help": "output format"}),
           ("--out", {"metavar": "FILE",
                      "help": "write output to FILE instead of stdout"}))
_GRAMMAR = {
    "compute": ("compute one polynomial or factorization", _cmd_compute, (
        *_COMMON,
        ("object", {"choices": (*_VALUES, *_RUNS, "zeta")}),
        ("--n", {"type": int, "required": True, "help": "index n (or k)"}),
        ("--eval", {"type": int, "metavar": "X",
                    "help": "evaluate at the integer X instead of printing "
                            "coefficients"}))),
    "table": ("reproduce a reference table", _cmd_table, (
        *_COMMON,
        ("which", {"choices": tuple(TABLE_DEFAULTS)}),
        ("--max-n", {"type": int,
                     "help": "last row (defaults to the reference range)"}),
        ("--N", {"dest": "points", "default": "3,4,5",
                 "help": "comma-separated evaluation points for 'values'"}))),
    "verify": ("run identity verification sweeps", _cmd_verify, (
        *_COMMON,
        ("suite", {"choices": ("all",) + tuple(SUITES),
                   "help": "which sweep to run"}),
        ("--max-n", {"type": int,
                     "help": f"range bound (defaults: {DEFAULT_RANGES})"}))),
    "oeis-check": ("compare a computed sequence against an OEIS b-file",
                   _cmd_oeis_check, (
        *_COMMON,
        ("sequence", {"choices": tuple(SEQUENCES)}),
        ("bfile", {"nargs": "?", "help": "path to the b-file (omit with "
                   "--emit to only write a candidate file)"}),
        ("--at", {"type": int,
                  "help": "evaluation point for pg_eval / f_eval"}),
        ("--max-n", {"type": int,
                     "help": "highest index to compare or emit"}),
        ("--emit", {"metavar": "FILE",
                    "help": "write the computed sequence in b-file format"}))),
}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that ``_argparse_args`` makes of a well-formed command
    line, or None for any other.  Well-formed: the command, then its
    positionals and options, each option named in full, as ``--opt
    value`` or ``--opt=value``; no positional starts with "-", nor a
    value after a space unless it is a negative integer.  So help, usage
    errors, abbreviations and "--" are all left to argparse."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, fn, grammar = _GRAMMAR[argv[0]]
    options = {name: (kw.get("dest", name[2:].replace("-", "_")), kw)
               for name, kw in grammar if name[0] == "-"}
    args = {"command": argv[0], "fn": fn,
            **{dest: kw.get("default") for dest, kw in options.values()}}
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            return None
        dest, kw = options[name]
        if not eq:
            value = next(tokens, "-")
            if value[:1] == "-" and not value[1:].isdecimal():
                return None  # argparse reads it as an option
        try:
            args[dest] = value = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
    for name, kw in grammar:
        if name[0] != "-":  # one left out is None, in no choices
            args[name] = value = given.pop(0) if given else None
            if value not in kw.get("choices", (value,)):
                return None
    if given or any(kw.get("required") and args[dest] is None
                    for dest, kw in options.values()):
        return None
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser of ``_GRAMMAR``."""
    import argparse  # not imported by the command lines that _parse reads

    parser = argparse.ArgumentParser(
        prog="torusideals",
        description="Exact ideal-count polynomials of the two-variable "
                    "Laurent torus algebra, with verification sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, fn, grammar) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_)
        for name, kw in grammar:
            p.add_argument(name, **kw)
        p.set_defaults(fn=fn)
    return parser


def _argparse_args(argv: list[str]) -> SimpleNamespace:
    """What argparse makes of ``argv``; it exits on ``-h`` and on a usage
    error, with its message."""
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse fills the optional b-file positional together with the
    # sequence, so a b-file given after an option comes back unparsed
    if (args.command == "oeis-check" and args.bfile is None and extra
            and not extra[0].startswith("-")):
        args.bfile = extra.pop(0)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(**vars(args))


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv) or _argparse_args(argv)
    try:
        code, pieces = args.fn(args)
        if pieces is not None and args.out:
            write_file(pieces, args.out)
        elif pieces is not None:
            sys.stdout.writelines(pieces)
        return code
    except (OSError, ValueError) as exc:  # BFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller size", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
