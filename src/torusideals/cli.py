"""Command-line front end: compute objects, reproduce the reference tables,
run verification sweeps, and cross-check sequences against OEIS b-files.

Exit codes: 0 full pass, 1 verification/comparison failure, 2 usage or I/O
error, or a size past a work limit.  Output is deterministic: stable
orderings, no timestamps, large integers always rendered as decimal strings.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from collections.abc import Iterable, Iterator

from . import chebfam, hilbert, zeta
from .divisors import a_coeffs, odd_divisor_terms
from .intpoly import decimal_strs, intpoly_to_json, term_str
from .oeis import SEQUENCES, check_sequence, emit_bfile, parse_bfile
from .verify import DEFAULT_RANGES, SUITES, run_suites

TABLE_DEFAULTS = {"values": 16, "pg": 12, "tcheb": 12, "fpoly": 11, "decomp": 16}


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, or its pieces one after another, to ``out`` or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _csv_lines(rows: Iterable[list[str]]) -> Iterator[str]:
    """The CSV lines of ``rows``, one at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _json_pieces(obj: object) -> Iterator[str]:
    """``json.dumps(obj, indent=2)`` plus a newline, in pieces."""
    yield from json.JSONEncoder(indent=2).iterencode(obj)
    yield "\n"


def _text_table(headers: list[str], rows: list[list[str]]) -> Iterator[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells: list[str]) -> str:  # lines go out one by one, never joined
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n"
    yield fmt(headers)
    yield fmt(["-" * w for w in widths])
    yield from map(fmt, rows)


# -- compute --------------------------------------------------------------------

_OBJECTS = {
    "tcheb": chebfam.tcheb,
    "fpoly": chebfam.fpoly,
    "pg": hilbert.pg_via_odd_divisors,
}

# C_n and P_n are written from their coefficient runs, never densely
_RUNS = {"cn": hilbert.cn_runs, "pn": hilbert.pn_runs}

#: The most coefficients one written piece of a run holds
_PIECE = 1 << 16

# Coefficient digits of V_k, and of F_k and G_{k+1}, per k^2, in 40ths:
# V_3000 has 677,334 of them, F_3000 and G_3001 have 1,350,816
_DIGIT_RATE = {"tcheb": 3, "fpoly": 6, "pg": 6}

# Characters per coefficient of C_n and P_n (2n + 1 of them), in tenths,
# the most of the three formats: C_n's JSON puts each one-digit coefficient
# on a line of its own, 9.04 per coefficient at n = 1000; P_n's text writes
# " + q^e" per term, 12.48 at n = 3,000,000
_CHAR_RATE = {"cn": 91, "pn": 130}

_VALUES = {
    "tcheb": chebfam.tcheb_value,
    "fpoly": chebfam.fpoly_value,
    "pg": hilbert.pg_eval_int,
    "cn": hilbert.cn_eval_int,
    "pn": hilbert.pn_eval_int,
}


def _cmd_compute(args: argparse.Namespace) -> int:
    kind, n = args.object, args.n
    min_n = 0 if kind in ("tcheb", "fpoly") else 1
    if n < min_n:
        print(f"error: --n must be >= {min_n} for {kind}", file=sys.stderr)
        return 2
    if kind == "zeta":
        if args.eval is not None:
            print("error: --eval does not apply to zeta", file=sys.stderr)
            return 2
        z = zeta.local_zeta_factors(n)
        if args.format == "json":
            _emit(_json_pieces({"kind": "zeta", **z.to_json()}), args.out)
        elif args.format == "csv":
            _emit(_csv_lines([["n", "num", "den"],
                              [str(n), " ".join(map(str, z.numerator)),
                               " ".join(map(str, z.denominator))]]), args.out)
        else:
            _emit(zeta.format_local_zeta(z) + "\n", args.out)
        return 0

    if args.eval is not None:
        x = args.eval
        chebfam.check_digits(chebfam.value_digits(  # C_n(x) ~ x^2n ~ F_n(x^2)
            n - 1 if kind == "pg" else n, x * x if kind in ("cn", "pn") else x))
        with chebfam.decimal_radix(x) as point:
            value = _VALUES[kind](n, point)
        if args.format == "json":
            _emit(_json_pieces({"kind": kind, "n": n, "eval_at": args.eval,
                                "value": str(value)}), args.out)
        elif args.format == "csv":
            _emit(_csv_lines([["n", "eval_at", "value"],
                              [str(n), str(args.eval), str(value)]]), args.out)
        else:
            _emit(str(value) + "\n", args.out)
        return 0

    if kind in _RUNS:
        chebfam.check_digits(_CHAR_RATE[kind] * (2 * n + 1) // 10,
                             "characters")
        _emit(_run_pieces(kind, n, _RUNS[kind](n), args.format), args.out)
        return 0
    chebfam.check_digits(_DIGIT_RATE[kind] * n * n // 40)
    obj = _OBJECTS[kind](n)
    if args.format == "json":
        _emit(_json_pieces({"kind": kind, "n": n, **intpoly_to_json(obj)}),
              args.out)
    elif args.format == "csv":
        _emit(_csv_lines([["n", "coeffs"],
                          [str(n), " ".join(decimal_strs(obj.coeffs))]]),
              args.out)
    else:
        _emit(str(obj) + "\n", args.out)
    return 0


def _run_pieces(kind: str, n: int, runs: list[tuple[int, int]],
                fmt: str) -> Iterator[str]:
    """The output of ``compute cn|pn`` in ``fmt``, written from the
    (value, length) coefficient runs of a polynomial whose lowest term is
    q^0, in pieces of at most ``_PIECE`` coefficients each.  Byte for byte
    what the dense polynomial prints: ``format_laurent``, the JSON of
    ``_json_pieces`` with its coefficients as decimal strings, and the CSV
    row with one unquoted field of them."""
    def repeated(piece: str, k: int) -> Iterator[str]:
        for done in range(0, k, _PIECE):
            yield piece * min(_PIECE, k - done)

    def joined(item: str, sep: str) -> Iterator[str]:
        # sep.join of every coefficient's item: the last one has no sep
        *init, (last, k) = runs
        for v, k_v in init:
            yield from repeated(item.format(v) + sep, k_v)
        yield from repeated(item.format(last) + sep, k - 1)
        yield item.format(last)

    if fmt == "json":
        head, tail = json.dumps({"kind": kind, "n": n, "min_exp": 0,
                                 "coeffs": []}, indent=2).rsplit("[]", 1)
        yield head + "["
        yield from joined('\n    "{}"', ",")
        yield "\n  ]" + tail + "\n"
    elif fmt == "csv":
        yield f"n,coeffs\n{n},"
        yield from joined("{}", " ")
        yield "\n"
    else:
        yield from _text_run_pieces(runs)
        yield "\n"


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


def values_rows(max_n: int, points: list[int]) -> list[dict]:
    """Paired exact decimal-radix values of the ideal-count and running-sum
    families at each point, with the equal / off-by-one / other relation."""
    chebfam.check_digits(sum(2 * chebfam.value_digits(0, x, max_n)
                             for x in points))
    cols = {}
    for x in points:
        with chebfam.decimal_radix(x) as point:
            cols[x] = [(pg, f, _REL_LABEL.get(abs(pg - f), "other"))
                       for pg, f in zip(hilbert.pg_values(max_n, point),
                                        chebfam.fpoly_values(max_n, point))]
    return [{"n": n, **{x: col[n - 1] for x, col in cols.items()}}
            for n in range(1, max_n + 1)]


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


def _cmd_table(args: argparse.Namespace) -> int:
    which = args.which
    max_n = args.max_n if args.max_n is not None else TABLE_DEFAULTS[which]
    if max_n < (0 if which in ("tcheb", "fpoly") else 1):
        print("error: --max-n out of range", file=sys.stderr)
        return 2

    if which == "values":
        points = [int(p) for p in args.points.split(",")]
        repeats = [x for x, k in Counter(points).items() if k > 1]
        if repeats:
            print(f"error: --N repeats the point {repeats[0]}",
                  file=sys.stderr)
            return 2
        rows = values_rows(max_n, points)
        if args.format == "json":
            payload = [{"n": r["n"],
                        **{f"pg_{x}": str(r[x][0]) for x in points},
                        **{f"f_{x}": str(r[x][1]) for x in points},
                        **{f"rel_{x}": r[x][2] for x in points}}
                       for r in rows]
            _emit(_json_pieces({"table": "values", "rows": payload}), args.out)
        else:
            headers = ["n"]
            for x in points:
                headers += [f"pg_{x}", f"f_{x}", f"rel_{x}"]
            cells = [[str(r["n"])]
                     + [s for x in points
                        for s in (str(r[x][0]), str(r[x][1]), r[x][2])]
                     for r in rows]
            _emit(_csv_lines([headers, *cells]) if args.format == "csv"
                  else _text_table(headers, cells), args.out)
        return 0

    if which == "decomp":
        # characters per n^2: the csv and json have about 3 (194,223,598 at
        # n = 8000); the text pads the tsum column to its widest cell, 8.35
        # at n = 4000
        chebfam.check_digits((9 if args.format == "text" else 3)
                             * max_n * max_n, "characters")
        rows = [(n, tsum_string(n), fdecomp_string(n))
                for n in range(1, max_n + 1)]
        if args.format == "json":
            payload = [{"n": n, "tsum": t, "fdecomp": f} for n, t, f in rows]
            _emit(_json_pieces({"table": "decomp", "rows": payload}), args.out)
        else:
            cells = [[str(n), t, f] for n, t, f in rows]
            headers = ["n", "tsum", "fdecomp"]
            _emit(_csv_lines([headers, *cells]) if args.format == "csv"
                  else _text_table(headers, cells), args.out)
        return 0

    # polynomial tables
    start = 1 if which == "pg" else 0
    # the rates summed: 1^2 + ... + N^2 = N(N + 1)(2N + 1)/6
    chebfam.check_digits(_DIGIT_RATE[which] * max_n * (max_n + 1)
                         * (2 * max_n + 1) // 240)
    polys = [(n, _OBJECTS[which](n)) for n in range(start, max_n + 1)]
    if args.format == "json":
        payload = [{"n": n, **intpoly_to_json(p)} for n, p in polys]
        _emit(_json_pieces({"table": which, "rows": payload}), args.out)
    elif args.format == "csv":
        cells = [[str(n), " ".join(decimal_strs(p.coeffs))] for n, p in polys]
        _emit(_csv_lines([["n", "coeffs"], *cells]), args.out)
    else:
        cells = [[str(n), str(p)] for n, p in polys]
        _emit(_text_table(["n", which], cells), args.out)
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
        rows = [["suite", "max_n", "passed", "failed"]]
        rows += [[r.suite, str(r.max_n), str(r.passed), str(r.failed)]
                 for r in reports]
        _emit(_csv_lines(rows), args.out)
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.ok else "FAIL"
            lines.append(f"suite {r.suite}: n <= {r.max_n}: "
                         f"{r.passed} checks passed, {r.failed} failed: {status}")
            for f in r.failures[:20]:
                lines.append(f"  {f.case}: expected {f.expected}, got {f.actual}")
            if len(r.failures) > 20:
                lines.append(f"  ... and {len(r.failures) - 20} more")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.ok for r in reports) else 1


# -- oeis-check --------------------------------------------------------------------

def _cmd_oeis_check(args: argparse.Namespace) -> int:
    spec = SEQUENCES[args.sequence]
    if spec.point is None and args.at is None:
        print(f"error: sequence {args.sequence!r} requires --at",
              file=sys.stderr)
        return 2
    if spec.point is not None and args.at is not None:
        print(f"error: --at does not apply to {args.sequence}",
              file=sys.stderr)
        return 2
    if args.emit:
        count = emit_bfile(args.sequence, args.emit, at=args.at,
                           max_index=100 if args.max_n is None else args.max_n)
        print(f"wrote {count} terms to {args.emit}")
        if args.bfile is None:
            return 0
    if args.bfile is None:
        print("error: provide a b-file to check against, or --emit",
              file=sys.stderr)
        return 2
    bfile = parse_bfile(args.bfile)
    report = check_sequence(args.sequence, bfile, at=args.at,
                            max_index=args.max_n)
    if not report.compared:
        span = (f">= {spec.min_index}" if args.max_n is None
                else f"in {spec.min_index}..{args.max_n}")
        print(f"error: no b-file index {span}: nothing to compare",
              file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(_json_pieces(report.to_json()), args.out)
    elif args.format == "csv":
        rows = [["sequence", "bfile", "compared", "mismatches"],
                [report.sequence, report.bfile_id, str(report.compared),
                 str(len(report.mismatches))]]
        _emit(_csv_lines(rows), args.out)
    else:
        status = "PASS" if report.ok else "FAIL"
        lines = [f"{report.sequence} vs {report.bfile_id}: "
                 f"{report.compared} terms compared, "
                 f"{len(report.mismatches)} mismatches: {status}"]
        for idx, expected, computed in report.mismatches[:20]:
            lines.append(f"  index {idx}: b-file {expected}, computed {computed}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


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
    p.add_argument("object",
                   choices=("tcheb", "fpoly", "pg", "cn", "pn", "zeta"))
    p.add_argument("--n", type=int, required=True, help="index n (or k)")
    p.add_argument("--eval", type=int, default=None, metavar="X",
                   help="evaluate at the integer X instead of printing "
                        "coefficients")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("table", parents=[common],
                       help="reproduce a reference table")
    p.add_argument("which",
                   choices=("values", "pg", "tcheb", "fpoly", "decomp"))
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
