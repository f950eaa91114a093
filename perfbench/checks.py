"""Output checks: parse what each CLI command printed and compare it with
invariants and reference values from ``oracle``, never with the route
being timed.

* G_n: monic of degree n-1, G_n(2) = sigma(n), G_n(3) and G_n(x) equal the
  odd-divisor sum of F built here; sampled values also equal
  ``pg_via_interval(n).eval_int(x)`` (computed by the caller).
* F_k: monic of degree k, F_k(2) = 2k+1, F_k(3) = L_{2k+1} by doubling.
* V_k: monic of degree k, V_k(2) = 2, V_k(3) = L_{2k}.
* C_n: palindromic, monic, degree 2n, C_n(1) = 0; P_n: palindromic,
  degree 2n-2, non-negative, P_n(1) = sigma(n).
* zeta: numerator and denominator each have 2 * #odd-divisors factors,
  within [0, 2n] and symmetric under e -> 2n - e.
* verify: exit 0, no failures, and the pinned number of checks.
"""
from __future__ import annotations

import csv
import io
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import oracle
from workloads import VERIFY_CHECKS, VERIFY_RANGES, Command


@dataclass
class Verdict:
    ok: bool
    terms: int = 0  # verify checks, b-file lines or table rows; 0 for queries
    detail: str = ""


class Wrong(Exception):
    """An output that parses but breaks an invariant, or does not parse."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


@contextmanager
def unlimited_parsing():
    """Parse integers and CSV fields of any length; the limits are restored
    afterwards so that they never leak into a forked child."""
    digits = sys.get_int_max_str_digits()
    field = csv.field_size_limit(sys.maxsize)
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)
        csv.field_size_limit(field)


# -- parsing -------------------------------------------------------------------

_TERM = re.compile(r"(\d+)?\*?(?:([Xq])(?:\^(-?\d+))?)?")
_FACTOR = re.compile(r"\(1-(q(?:\^(\d+))?\*)?t\)(?:\^(\d+))?")


def parse_poly(text: str) -> list[int]:
    """Dense coefficients of 'X^3 + 2*X - 1' (or in q, exponents >= 0)."""
    text = text.strip()
    if text == "0":
        return []
    tokens = re.split(r" ([+-]) ", text)
    first = tokens[0]
    pairs = [("-" if first.startswith("-") else "+", first.lstrip("-"))]
    pairs += list(zip(tokens[1::2], tokens[2::2]))
    coeffs: dict[int, int] = {}
    for sign, body in pairs:
        m = _TERM.fullmatch(body)
        expect(m is not None and body != "", f"bad term {body[:40]!r}")
        digits, var, exp = m.groups()
        e = 0 if var is None else int(exp) if exp else 1
        c = int(digits) if digits else 1
        expect(e >= 0 and e not in coeffs, f"bad exponent in {body[:40]!r}")
        coeffs[e] = -c if sign == "-" else c
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return out


def parse_text_table(text: str) -> list[list[str]]:
    """Rows of the CLI's aligned text table, cut at the dash-line columns."""
    lines = text.rstrip("\n").split("\n")
    expect(len(lines) >= 2, "table without header")
    starts = [m.start() for m in re.finditer(r"-+", lines[1])]
    bounds = list(zip(starts, starts[1:] + [None]))
    return [[line[a:b].strip() for a, b in bounds] for line in lines[2:]]


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def horner(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# -- checker -------------------------------------------------------------------

class Checker:
    """Checks one command's output; ``interval`` maps (n, x) to
    pg_via_interval(n).eval_int(x) for the sampled points."""

    def __init__(self, interval: dict[tuple[int, int], int]):
        self.interval = interval
        self._sig: list[int] = []
        self._odd: list[list[int]] = []
        self._f: dict[int, list[int]] = {}
        self._v: dict[int, list[int]] = {}

    def check(self, cmd: Command, rc: int | None, out: str,
              bfile: str | None) -> Verdict:
        op = cmd.params["op"]
        if rc != 0:
            return Verdict(False, 0, f"exit {rc}")
        try:
            terms = getattr(self, f"_check_{op}")(cmd.params, out, bfile)
        except Wrong as exc:
            return Verdict(False, 0, str(exc))
        except (ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
            return Verdict(False, 0, f"unparsable output: {exc!r}"[:200])
        return Verdict(True, terms)

    # reference tables, grown on demand

    def sieve(self, limit: int) -> None:
        """Tabulate sigma and odd divisors up to ``limit`` for a sweep."""
        if len(self._sig) <= limit:
            self._sig, self._odd = oracle.divisor_sieve(limit)

    def sigma(self, n: int) -> int:
        return self._sig[n] if n < len(self._sig) else oracle.sigma(n)

    def odd(self, n: int) -> list[int]:
        return self._odd[n] if n < len(self._odd) else oracle.odd_divisors(n)

    def fvals(self, x: int, top: int) -> list[int]:
        vals = self._f.get(x)
        if vals is None or len(vals) <= top:
            vals = self._f[x] = oracle.f_values(top, x)
        return vals

    def vvals(self, x: int, top: int) -> list[int]:
        vals = self._v.get(x)
        if vals is None or len(vals) <= top:
            vals = self._v[x] = oracle.v_values(top, x)
        return vals

    def g(self, n: int, x: int, top: int) -> int:
        value = oracle.g_value(n, x, self.odd(n), self.fvals(x, top))
        known = self.interval.get((n, x))
        if known is not None and known != value:
            raise Wrong(f"G_{n}({x}): interval route {known}, odd-divisor sum {value}")
        return value

    # per-family invariants on dense coefficients

    def _poly(self, kind: str, n: int, cs: list[int]) -> None:
        if kind == "tcheb":
            expect(len(cs) == n + 1 and cs[-1] == (1 if n else 2),
                   f"V_{n} not monic of degree {n}")
            expect(horner(cs, 2) == 2, f"V_{n}(2) != 2")
            expect(horner(cs, 3) == oracle.lucas_v(n, 3), f"V_{n}(3) != L_{2 * n}")
        elif kind == "fpoly":
            expect(len(cs) == n + 1 and cs[-1] == 1, f"F_{n} not monic of degree {n}")
            expect(horner(cs, 2) == 2 * n + 1, f"F_{n}(2) != {2 * n + 1}")
            expect(horner(cs, 3) == oracle.f_value(n, 3), f"F_{n}(3) != L_{2 * n + 1}")
        elif kind == "pg":
            expect(len(cs) == n and cs[-1] == 1, f"G_{n} not monic of degree {n - 1}")
            expect(horner(cs, 2) == self.sigma(n), f"G_{n}(2) != sigma({n})")
            expect(horner(cs, 3) == self.g(n, 3, n), f"G_{n}(3) wrong")
        elif kind == "pn":
            expect(len(cs) == 2 * n - 1 and cs == cs[::-1] and min(cs) >= 0,
                   f"P_{n} not palindromic non-negative of degree {2 * n - 2}")
            expect(sum(cs) == self.sigma(n), f"P_{n}(1) != sigma({n})")
            expect(horner(cs, -1) == oracle.p_value(n, -1), f"P_{n}(-1) wrong")
        elif kind == "cn":
            expect(len(cs) == 2 * n + 1 and cs == cs[::-1] and cs[-1] == 1,
                   f"C_{n} not palindromic monic of degree {2 * n}")
            expect(sum(cs) == 0, f"C_{n}(1) != 0")
            expect(horner(cs, -1) == oracle.c_value(n, -1), f"C_{n}(-1) wrong")
        else:
            raise Wrong(f"unknown kind {kind}")

    def _value(self, kind: str, n: int, x: int) -> int:
        if kind == "tcheb":
            return oracle.lucas_v(n, x)
        if kind == "fpoly":
            return oracle.f_value(n, x)
        if kind == "pg":
            return self.g(n, x, n)
        if kind == "pn":
            return oracle.p_value(n, x)
        return oracle.c_value(n, x)

    # one method per operation; each returns the number of terms checked

    def _check_verify(self, p: dict, out: str, bfile: str | None) -> int:
        suite = p["suite"]
        (report,) = json.loads(out)
        expect(report["suite"] == suite and report["max_n"] == VERIFY_RANGES[suite],
               f"report for {report['suite']} at {report['max_n']}")
        expect(report["failed"] == 0, f"{report['failed']} checks failed")
        expect(report["passed"] == VERIFY_CHECKS[suite],
               f"{report['passed']} checks passed, pinned {VERIFY_CHECKS[suite]}")
        return report["passed"]

    def _check_compute(self, p: dict, out: str, bfile: str | None) -> int:
        kind, n, fmt, x = p["kind"], p["n"], p["format"], p.get("x")
        if x is not None:
            if fmt == "json":
                obj = json.loads(out)
                expect(obj["n"] == n and obj["eval_at"] == x, "json header")
                value = int(obj["value"])
            elif fmt == "csv":
                value = int(parse_csv(out)[1][2])
            else:
                value = int(out.strip())
            expect(value == self._value(kind, n, x), f"{kind} {n} at {x} wrong")
            return 0
        if kind == "zeta":
            if fmt == "json":
                obj = json.loads(out)
                num, den = obj["num"], obj["den"]
            elif fmt == "csv":
                row = parse_csv(out)[1]
                num, den = [int(e) for e in row[1].split()], [int(e) for e in row[2].split()]
            else:
                num_s, den_s = out.strip().split(" / ")
                num, den = self._factors(num_s), self._factors(den_s)
            count = 2 * len(oracle.odd_divisors(n))
            for side in (num, den):
                expect(len(side) == count, f"{len(side)} factors, expected {count}")
                expect(all(0 <= e <= 2 * n for e in side), "exponent outside [0, 2n]")
                expect(sorted(2 * n - e for e in side) == sorted(side),
                       "factors not symmetric under e -> 2n - e")
            return 0
        if fmt == "json":
            obj = json.loads(out)
            expect(obj.get("min_exp", 0) == 0, "min_exp != 0")
            cs = [int(c) for c in obj["coeffs"]]
        elif fmt == "csv":
            cs = [int(c) for c in parse_csv(out)[1][1].split()]
        else:
            cs = parse_poly(out)
        self._poly(kind, n, cs)
        return 0

    @staticmethod
    def _factors(text: str) -> list[int]:
        out = []
        for m in _FACTOR.finditer(text):
            e = 0 if m.group(1) is None else int(m.group(2) or 1)
            out += [e] * int(m.group(3) or 1)
        return out

    def _check_emit(self, p: dict, out: str, bfile: str | None) -> int:
        seq, x, max_n = p["seq"], p["x"], p["max_n"]
        start = 0 if seq == "f_eval" else 1
        self.sieve(max_n)
        expect(bfile is not None, "no b-file written")
        lines = bfile.split("\n")
        expect(lines[-1] == "", "b-file not newline-terminated")
        lines.pop()
        expect(out.startswith(f"wrote {len(lines)} terms to "), "wrong term count")
        expect(len(lines) == max_n - start + 1, f"{len(lines)} lines")
        if seq in ("f_eval", "pg_eval"):
            fv = self.fvals(x, max_n)
        for i, line in enumerate(lines, start):
            idx, val = line.split(" ")
            expect(int(idx) == i, f"index {idx} at line {i}")
            if seq == "sigma":
                want = self.sigma(i)
            elif seq == "odd_div_count":
                want = len(self.odd(i))
            elif seq == "f_eval":
                want = fv[i]
            else:
                want = self.g(i, x, max_n)
            expect(int(val) == want, f"{seq} index {i} wrong")
        return len(lines)

    def _rows(self, p: dict, out: str) -> list[dict]:
        fmt = p["format"]
        if fmt == "json":
            obj = json.loads(out)
            expect(obj["table"] == p["which"], "wrong table")
            return obj["rows"]
        cells = parse_csv(out) if fmt == "csv" else [None] + parse_text_table(out)
        header = parse_csv(out)[0] if fmt == "csv" else out.split("\n", 1)[0].split()
        return [dict(zip(header, r)) for r in cells[1:]]

    def _check_table(self, p: dict, out: str, bfile: str | None) -> int:
        which, max_n = p["which"], p["max_n"]
        rows = self._rows(p, out)
        self.sieve(max_n)
        start = 0 if which == "fpoly" else 1
        expect(len(rows) == max_n - start + 1, f"{len(rows)} rows")
        for i, row in enumerate(rows, start):
            expect(int(row["n"]) == i, f"row {row['n']} at {i}")
            if which == "values":
                for x in p["points"]:
                    pg, f = int(row[f"pg_{x}"]), int(row[f"f_{x}"])
                    expect(pg == self.g(i, x, max_n), f"G_{i}({x}) wrong")
                    expect(f == self.fvals(x, max_n)[i - 1], f"F_{i - 1}({x}) wrong")
                    rel = {0: "equal", 1: "off_by_one"}.get(abs(pg - f), "other")
                    expect(row[f"rel_{x}"] == rel, f"relation at n={i}, x={x}")
            elif which == "decomp":
                self._decomp(i, row["tsum"], row["fdecomp"], max_n)
            else:
                cell = row.get("coeffs", row.get(which))
                cs = ([int(c) for c in cell] if isinstance(cell, list)
                      else [int(c) for c in cell.split()] if p["format"] == "csv"
                      else parse_poly(cell))
                self._poly(which, i, cs)
        return len(rows)

    def _decomp(self, n: int, tsum: str, fdecomp: str, top: int) -> None:
        """Both decompositions evaluate to sigma(n) at X = 2 and G_n(3) at 3."""
        want = {2: self.sigma(n), 3: self.g(n, 3, top)}
        for x, value in want.items():
            total = 0
            for term in tsum.split(" + "):
                if term == "1":
                    total += 1
                    continue
                c, _, i = term.rpartition("T")
                total += int(c.rstrip("*") or 1) * self.vvals(x, top)[int(i)]
            expect(total == value, f"tsum of n={n} at X={x}")
            total = 0
            tokens = re.split(r" ([+-]) ", fdecomp)
            signs = ["-" if tokens[0].startswith("-") else "+"] + tokens[1::2]
            for sign, term in zip(signs, [tokens[0].lstrip("-")] + tokens[2::2]):
                v = self.fvals(x, top)[int(term[1:])]
                total += -v if sign == "-" else v
            expect(total == value, f"fdecomp of n={n} at X={x}")
