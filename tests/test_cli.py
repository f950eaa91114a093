"""The command-line surface: formats, exit codes, determinism."""
from __future__ import annotations

import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import threading
import time
from itertools import islice
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import fpoly_oracle, tcheb_oracle
from refdata import FDECOMP_TABLE, TSUM_TABLE, VALUES_TABLE
from torusideals import chebfam, cli, hilbert, oeis, verify, zeta
from torusideals.chebfam import (decimal_radix, fpoly_stream, fpoly_value,
                                 tcheb_value)
from torusideals.cli import fdecomp_string, main, tsum_string, values_rows
from torusideals.divisors import divisors, odd_divisors
from torusideals.intpoly import (IntPoly, LaurentPoly, exact_div, spell_terms,
                                 sum_text)
from torusideals.oeis import emit_bfile
from torusideals.zeta import ZetaFactorization, local_zeta_factors


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_limited(mb: int, argv, stdout=subprocess.PIPE, timeout: int = 120):
    """``python -m torusideals.cli *argv`` in a child process with ``mb``
    MB of address space, limited in the child only; stderr is captured."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))

    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "torusideals.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, preexec_fn=limit, timeout=timeout)


class TestCompute:
    def test_eval(self, capsys):
        code, out = run(capsys, "compute", "pg", "--n", "6", "--eval", "3")
        assert code == 0 and out.strip() == "200"
        code, out = run(capsys, "compute", "fpoly", "--n", "14", "--eval", "3")
        assert code == 0 and out.strip() == "1149851"
        code, out = run(capsys, "compute", "pg", "--n", "16", "--eval", "5")
        assert code == 0 and out.strip() == "20344613659"

    def test_polynomial_text(self, capsys):
        code, out = run(capsys, "compute", "pg", "--n", "5")
        assert code == 0 and out.strip() == "X^4 + X^3 - 3*X^2 - 3*X"
        code, out = run(capsys, "compute", "tcheb", "--n", "0")
        assert code == 0 and out.strip() == "2"

    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "compute", "pg", "--n", "8", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        from torusideals.hilbert import pg_via_interval

        assert obj["coeffs"] == [str(c) for c in pg_via_interval(8).coeffs]

        code, out = run(capsys, "compute", "cn", "--n", "4", "--format", "json")
        obj = json.loads(out)
        from torusideals.hilbert import cn_via_odd_divisors

        cn = cn_via_odd_divisors(4)
        assert obj["min_exp"] == cn.min_exp
        assert obj["coeffs"] == [str(c) for c in cn.coeffs]

        code, out = run(capsys, "compute", "zeta", "--n", "3", "--format", "json")
        obj = json.loads(out)
        z = local_zeta_factors(3)
        assert (obj["n"], obj["num"], obj["den"]) == \
            (3, list(z.numerator), list(z.denominator))

    def test_zeta_text(self, capsys):
        code, out = run(capsys, "compute", "zeta", "--n", "4")
        assert code == 0
        assert out.strip() == "(1-q*t)(1-q^7*t) / (1-t)(1-q^8*t)"

    def test_zeta_rejects_eval(self, capsys):
        code, _ = run(capsys, "compute", "zeta", "--n", "4", "--eval", "1")
        assert code == 2

    def test_bad_index(self, capsys):
        code, _ = run(capsys, "compute", "pg", "--n", "0")
        assert code == 2
        code, _ = run(capsys, "compute", "tcheb", "--n", "-1")
        assert code == 2

    def test_memory_error_exits_two(self, capsys, monkeypatch):
        def exhausted(n, descending=False):
            raise MemoryError

        monkeypatch.setitem(cli._COEFFS, "pg", exhausted)
        code = main(["compute", "pg", "--n", "5"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: out of memory")

    def test_large_sizes_in_bounded_memory(self):
        proc = run_limited(512, ("compute", "pg", "--n", "3000", "--format",
                                 "json"))
        assert proc.returncode == 0, proc.stderr
        pg = IntPoly(tuple(map(int, json.loads(proc.stdout)["coeffs"])))
        assert pg.degree == 2999 and pg.is_monic()
        assert pg.eval_int(2) == sum(d for d in range(1, 3001) if 3000 % d == 0)
        assert pg.eval_int(3) == hilbert.pg_eval_int(3000, 3)

        proc = run_limited(512, ("compute", "fpoly", "--n", "6000", "--eval",
                                 "3"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{[*islice(fpoly_stream(3), 6001)][-1]}\n"

        # small answers at sizes whose polynomials do not fit: V_k(1) has
        # period 6 in k, and (q - 1)^2 divides C_n
        proc = run_limited(512, ("compute", "tcheb", "--n", "3000000",
                                 "--eval", "1"))
        assert (proc.returncode, proc.stdout) == (0, "2\n"), proc.stderr
        proc = run_limited(512, ("compute", "cn", "--n", "100000000",
                                 "--eval", "1"))
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

    def test_huge_powers_of_two_answer_at_once(self, capsys):
        # 1 is the one odd divisor of a power of two n, so G_n(2) = P_n(1)
        # = sigma(n) = 2n - 1 and C_n(1) = 0 come without trial division
        for kind, n, x, want in (("pg", 2 ** 100, 2, 2 ** 101 - 1),
                                 ("pn", 2 ** 62, 1, 2 ** 63 - 1),
                                 ("cn", 2 ** 62, 1, 0)):
            code, out = run(capsys, "compute", kind, "--n", str(n),
                            "--eval", str(x))
            assert (code, out) == (0, f"{want}\n")

    def test_unfactorable_n_refused_within_the_work_limit(self, capsys):
        # 10^18 + 3 is prime: trial division would run to 10^9, so every
        # divisor-based command refuses it; an odd part just below the
        # limit (2 * 10^7)^2 still answers
        n = str(10 ** 18 + 3)
        for argv in (("compute", "pg", "--n", n, "--eval", "1"),
                     ("compute", "cn", "--n", n, "--eval", "1"),
                     ("compute", "pn", "--n", n, "--eval", "1"),
                     ("compute", "cn", "--n", n),
                     ("compute", "pn", "--n", n, "--format", "json"),
                     ("compute", "zeta", "--n", n)):
            start = time.process_time()
            code = main(list(argv))
            out, err = capsys.readouterr()
            assert (code, out) == (2, ""), argv
            assert err == "error: cannot factor n within the work limit\n"
            assert time.process_time() - start < 1.0
        code, out = run(capsys, "compute", "pg", "--n", "399999999999971",
                        "--eval", "2")
        assert (code, out) == (0, "463581488934144\n")

    @pytest.mark.parametrize("n", [10 ** 8, 2 ** 100, 2 ** 60 * 3 ** 4 * 5])
    def test_cn_text_has_at_most_four_tau_odd_terms(self, capsys, n):
        # the text of C_n lists only its nonzero terms, each odd divisor d,
        # r = n/d - (d + 1)/2, adding q^n (q^{r+1} + q^{-r-1} - q^r - q^{-r});
        # its size guard counts those, not the 2n + 1 coefficients
        odd = n // (n & -n)
        want = {}
        for d in (d for d in range(1, odd + 1, 2) if odd % d == 0):
            r = n // d - (d + 1) // 2
            for e, c in ((n + r + 1, 1), (n - r - 1, 1), (n + r, -1),
                         (n - r, -1)):
                want[e] = want.get(e, 0) + c
        start = time.process_time()
        code, out = run(capsys, "compute", "cn", "--n", str(n))
        assert time.process_time() - start < 1.0
        assert code == 0 and out.endswith("\n")
        parts = re.split(r" ([-+]) ", out.strip())
        got = {}
        for sign, term in zip(["+", *parts[1::2]], parts[::2]):
            neg, c, q, e = re.fullmatch(r"(-)?(\d+)?\*?(q)?(?:\^(\d+))?",
                                        term).groups()
            got[int(e) if e else int(q is not None)] = \
                int(c or 1) * (-1 if (sign == "-") != (neg is not None) else 1)
        assert got == {e: c for e, c in want.items() if c}
        assert len(got) <= 4 * sum(1 for d in range(1, odd + 1, 2)
                                   if odd % d == 0)

    def test_oversized_answers_refused_up_front(self):
        for argv in (("compute", "fpoly", "--n", "1000000000", "--eval", "3"),
                     ("oeis-check", "f_eval", "--at", "10", "--max-n",
                      "1000000", "--emit", os.devnull),
                     # whole polynomials: C_n and P_n have about 2n
                     # coefficients, a JSON item of 9 characters each and a
                     # CSV item of 2, P_n a text term of up to 14; a table
                     # of F_k has about 0.05 k^3 digits
                     ("compute", "pn", "--n", "100000000"),
                     ("compute", "pn", "--n", "100000000", "--format", "csv"),
                     ("compute", "cn", "--n", "100000000", "--format", "json"),
                     ("compute", "cn", "--n", "30000000", "--format", "json"),
                     ("table", "pg", "--max-n", "4000", "--format", "csv"),
                     ("table", "fpoly", "--max-n", "21000", "--format", "csv"),
                     ("table", "pg", "--max-n", str(10 ** 18)),
                     # G_n(x) and F_{n-1}(x) at 3, 4 and 5: about 1.67 n^2
                     ("table", "values", "--max-n", "10000"),
                     ("table", "values", "--max-n", "10000", "--format",
                      "json"),
                     # the decomposition strings: about 3 n^2 characters,
                     # over 8 n^2 as a padded text table
                     ("table", "decomp", "--max-n", "8000", "--format", "csv"),
                     ("table", "decomp", "--max-n", "5000", "--format", "text")):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            proc = run_limited(512, argv, timeout=60)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = (after.ru_utime + after.ru_stime
                   - before.ru_utime - before.ru_stime)
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.startswith("error: answer would have about ")
            unit = "characters" if argv[1] in ("cn", "pn", "decomp") else "digits"
            assert proc.stderr.endswith(f" {unit} (limit 100,000,000)\n")
            assert "Traceback" not in proc.stderr
            assert cpu < 1.0

    def test_sizes_past_the_float_range_refused(self, capsys, tmp_path):
        huge = str(10 ** 309)  # no float holds it
        bfile = tmp_path / "b.txt"
        bfile.write_text(f"{huge} 1\n", encoding="utf-8")
        for argv in (("compute", "fpoly", "--n", huge, "--eval", "3"),
                     ("table", "values", "--max-n", huge),
                     ("table", "values", "--max-n", huge, "--N", "0,1"),
                     ("oeis-check", "f_eval", "--at", "3", "--emit",
                      str(tmp_path / "f.txt"), "--max-n", huge),
                     ("oeis-check", "f_eval", str(bfile), "--at", "3")):
            code = main(list(argv))
            err = capsys.readouterr().err
            assert code == 2, argv
            assert re.fullmatch(r"error: answer would have about 10\^\d{3} "
                                r"digits \(limit 100,000,000\)\n", err), err
        assert not (tmp_path / "f.txt").exists()

    @pytest.mark.parametrize("kind", ["tcheb", "fpoly", "pg", "cn", "pn"])
    def test_eval_prints_the_int_value(self, capsys, kind):
        polys = {"tcheb": chebfam.tcheb, "fpoly": chebfam.fpoly,
                 "cn": hilbert.cn_via_odd_divisors, "pn": hilbert.pn_from_cn}
        for n in (1, 2, 5, 12, 50):
            for x in range(-8, 9):
                want = (hilbert.pg_eval_int(n, x) if kind == "pg"
                        else polys[kind](n).eval_int(x))
                code, out = run(capsys, "compute", kind, "--n", str(n),
                                "--eval", str(x))
                assert code == 0 and out == f"{want}\n"

    def test_eval_past_the_int_digit_limit(self, capsys):
        # P_n(3) = C_n(3) / 4, C_n summed over the odd divisors of n
        n, x = 100000, 3
        c = 0
        for d in range(1, n + 1, 2):
            if n % d == 0:
                r = n // d - (d + 1) // 2
                c += (x ** (n + r + 1) - x ** (n + r) - x ** (n - r)
                      + x ** (n - r - 1))
        code, out = run(capsys, "compute", "pn", "--n", str(n),
                        "--eval", str(x))
        assert code == 0 and len(out) > 90000
        with decimal_radix(0):
            assert Decimal(out) * (x - 1) ** 2 == c

    def test_whole_polynomials_past_the_int_digit_limit(self, capsys,
                                                        monkeypatch):
        # str() of an int refuses past 4300 digits; the coefficients
        # here have 5000
        digits = "7" + "0" * 4998 + "3"
        big = 7 * 10 ** 4999 + 3

        def u_run(n, descending=False):  # U_{-1}..U_2, from the top down
            cs = ([], [1], [big], [1, -big])[n + 1]
            return iter(cs if descending else cs[::-1])

        # one name feeds every route to F_k = U_k + U_{k-1}: here F_0 = 1,
        # F_1 = big X + 1 and F_2 = X^2 + big X - big
        monkeypatch.setattr(chebfam, "ucheb_run", u_run)
        want = {"text": f"X^2 + {digits}*X - {digits}\n",
                "json": ["-" + digits, digits, "1"],
                "csv": f"-{digits} {digits} 1"}
        for fmt in ("text", "json", "csv"):
            code, out = run(capsys, "compute", "fpoly", "--n", "2",
                            "--format", fmt)
            assert code == 0
            if fmt == "json":
                assert json.loads(out)["coeffs"] == want["json"]
            elif fmt == "csv":
                assert out == f"n,coeffs\n2,{want['csv']}\n"
            else:
                assert out == want["text"]
            code, out = run(capsys, "table", "fpoly", "--max-n", "2",
                            "--format", fmt)
            assert code == 0
            if fmt == "json":
                assert [r["coeffs"] for r in json.loads(out)["rows"]] \
                    == [["1"], ["1", digits], want["json"]]
            elif fmt == "csv":
                assert out.splitlines()[1:] == [
                    "0,1", f"1,1 {digits}", f"2,{want['csv']}"]
            else:
                lines = out.splitlines()
                assert [line.split(None, 1)[1] for line in lines[2:]] == [
                    "1", f"{digits}*X + 1", want["text"].strip()]
                # the dash line is as wide as the widest cell, unformatted
                assert lines[1] == "-  " + "-" * (len(want["text"]) - 1)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "nonsense", "--n", "3"])
        assert exc.value.code == 2


def dense_renderings(kind: str, n: int,
                     table: bool = False) -> dict[str, str]:
    """``compute kind --n n`` or ``table kind --max-n n`` in each format, as
    ``str`` (padded to the widest cell in a table), ``json.dumps`` and
    ``csv.writer`` print the dense polynomials: C_n from the coefficient
    formula, P_n divided out of it, G_n from the interval counts, V_k and
    F_k from the binomial formula of ``oracles``."""
    if kind in ("cn", "pn"):
        poly = hilbert.cn_via_coeff_formula(n)
        if kind == "pn":
            poly = exact_div(exact_div(poly, hilbert.Q_MINUS_ONE),
                             hilbert.Q_MINUS_ONE)
        head, text = {"min_exp": poly.min_exp}, str(poly)
    else:
        make = {"pg": hilbert.pg_via_interval,
                "tcheb": lambda k: IntPoly(tuple(tcheb_oracle(k))),
                "fpoly": lambda k: IntPoly(tuple(fpoly_oracle(k)))}[kind]
        ns = range(kind == "pg", n + 1) if table else [n]
        polys = {m: make(m) for m in ns}
        poly, head, text = polys[n], {}, str(polys[n])
    if table:
        cells = [("n", kind), *((str(m), str(p)) for m, p in polys.items())]
        widths = [max(len(c[i]) for c in cells) for i in (0, 1)]
        cells.insert(1, tuple("-" * w for w in widths))
        text = "\n".join(f"{a.ljust(widths[0])}  {b}".rstrip()
                         for a, b in cells)
    else:
        polys = {n: poly}
    strs = {m: [str(c) for c in p.coeffs] for m, p in polys.items()}
    rows = io.StringIO()
    csv.writer(rows, lineterminator="\n").writerows(
        [["n", "coeffs"], *([str(m), " ".join(s)] for m, s in strs.items())])
    obj = ({"table": kind, "rows": [{"n": m, "coeffs": s}
                                    for m, s in strs.items()]} if table
           else {"kind": kind, "n": n, **head, "coeffs": strs[n]})
    return {"text": text + "\n", "json": json.dumps(obj, indent=2) + "\n",
            "csv": rows.getvalue()}


def printed(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def runs_printed(text: str, fmt: str) -> list[tuple[int, int]]:
    """The (value, length) runs of the coefficients in a json or csv
    answer, read run by run: the strings of millions of coefficients
    would not fit beside the test."""
    if fmt == "json":
        pattern, sep = r'"(-?\d+)"(?:,\n    "\1")*+', '"'
        start = text.index("[")
    else:
        pattern, sep = r"(-?\d+)(?: \1\b)*+", " "
        start = text.index(",", text.index("\n"))
    runs = []
    for m in re.compile(pattern).finditer(text, start):
        k = text.count(sep, m.start(), m.end())
        runs.append((int(m[1]), k // 2 if fmt == "json" else k + 1))
    return runs


class TestWholeCounts:
    """Whole polynomials through the one coefficient writer: ``compute
    cn|pn`` from the coefficient runs, ``compute tcheb|fpoly|pg`` and
    ``table pg|tcheb|fpoly`` from slices of coefficient streams."""

    @given(st.sampled_from(("cn", "pn")), st.integers(1, 399),
           st.sampled_from((1, 2, 3, cli._PIECE)))
    @settings(max_examples=80, deadline=None)
    def test_runs_print_the_dense_rendering(self, kind, n, piece):
        # pieces of one to three coefficients put a piece boundary inside
        # every run of the small counts
        want = dense_renderings(kind, n)
        with patch.object(cli, "_PIECE", piece):
            for fmt in ("text", "json", "csv"):
                assert printed(["compute", kind, "--n", str(n),
                                "--format", fmt]) == want[fmt], (fmt, piece)

    @given(st.sampled_from(("tcheb", "fpoly", "pg")), st.integers(0, 399),
           st.booleans(), st.sampled_from((1, 2, 3, cli._PIECE)))
    @settings(max_examples=80, deadline=None)
    def test_dense_slices_print_the_dense_rendering(self, kind, n, table,
                                                    piece):
        # tables at --max-n < 40; G_n starts at n = 1
        n = max(n // 10 if table else n, int(kind == "pg"))
        want = dense_renderings(kind, n, table)
        argv = (["table", kind, "--max-n", str(n)] if table
                else ["compute", kind, "--n", str(n)])
        with patch.object(cli, "_PIECE", piece):
            for fmt in ("json", "csv"):
                assert printed([*argv, "--format", fmt]) == want[fmt], \
                    (fmt, piece)
            assert printed(argv) == want["text"]

    @given(st.lists(
        st.tuples(st.sampled_from((0, 1, -1)) | st.integers(-10 ** 30, 10 ** 30),
                  st.integers(1, 2 * cli._PIECE + 3))
        | st.tuples(st.sampled_from((10 ** 4999 + 7, -(10 ** 4999))),
                    st.integers(1, 3)),
        max_size=6))
    @example([])
    @example([(0, 4), (0, cli._PIECE + 1)])
    @example([(1, 1), (-7, 2), (0, 3)])
    @example([(2, 3), (-1, 1)])
    @example([(-(10 ** 4999), 2), (1, cli._PIECE + 2), (10 ** 4999 + 7, 1)])
    @settings(max_examples=100, deadline=None)
    def test_run_writer_prints_any_runs(self, runs):
        # real C_n and P_n lead with +1 at q^0 and at their top, so these
        # runs are what no count makes: a zero or negative top run, runs
        # across q^1 and q^0, 5000-digit values, runs past a piece, and
        # all zeros, which print '0'
        assert "".join(cli._text_run_pieces(runs)) == \
            str(LaurentPoly(0, hilbert.expand_runs(runs)))

    @pytest.mark.parametrize("n", [2 ** 11 + 1, 140000])
    def test_runs_longer_than_a_piece(self, n):
        # P_n's longest run is 2^10 + 1 at 2^11 + 1, where C_n's, a gap of
        # zeros, is 2^10 - 1; both pass a piece (2^8), also at 140000
        assert max(k for _, k in hilbert.pn_runs(n)) > cli._PIECE
        for kind in ("cn", "pn"):
            want = dense_renderings(kind, n)
            for fmt in ("text", "json", "csv"):
                assert printed(["compute", kind, "--n", str(n),
                                "--format", fmt]) == want[fmt], (kind, fmt)

    def test_three_million_in_bounded_memory(self, tmp_path):
        # 128 MB of address space; the dense route needed 476 MB for the
        # first of these
        n = 3000000
        sigma = sum(divisors(n))
        out = tmp_path / "out"
        for kind, fmt, length, total in (("pn", "json", 2 * n - 1, sigma),
                                         ("pn", "csv", 2 * n - 1, sigma),
                                         ("cn", "json", 2 * n + 1, 0)):
            with out.open("w", encoding="utf-8") as fh:
                proc = run_limited(128, ("compute", kind, "--n", str(n),
                                         "--format", fmt), stdout=fh)
            assert proc.returncode == 0, proc.stderr
            runs = runs_printed(out.read_text(encoding="utf-8"), fmt)
            out.unlink()
            assert runs == runs[::-1], (kind, fmt)
            assert sum(k for _, k in runs) == length, (kind, fmt)
            assert sum(v * k for v, k in runs) == total, (kind, fmt)

    def test_dense_answers_in_bounded_memory(self, tmp_path):
        # 128 MB of address space; written whole, the first of these
        # needed 275 MB, the tables 138 and 172.  Two children run at a
        # time.
        values = list(islice(fpoly_stream(3), 12001))
        big = [("compute", "fpoly", "--n", "12000", "--format", "csv"),
               ("table", "fpoly", "--max-n", "1100", "--format", "csv"),
               ("table", "fpoly", "--max-n", "1100", "--format", "json")]

        def answer_big(i: int) -> subprocess.CompletedProcess:
            with (tmp_path / f"big{i}").open("w", encoding="utf-8") as fh:
                return run_limited(128, big[i], stdout=fh)

        with ThreadPoolExecutor(2) as pool:
            procs = list(pool.map(answer_big, range(len(big))))
        for i, (argv, proc) in enumerate(zip(big, procs)):
            assert proc.returncode == 0, (argv, proc.stderr)
            out = tmp_path / f"big{i}"
            with out.open(encoding="utf-8") as fh:
                if argv[-1] == "json":
                    rows = [(r["n"], r["coeffs"])
                            for r in json.load(fh)["rows"]]
                else:
                    assert next(fh) == "n,coeffs\n"
                    rows = [(int(n), c.split(" ")) for n, c in
                            (line.rstrip("\n").split(",") for line in fh)]
            out.unlink()
            top = int(argv[3])
            assert [n for n, _ in rows] == list(range(top + 1 - len(rows),
                                                       top + 1)), argv
            assert all(len(cs) == n + 1 and cs[-1] == "1" for n, cs in rows)
            n, cs = rows[-1]
            assert IntPoly(tuple(map(int, cs))).eval_int(3) == values[n]

        # 48 MB of address space: built dense or held as cells, these
        # peaked at 87, 55, 52 and 46 MB and ran out of memory under this
        # limit; each row now comes from a coefficient stream, and a text
        # table builds each row once and pads it to the last row's width.
        # Two children run at a time.
        cases = [(("table", "fpoly", "--max-n", "1100"),
                  str(IntPoly(tuple(fpoly_oracle(1100))))),
                 (("table", "pg", "--max-n", "900"),
                  str(hilbert.pg_via_interval(900))),
                 (("table", "decomp", "--max-n", "3333"),
                  fdecomp_string(3333)),
                 (("compute", "tcheb", "--n", "15000", "--format", "json"),
                  None)]

        def answer(i: int) -> subprocess.CompletedProcess:
            with (tmp_path / f"out{i}").open("w", encoding="utf-8") as fh:
                return run_limited(48, cases[i][0], stdout=fh)

        with ThreadPoolExecutor(2) as pool:
            procs = list(pool.map(answer, range(len(cases))))
        for i, ((argv, want), proc) in enumerate(zip(cases, procs)):
            assert proc.returncode == 0, (argv, proc.stderr)
            path = tmp_path / f"out{i}"
            if want is None:  # V_k: 2 + ... - k X^{k-2} + X^k for k = 0 mod 4
                with path.open(encoding="utf-8") as fh:
                    obj = json.load(fh)
                cs = obj["coeffs"]
                assert (obj["n"], len(cs), cs[0], cs[-3], cs[-1]) == \
                    (15000, 15001, "2", "-15000", "1")
                with decimal_radix(1) as one:
                    assert sum(map(Decimal, cs)) == tcheb_value(15000, one)
            else:  # the last row, not the whole table
                with path.open("rb") as fh:
                    fh.seek(max(0, path.stat().st_size - (1 << 20)))
                    last = fh.read().decode().splitlines()[-1]
                assert last.startswith(argv[-1] + "  "), argv
                assert last.endswith(want), argv
                if argv[1] == "decomp":
                    assert f"  {tsum_string(3333)}  " in last
            path.unlink()

        # the values table, 141 MB as text: its rows are read once, the
        # text widths come from the spill pass of cli._text_table, which
        # writes each row's cells to a file as it takes them, and JSON
        # rows go out one at a time (53 MB); holding every cell string or
        # row object ran out of memory here
        top, out = 8000, tmp_path / "out"
        for fmt in ("text", "json"):
            with out.open("w", encoding="utf-8") as fh:
                proc = run_limited(128, ("table", "values", "--max-n",
                                         str(top), "--N=3,-5", "--format",
                                         fmt), stdout=fh)
            assert proc.returncode == 0, (fmt, proc.stderr)
            with out.open("rb") as fh:  # the last row, not the whole table
                fh.seek(max(0, out.stat().st_size - (1 << 16)))
                tail = fh.read().decode()
            out.unlink()
            if fmt == "json":
                row = json.loads("{" + tail.rsplit("\n    {", 1)[1]
                                 .removesuffix("\n  ]\n}\n"))
            else:
                row = dict(zip(["n", "pg_3", "f_3", "rel_3",
                                "pg_-5", "f_-5", "rel_-5"],
                               tail.splitlines()[-1].split()))
            assert int(row["n"]) == top, fmt
            for x in (3, -5):
                with decimal_radix(x) as point:
                    assert Decimal(row[f"pg_{x}"]) == \
                        hilbert.pg_eval_int(top, point), (fmt, x)
                    assert Decimal(row[f"f_{x}"]) == \
                        fpoly_value(top - 1, point), (fmt, x)
                assert row[f"rel_{x}"] == "other", (fmt, x)


def tail(path: Path) -> str:
    """The last 4 KB of a file, read from its end."""
    with path.open("rb") as fh:
        fh.seek(max(0, path.stat().st_size - (1 << 12)))
        return fh.read().decode()


class TestSweeps:
    """``oeis-check`` and ``table values`` sweep one block at a time, and a
    sweep past ``chebfam.MAX_TERMS`` is refused before its first byte."""

    @pytest.mark.parametrize("seq,top", [("sigma", 500000),
                                         ("odd_div_count", 5000000)])
    def test_emit_in_bounded_memory(self, tmp_path, seq, top):
        # 128 MB of address space: the whole sweep ran out of memory here
        value = {"sigma": lambda n: sum(divisors(n)),
                 "odd_div_count": lambda n: len(odd_divisors(n))}[seq]
        emitted = tmp_path / "E"
        proc = run_limited(128, ("oeis-check", seq, "--emit", str(emitted),
                                 "--max-n", str(top)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote {top} terms to {emitted}\n"
        assert tail(emitted).splitlines()[-3:] == [
            f"{n} {value(n)}" for n in range(top - 2, top + 1)]

    def test_check_in_bounded_memory(self, tmp_path):
        # the two children run at the same time
        with ThreadPoolExecutor(2) as pool:
            # 128 MB of address space: holding the b-file of 500,000 lines
            # and the sweep ran out of memory
            bfile = tmp_path / "b000203.txt"
            emit_bfile("sigma", bfile, max_index=500000)
            with bfile.open("a", encoding="utf-8") as fh:
                fh.write("500001 0\n")  # past --max-n
            whole = pool.submit(run_limited, 128, (
                "oeis-check", "sigma", str(bfile), "--max-n", "500000"))

            # 48 MB: every mismatch of an all-wrong b-file was held, and
            # the JSON report of 100,000 ran out of memory; each is now
            # written as it is found (the text keeps the first 20 and
            # counts the rest)
            top = 100000
            wrong = tmp_path / "b_wrong.txt"
            wrong.write_text("".join(f"{n} 0\n" for n in range(1, top + 1)),
                             encoding="utf-8")
            report = pool.submit(run_limited, 48, (
                "oeis-check", "sigma", str(wrong), "--format", "json"))
        proc = whole.result()
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == \
            "sigma vs b000203: 500000 terms compared, 0 mismatches: PASS\n"
        proc = report.result()
        assert proc.returncode == 1, proc.stderr
        report = json.loads(proc.stdout)
        assert list(report) == ["sequence", "bfile", "compared", "mismatches"]
        assert [m["index"] for m in report["mismatches"]] == \
            list(range(1, top + 1))
        assert report["mismatches"][-1] == {
            "index": top, "expected": "0", "computed": str(sum(divisors(top)))}

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_values_table_in_bounded_memory(self, tmp_path, fmt):
        # 128 MB of address space; the whole table of 250,000 rows ran out
        # of memory in every format
        top, out = 250000, tmp_path / "out"
        with out.open("w", encoding="utf-8") as fh:
            proc = run_limited(128, ("table", "values", "--N=1", "--max-n",
                                     str(top), "--format", fmt), stdout=fh)
        assert proc.returncode == 0, proc.stderr
        if fmt == "json":
            row = json.loads("{" + tail(out).rsplit("\n    {", 1)[1]
                             .removesuffix("\n  ]\n}\n"))
            row = [str(row[k]) for k in ("n", "pg_1", "f_1", "rel_1")]
        else:
            row = tail(out).splitlines()[-1].split("," if fmt == "csv"
                                                    else None)
        assert row == [str(top), str(hilbert.pg_eval_int(top, 1)),
                       str(fpoly_value(top - 1, 1)), "other"]

    def test_sweeps_past_the_term_limit_refused_up_front(self, tmp_path):
        # each exits 2 at once: no file, no byte on stdout
        over = chebfam.MAX_TERMS + 1
        emitted, table = tmp_path / "E", tmp_path / "T"
        bfile = tmp_path / "b.txt"
        bfile.write_text(f"1 1\n{over} 1\n", encoding="utf-8")
        for argv, count in (
                (("oeis-check", "sigma", "--emit", str(emitted), "--max-n",
                  str(over)), over),
                (("oeis-check", "odd_div_count", "--emit", str(emitted),
                  "--max-n", str(2 * over)), 2 * over),
                (("oeis-check", "f_eval", "--at", "-1", "--emit",
                  str(emitted), "--max-n", str(over - 1)), over),
                (("oeis-check", "sigma", str(bfile)), over),
                (("table", "values", "--N=1", "--max-n", str(over), "--out",
                  str(table)), over),
                (("table", "values", "--N=0,-2", "--max-n",
                  str(over // 2 + 1), "--format", "json"), over + 1)):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            proc = run_limited(128, argv, timeout=60)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            assert (proc.returncode, proc.stdout) == (2, ""), argv
            assert proc.stderr == f"error: sweep would have {count:,} " \
                "terms (limit 10,000,000)\n", argv
            assert after.ru_utime + after.ru_stime \
                - before.ru_utime - before.ru_stime < 1.0, argv
            assert not emitted.exists() and not table.exists(), argv


compute_argv = st.builds(
    lambda kind, n, x: ["compute", kind, f"--n={n}"]
    + ([] if x is None else [f"--eval={x}"]),
    st.sampled_from(("tcheb", "fpoly", "pg", "cn", "pn", "zeta")),
    st.integers(-2, 400), st.none() | st.integers(-40, 40))
table_argv = st.builds(
    lambda which, max_n, points: ["table", which, f"--max-n={max_n}",
                                  "--N=" + ",".join(map(str, points))],
    st.sampled_from(tuple(cli.TABLE_DEFAULTS)), st.integers(-1, 60),
    st.lists(st.integers(-40, 40), min_size=1, max_size=4))


@given(compute_argv | table_argv, st.sampled_from(("text", "json", "csv")))
@settings(max_examples=200, deadline=None)
def test_compute_and_table_answer_or_refuse(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if fmt == "json" and code == 0:
        json.loads(out.getvalue())


class TestTable:
    def test_values_match_reference(self):
        rows = values_rows(16, [3, 4, 5])
        for row in rows:
            n = row["n"]
            pg3, f3, pg4, f4, pg5, f5 = VALUES_TABLE[n]
            assert (row["pg_3"], row["f_3"]) == (pg3, f3)
            assert (row["pg_4"], row["f_4"]) == (pg4, f4)
            assert (row["pg_5"], row["f_5"]) == (pg5, f5)

    def test_values_rows_keys(self):
        # every pg_x, every f_x, every rel_x: the JSON key order; one string
        # per key, shared by every row
        rows = list(values_rows(40, [3, -5]))
        assert list(rows[0]) == ["n", "pg_3", "pg_-5", "f_3", "f_-5",
                                 "rel_3", "rel_-5"]
        assert all(a is b for row in rows[1:] for a, b in zip(row, rows[0]))
        with pytest.raises(ValueError, match="^--N repeats the point 3$"):
            values_rows(3, [3, 3])
        # the first point, in order of first appearance, that repeats
        with pytest.raises(ValueError, match="^--N repeats the point 0$"):
            values_rows(3, [2, 0, -1, -1, 0])
        with pytest.raises(ValueError, match="^--N repeats the point 1$"):
            values_rows(3, [1, 2, 2, 1])

    @pytest.mark.parametrize("points", [[0, 1, -1, 2, -2], [3, -3, 7]])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_values_print_the_int_values(self, capsys, points, fmt):
        max_n = 200
        rows = []
        for n in range(1, max_n + 1):
            row = [str(n)]
            for x in points:
                pg, f = hilbert.pg_eval_int(n, x), fpoly_value(n - 1, x)
                rel = {0: "equal", 1: "off_by_one"}.get(abs(pg - f), "other")
                row += [str(pg), str(f), rel]
            rows.append(row)
        code, out = run(capsys, "table", "values", "--max-n", str(max_n),
                        "--N=" + ",".join(map(str, points)), "--format", fmt)
        assert code == 0
        if fmt == "json":
            names = [f"{k}_{x}" for x in points for k in ("pg", "f", "rel")]
            got = [[str(r["n"])] + [r[k] for k in names]
                   for r in json.loads(out)["rows"]]
        elif fmt == "csv":
            got = list(csv.reader(io.StringIO(out)))[1:]
        else:
            got = [line.split() for line in out.splitlines()[2:]]
        assert got == rows
        assert "-0" not in {cell for row in got for cell in row}

    def test_text_table_pads_to_the_widest_row(self):
        # values and decomp size each column from every row, because their
        # cells do not grow with n: here each column's widest cell is in
        # the middle row, so a width read off the first or last row fails
        with decimal_radix(10) as ten:
            rows = [{"n": 7, "v": ten - 1, "s": "F2 - F0"},
                    {"n": 100, "v": -ten ** 30, "s": "F14 - F6 + F3 + F0"},
                    {"n": 12, "v": ten, "s": "F3"}]
        cells = [("n", "v", "s"),
                 *((str(r["n"]), str(r["v"]), r["s"]) for r in rows)]
        widths = [max(len(c[i]) for c in cells) for i in range(3)]
        cells.insert(1, tuple("-" * w for w in widths))
        assert "".join(cli._cell_table("t", ["n", "v", "s"], rows, "text")) \
            == "".join("  ".join(c.ljust(w) for c, w in zip(line, widths))
                       .rstrip() + "\n" for line in cells)

    def test_text_tables_compute_each_row_once(self, capsys):
        # the text table takes its widths as it spills the rows, then
        # writes the lines from the spill: no row is computed again
        with patch.object(hilbert, "pg_blocks",
                          wraps=hilbert.pg_blocks) as blocks:
            code, _ = run(capsys, "table", "values", "--N=3,-5",
                          "--max-n", "50")
        assert code == 0 and blocks.call_count == 2  # once per point
        with patch.object(cli, "tsum_string", wraps=tsum_string) as tsum:
            code, _ = run(capsys, "table", "decomp", "--max-n", "50")
        assert code == 0 and tsum.call_count == 50

    def test_fpoly_rows_share_their_runs(self, capsys):
        # F_k = U_k + U_{k-1}: the text table renders the run of each U_k
        # once, for rows k and k + 1, where a row of its own would make
        # two runs; and each row is the dense rendering of F_k.  The
        # column width is F_300's text, made from its own stream, which
        # reads the runs of U_299 and U_300 once more
        with patch.object(chebfam, "_binomial_run",
                          wraps=chebfam._binomial_run) as runs:
            code, out = run(capsys, "table", "fpoly", "--max-n", "300")
        assert code == 0
        assert sorted(c.args[0] for c in runs.call_args_list) == \
            sorted([*range(301), 299, 300])
        lines = out.splitlines()
        assert lines[:2] == ["n    fpoly", "---  " + "-" * len(lines[-1][5:])]
        assert lines[2:] == [f"{k:<3}  {chebfam.fpoly(k)}"
                             for k in range(301)]

    def test_spill_file_refused(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
        code = main(["table", "decomp"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: [Errno 28] No space left on device\n"

    @staticmethod
    def guard_top(which: str) -> int:
        """The largest ``--max-n`` that the digit guard admits for the
        polynomial table ``which``."""
        top = 1
        while cli._table_digits(which, top + 1) <= chebfam.MAX_DIGITS:
            top += 1
        return top

    @staticmethod
    def text_length(kind: str, n: int) -> int:
        return sum(map(len, cli._terms(kind, n)))

    def test_pg_rows_never_narrow(self, capsys):
        # a text polynomial table pads to its last row: G_n is F_{n-1}
        # plus F-terms of lower index, and its text is no shorter than
        # G_{n-1}'s at every n that the digit guard admits
        top = self.guard_top("pg")
        assert run(capsys, "table", "pg", "--max-n", str(top + 1)) == (2, "")
        lengths = [self.text_length("pg", n) for n in range(1, top + 1)]
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("kind", ["tcheb", "fpoly"])
    def test_chebyshev_rows_never_narrow(self, kind):
        # Row k of V_k or F_k prints no longer than row k + 1, for every k.
        # V_k (k >= 1) has (-1)^m (C(k-m, m) + C(k-m-1, m-1)) at X^(k-2m),
        # and F_k has (-1)^m C(k-m, m) at X^(k-2m) and (-1)^m C(k-m-1, m)
        # at X^(k-2m-1).  So the term at X^e of row k, for the same m, maps
        # to the term at X^(e+1) of row k + 1: the same sign, and binomials
        # with the same bottoms and tops one larger, so no smaller.  A
        # term's text is its separator, which the sign fixes (X^k maps to
        # the leading X^(k+1)), the digits of |c|, left out for |c| = 1 at
        # e >= 1, and the power: none at e = 0, "X" at e = 1, else "X^e".
        # Neither shrinks: a constant c becomes "d*X", or "X" when
        # |d| = 1 = |c|, and the power only gains.  Row k + 1 may have
        # more terms (its constant); V_0 = 2 and V_1 = X print one
        # character each.
        def term(c: int, e: int, first: bool) -> str:
            text, = spell_terms((c,), e, 1, "X")
            return next(sum_text([text])) if first else text

        coeffs = cli._COEFFS[kind]
        for k in range(kind == "tcheb", 400):
            first = True
            for e, c, d in zip(range(k, -1, -1), coeffs(k, True),
                               coeffs(k + 1, True)):
                if c:
                    assert c * d > 0 and abs(d) >= abs(c), (k, e)
                    assert len(term(d, e + 1, first)) >= \
                        len(term(c, e, first)), (k, e)
                    first = False
        lengths = [self.text_length(kind, k) for k in range(400)]
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))

    def test_csv_cells_quoted_as_csv_writer_quotes(self, capsys, tmp_path):
        rows = [["n", "a,b", 'say "hi"', "two\nlines", "cr\ronly", "", " x"],
                [""], ["", ""], [], ['"'], [","], ["\n"]]
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(rows)
        assert "".join(cli._csv_lines(rows)) == want.getvalue()
        # a b-file stem is user text that reaches a CSV cell
        b = tmp_path / "b,1.txt"
        b.write_text("1 1\n", encoding="utf-8")
        code, out = run(capsys, "oeis-check", "sigma", str(b),
                        "--format", "csv")
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(
            [["sequence", "bfile", "compared", "mismatches"],
             ["sigma", "b,1", "1", "0"]])
        assert (code, out) == (0, want.getvalue())

    def test_decomposition_strings(self):
        for n in range(1, 17):
            assert tsum_string(n) == TSUM_TABLE[n]
            assert fdecomp_string(n) == FDECOMP_TABLE[n]

    def test_values_csv(self, capsys):
        code, out = run(capsys, "table", "values", "--max-n", "3",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,pg_3,f_3,rel_3,pg_4,f_4,rel_4,pg_5,f_5,rel_5"
        assert lines[1] == "1,1,1,equal,1,1,equal,1,1,equal"
        assert lines[3] == "3,10,11,off_by_one,18,19,off_by_one,28,29,off_by_one"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_values_repeated_point_refused(self, capsys, fmt):
        code = main(["table", "values", "--N", "3,3", "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --N repeats the point 3\n"

    def test_table_json(self, capsys):
        code, out = run(capsys, "table", "fpoly", "--max-n", "2",
                        "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["table"] == "fpoly"
        assert obj["rows"][2] == {"n": 2, "coeffs": ["-1", "1", "1"]}

    def test_decomp_text(self, capsys):
        code, out = run(capsys, "table", "decomp", "--max-n", "15")
        assert code == 0
        assert "F14 - F6 + F3 + F0" in out

    def test_default_ranges(self, capsys):
        code, out = run(capsys, "table", "pg")
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("12")


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out = run(capsys, "verify", "cheb", "--max-n", "16")
        assert code == 0 and "PASS" in out

    def test_all_suites_small(self, capsys):
        code, out = run(capsys, "verify", "all", "--max-n", "12")
        assert code == 0
        assert out.count("PASS") == 6

    def test_failed_boolean_check_shows_outcome(self, capsys, monkeypatch):
        def failing(max_n):
            rep = verify.VerifySuiteReport("cheb", max_n)
            rep.check("demo", False, "one value", "another")
            return rep

        with monkeypatch.context() as m:
            m.setitem(verify.SUITES, "cheb", failing)
            code, out = run(capsys, "verify", "cheb", "--max-n", "3")
            assert code == 1
            assert "  demo: expected one value, got another\n" in out

        # one wrong value injected into each law: the failure line shows
        # the expected and the actual value, never a bare True or False
        def failures(suite: str, max_n: int) -> str:
            code, out = run(capsys, "verify", suite, "--max-n", str(max_n))
            assert code == 1
            assert not re.search(r"(expected|got) (True|False)", out), out
            return out

        with monkeypatch.context() as m:
            # the coefficient formula loses its constant term at n = 1
            m.setattr(hilbert, "triangular_index", lambda n: None)
            assert "  cn two-route n=1: expected q^2 - 2*q + 1, " \
                "got q^2 + 1\n" in failures("routes", 1)
        with monkeypatch.context() as m:
            fpoly_value = chebfam.fpoly_value
            m.setattr(chebfam, "fpoly_value",
                      lambda k, x: fpoly_value(k, x) + (x == 0))
            out = failures("cheb", 1)
            assert "  constant term k=0: expected (1, 1), got (1, 2)\n" in out
            assert "  constant term k=1: expected (1, 1), got (1, 2)\n" in out
        with monkeypatch.context() as m:
            pg_eval_int = hilbert.pg_eval_int
            m.setattr(hilbert, "pg_eval_int",
                      lambda n, x: pg_eval_int(n, x) + (n == 6))
            assert "  mult x=2 m=2 k=3: expected 13, got 12\n" \
                in failures("mult", 3)
        with monkeypatch.context() as m:
            # a quotient that is not palindromic: the basis change refuses
            # it, which is a failed check, not a usage error
            pn_from_cn = hilbert.pn_from_cn
            m.setattr(hilbert, "pn_from_cn", lambda n: pn_from_cn(n)
                      + LaurentPoly(0, (int(n == 7),)))
            assert "  pg interval=roundtrip n=7: expected X^6 + X^5 - " \
                "5*X^4 - 4*X^3 + 5*X^2 + 2*X, got not palindromic: cannot " \
                "change basis to X = q + 1/q\n" in failures("routes", 8)
        with monkeypatch.context() as m:
            m.setattr(hilbert, "defect_kind", lambda terms: "other")
            out = failures("special", 2)
            assert "  special families n=1: expected ('zero', 1, 0), " \
                "got ('other', 1, 0)\n" in out
            assert "  power-of-two law n=2: expected zero, got other\n" in out
        with monkeypatch.context() as m:
            defect_terms = hilbert.defect_terms
            m.setattr(hilbert, "defect_terms",  # + X as + F_1 - F_0
                      lambda n: [*defect_terms(n), (1, 1), (-1, 0)])
            out = failures("special", 3)
            assert "  defect degree bound n=2: expected 0, got X\n" in out
            assert "  defect degree bound n=3: expected nonzero of degree " \
                "< 1/2, got X - 1\n" in out
        with monkeypatch.context() as m:
            m.setattr(zeta, "local_zeta_factors",
                      lambda n: ZetaFactorization(n, (0, 1), (0, 2)))
            out = failures("zeta", 1)
            assert "  functional equation n=1: expected exponents invariant " \
                "under e -> 2n - e, got ZetaFactorization(n=1, " \
                "numerator=(0, 1), denominator=(0, 2))\n" in out
            assert "  coefficient consistency n=1: expected " \
                "ZetaFactorization(n=1, numerator=(1,), denominator=(2,)), " \
                "got ZetaFactorization(n=1, numerator=(1, 1), " \
                "denominator=(0, 2))\n" in out

    @pytest.mark.parametrize("suite", ["special", "series", "all"])
    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_range_below_one_is_usage_error(self, capsys, suite, max_n):
        code = main(["verify", suite, "--max-n", max_n])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --max-n must be >= 1\n"

    def test_range_past_a_suite_limit_is_refused_first(self, capsys,
                                                        monkeypatch):
        limits = verify.MAX_RANGES
        assert all(verify.DEFAULT_RANGES[s] <= limits[s] for s in limits)
        ran = []
        for suite in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, suite,
                                lambda max_n, s=suite: ran.append(s))
        for suite, limit in limits.items():
            code = main(["verify", suite, "--max-n", str(limit + 1)])
            assert (code, capsys.readouterr().err) == \
                (2, f"error: --max-n must be <= {limit} for {suite}\n")
        # all: the least limit, named with its suite, before any suite runs
        least = min(limits, key=limits.get)
        code = main(["verify", "all", "--max-n", str(limits[least] + 1)])
        assert (code, capsys.readouterr().err) == \
            (2, f"error: --max-n must be <= {limits[least]} for {least}\n")
        assert ran == []

    def test_huge_range_exits_at_once(self):
        # unlimited, the series expansion of routes ran out of 1 GB of
        # address space at --max-n 3000
        proc = run_limited(128, ("verify", "routes", "--max-n", "100000"),
                           timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: --max-n must be <= " \
            f"{verify.MAX_RANGES['routes']} for routes\n"

    def test_json_report(self, capsys):
        code, out = run(capsys, "verify", "zeta", "--max-n", "10",
                        "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["suite"] == "zeta" and reports[0]["failed"] == 0


class TestOeisCheck:
    def test_check_pass_and_fail(self, capsys, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("1 1\n2 3\n3 4\n4 7\n", encoding="utf-8")
        code, out = run(capsys, "oeis-check", "sigma", str(good))
        assert code == 0 and "PASS" in out

        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n2 99\n", encoding="utf-8")
        code, out = run(capsys, "oeis-check", "sigma", str(bad))
        assert code == 1 and "FAIL" in out

    def test_parse_error_exit_two(self, capsys, tmp_path):
        mangled = tmp_path / "mangled.txt"
        mangled.write_text("1 1\nnot numbers\n", encoding="utf-8")
        code, _ = run(capsys, "oeis-check", "sigma", str(mangled))
        assert code == 2

    def test_missing_at(self, capsys, tmp_path):
        b = tmp_path / "b.txt"
        b.write_text("1 1\n", encoding="utf-8")
        code, _ = run(capsys, "oeis-check", "pg_eval", str(b))
        assert code == 2

    @pytest.mark.parametrize("seq", ["pg3", "sigma", "odd_div_count"])
    def test_at_refused_for_fixed_point_sequences(self, capsys, tmp_path, seq):
        b = tmp_path / "b.txt"
        b.write_text("1 1\n", encoding="utf-8")
        out_file = tmp_path / "cand.txt"
        code = main(["oeis-check", seq, str(b), "--at", "5",
                     "--emit", str(out_file)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: --at does not apply to {seq}\n"
        assert not out_file.exists()

    def test_emit_only(self, capsys, tmp_path):
        out_file = tmp_path / "cand.txt"
        code, _ = run(capsys, "oeis-check", "pg_eval", "--at", "4",
                      "--emit", str(out_file), "--max-n", "8")
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "1 1" and len(lines) == 8

    def test_emit_max_n_zero(self, capsys, tmp_path):
        out_file = tmp_path / "cand.txt"
        code, out = run(capsys, "oeis-check", "sigma", "--emit",
                        str(out_file), "--max-n", "0")
        assert code == 0 and out.startswith("wrote 0 terms")
        assert out_file.read_text() == ""
        code, out = run(capsys, "oeis-check", "f_eval", "--at", "3", "--emit",
                        str(out_file), "--max-n", "0")
        assert code == 0 and out_file.read_text() == "0 1\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_emit_notice_leaves_stdout_parseable(self, capsys, tmp_path, fmt,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("b000203.txt").write_text("1 1\n2 3\n3 4\n", encoding="utf-8")
        code = main(["oeis-check", "sigma", "b000203.txt", "--emit", "E",
                     "--max-n", "20", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == "wrote 20 terms to E\n"
        if fmt == "json":
            assert json.loads(captured.out)["compared"] == 3
        else:
            assert list(csv.reader(io.StringIO(captured.out))) == [
                ["sequence", "bfile", "compared", "mismatches"],
                ["sigma", "b000203", "3", "0"]]
        assert len(Path("E").read_text(encoding="utf-8").splitlines()) == 20

    def test_no_bfile_no_emit(self, capsys):
        code, _ = run(capsys, "oeis-check", "sigma")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_nothing_compared_is_an_error(self, capsys, tmp_path, fmt):
        b = tmp_path / "b.txt"
        b.write_text("5 6\n7 8\n", encoding="utf-8")
        code = main(["oeis-check", "sigma", str(b), "--max-n", "3",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == \
            "error: no b-file index in 1..3: nothing to compare\n"
        b.write_text("0 1\n", encoding="utf-8")
        code = main(["oeis-check", "sigma", str(b), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == \
            "error: no b-file index >= 1: nothing to compare\n"

    @pytest.mark.parametrize("order", ["before", "after", "between"])
    def test_bfile_before_or_after_options(self, capsys, tmp_path, order):
        b = tmp_path / "b002878.txt"
        b.write_text("0 1\n1 4\n2 11\n3 29\n", encoding="utf-8")
        argv = {
            "before": ["f_eval", str(b), "--at", "3", "--max-n", "2"],
            "after": ["f_eval", "--at", "3", "--max-n", "2", str(b)],
            "between": ["f_eval", "--at", "3", str(b), "--max-n", "2"],
        }[order]
        code, out = run(capsys, "oeis-check", *argv)
        assert code == 0
        assert out == "f_eval vs b002878: 3 terms compared, 0 mismatches: PASS\n"

    def test_round_trip_past_the_int_digit_limit(self, capsys, tmp_path):
        b = tmp_path / "f7.txt"
        code, out = run(capsys, "oeis-check", "f_eval", "--at", "7",
                        "--max-n", "10000", "--emit", str(b))
        assert code == 0 and out == f"wrote 10001 terms to {b}\n"
        line = b.read_text(encoding="utf-8").splitlines()[6000]
        with decimal_radix(0):
            assert Decimal(line.split()[1]) == fpoly_value(6000, 7)
        code, out = run(capsys, "oeis-check", "f_eval", str(b), "--at", "7")
        assert code == 0
        assert out == "f_eval vs f7: 10001 terms compared, 0 mismatches: PASS\n"

    def test_second_bfile_is_rejected(self, capsys, tmp_path):
        b = tmp_path / "b.txt"
        b.write_text("1 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["oeis-check", "sigma", "--max-n", "1", str(b), "other.txt"])
        assert exc.value.code == 2
        assert "unrecognized arguments: other.txt" in capsys.readouterr().err


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out = run(capsys, "compute", "pg", "--n", "3", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().strip() == "X^2 + X - 2"

    @pytest.mark.parametrize("flag", ["--out", "--emit"])
    def test_failed_command_keeps_the_out_file(self, monkeypatch, capsys,
                                               tmp_path, flag):
        # the answer goes to a temporary file beside the target, which is
        # replaced only when every piece is written
        target = tmp_path / "out.txt"
        target.write_text("old", encoding="utf-8")

        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        def sweep(x, top):  # two lines of the b-file, then a full disk
            yield from (1, 3)
            refuse()

        if flag == "--out":
            monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
            argv = ["table", "decomp"]
        else:
            monkeypatch.setitem(oeis.SEQUENCES, "sigma", oeis.SEQUENCES[
                "sigma"]._replace(values=sweep))
            argv = ["oeis-check", "sigma", "--max-n", "5"]
        code = main([*argv, flag, str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: [Errno 28] No space left on device\n")
        assert target.read_text(encoding="utf-8") == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("argv, flag, text, notice", [
        (["compute", "pg", "--n", "3"], "--out", "X^2 + X - 2\n", ""),
        (["oeis-check", "sigma", "--max-n", "3"], "--emit", "1 1\n2 3\n3 4\n",
         "wrote 3 terms to {}\n"),
    ], ids=["--out", "--emit"])
    def test_out_file_keeps_its_mode_link_and_kind(self, capsys, tmp_path,
                                                   argv, flag, text, notice):
        # the renamed file takes the mode of the one it replaces, a link
        # is written through, and a pipe (or a device) is written in place
        target, link = tmp_path / "out.txt", tmp_path / "link.txt"
        target.write_text("old", encoding="utf-8")
        target.chmod(0o604)
        link.symlink_to(target)
        code, out = run(capsys, *argv, flag, str(link))
        assert (code, out) == (0, notice.format(link))
        assert link.is_symlink() and target.stat().st_mode & 0o777 == 0o604
        assert target.read_text(encoding="utf-8") == text
        fifo, got = tmp_path / "fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        code, out = run(capsys, *argv, flag, str(fifo))
        reader.join(10)
        assert (code, out, got) == (0, notice.format(fifo), [text])
        assert fifo.is_fifo()
        assert sorted(os.listdir(tmp_path)) == ["fifo", "link.txt", "out.txt"]

    @pytest.mark.parametrize("argv, refusal", [
        (["compute", "pg", "--n=0"], "--n must be >= 1 for pg"),
        (["compute", "zeta", "--n=5", "--eval=2"],
         "--eval does not apply to zeta"),
        (["table", "pg", "--max-n=0"], "--max-n out of range"),
        (["verify", "routes", "--max-n=0"], "--max-n must be >= 1"),
        (["oeis-check", "sigma"],
         "provide a b-file to check against, or --emit"),
        # no refusal and no answer: the b-file is the command's only output
        (["oeis-check", "sigma", "--emit", "E", "--max-n", "3"], None),
    ], ids=["compute-n", "zeta-eval", "table-max-n", "verify-max-n",
            "no-bfile", "emit-only"])
    def test_refusal_or_no_answer_writes_no_out_file(
            self, monkeypatch, capsys, tmp_path, argv, refusal):
        # main writes an answer or a refusal, never both, and --out only
        # for an answer
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--out", "F"])
        captured = capsys.readouterr()
        if refusal is None:
            assert (code, captured.out, captured.err) == (
                0, "wrote 3 terms to E\n", "")
            assert (tmp_path / "E").read_text() == "1 1\n2 3\n3 4\n"
        else:
            assert (code, captured.out, captured.err) == (
                2, "", f"error: {refusal}\n")
        assert not (tmp_path / "F").exists()

    def test_determinism(self, capsys):
        _, first = run(capsys, "table", "values", "--max-n", "16")
        _, second = run(capsys, "table", "values", "--max-n", "16")
        assert first == second
