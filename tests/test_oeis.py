"""b-file parsing and sequence comparisons."""
from __future__ import annotations

import json
from decimal import Decimal
from itertools import islice

import pytest

from torusideals.chebfam import decimal_radix, fpoly_stream, fpoly_value
from torusideals.cli import main
from torusideals.divisors import odd_divisors
from torusideals.hilbert import pg_eval_int
from torusideals.oeis import (
    BFileError,
    SEQUENCES,
    SequenceSpec,
    check_sequence,
    emit_bfile,
    parse_bfile,
)


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_comments_and_blanks(self, tmp_path):
        path = write(tmp_path, "b.txt",
                     "# header comment\n\n1 1\n2 3\n# inline comment line\n3 4\n")
        assert tuple(parse_bfile(path)) == ((1, 1), (2, 3), (3, 4))
        assert check_sequence("sigma", path).bfile_id == "b"

    def test_negative_and_large_values(self, tmp_path):
        path = write(tmp_path, "b.txt", "0 -5\n1 123456789012345678901234567890\n")
        entries = tuple(parse_bfile(path))
        assert entries[1][1] == 123456789012345678901234567890

    def test_bad_column_count(self, tmp_path):
        path = write(tmp_path, "b.txt", "1 1\n2 3 4\n")
        with pytest.raises(BFileError, match=r":2:"):
            tuple(parse_bfile(path))

    def test_non_integer(self, tmp_path):
        path = write(tmp_path, "b.txt", "1 1\nx 3\n")
        with pytest.raises(BFileError, match=r":2:"):
            tuple(parse_bfile(path))

    def test_non_increasing_index(self, tmp_path):
        path = write(tmp_path, "b.txt", "1 1\n3 4\n2 3\n")
        with pytest.raises(BFileError, match=r":3:.*increasing"):
            tuple(parse_bfile(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            tuple(parse_bfile(tmp_path / "nope.txt"))


class TestSequenceChecks:
    def test_f_eval_against_lucas_bisection(self, tmp_path):
        # the degree-k running sum at 3 equals the Lucas number L(2k+1)
        lines = "\n".join(f"{k} {lucas(2 * k + 1)}" for k in range(60))
        path = write(tmp_path, "b002878.txt", lines + "\n")
        report = check_sequence("f_eval", path, at=3)
        assert report.compared == 60 and not list(report.mismatches)

    def test_sigma_against_divisor_sums(self, tmp_path):
        def sigma(n):
            return sum(d for d in range(1, n + 1) if n % d == 0)

        lines = "\n".join(f"{n} {sigma(n)}" for n in range(1, 120))
        path = write(tmp_path, "b000203.txt", lines + "\n")
        report = check_sequence("sigma", path)
        assert report.compared == 119 and not list(report.mismatches)

    def test_odd_divisor_count(self, tmp_path):
        # the sweep's sieve against a plain count and the per-n list
        def count(n):
            return sum(1 for d in range(1, n + 1, 2) if n % d == 0)

        lines = "\n".join(f"{n} {count(n)}" for n in range(1, 2000))
        path = write(tmp_path, "b001227.txt", lines + "\n")
        report = check_sequence("odd_div_count", path)
        assert report.compared == 1999 and not list(report.mismatches)
        assert list(SEQUENCES["odd_div_count"].sweep(None, 1999)) == [
            len(odd_divisors(n)) for n in range(1, 2000)]

    def test_mismatch_is_reported(self, tmp_path):
        path = write(tmp_path, "b.txt", "1 1\n2 4\n3 999\n4 7\n")
        report = check_sequence("sigma", path)
        assert list(report.mismatches) == [(2, 4, 3), (3, 999, 4)]
        assert report.compared == 4

    def test_max_index_cap(self, tmp_path):
        path = write(tmp_path, "b.txt", "1 1\n2 3\n3 4\n4 999\n")
        report = check_sequence("sigma", path, max_index=3)
        assert report.compared == 3 and not list(report.mismatches)

    def test_entries_below_min_index_skipped(self, tmp_path):
        path = write(tmp_path, "b.txt", "0 123\n1 1\n2 3\n")
        report = check_sequence("sigma", path)
        assert report.compared == 2 and not list(report.mismatches)

    def test_eval_point_required(self, tmp_path):
        path = write(tmp_path, "b.txt", "1 1\n")
        out = tmp_path / "emitted.txt"
        for key in ("pg_eval", "f_eval"):
            message = f"^sequence '{key}' requires --at$"
            with pytest.raises(ValueError, match=message):
                check_sequence(key, path)
            with pytest.raises(ValueError, match=message):
                emit_bfile(key, out, max_index=3)
            assert not out.exists()

    @pytest.mark.parametrize("key", ["pg3", "sigma", "odd_div_count"])
    def test_at_refused_for_fixed_point_sequences(self, tmp_path, key):
        # sigma at 5 once compared G_n(2) and reported ok
        path = write(tmp_path, "b.txt", "1 1\n")
        out = tmp_path / "emitted.txt"
        message = f"^--at does not apply to {key}$"
        with pytest.raises(ValueError, match=message):
            check_sequence(key, path, at=5)
        with pytest.raises(ValueError, match=message):
            emit_bfile(key, out, at=5, max_index=3)
        assert not out.exists()

    def test_point_at(self):
        # the one statement of the --at rule: a fixed point or --at, not both
        assert [SEQUENCES[k].point_at(None)
                for k in ("pg3", "sigma", "odd_div_count")] == [3, 2, 0]
        assert SEQUENCES["pg_eval"].point_at(-7) == -7
        assert SEQUENCES["f_eval"].point_at(0) == 0
        with pytest.raises(ValueError, match="^sequence 'f_eval' requires"):
            SEQUENCES["f_eval"].point_at(None)
        with pytest.raises(ValueError, match="^--at does not apply to pg3$"):
            SEQUENCES["pg3"].point_at(3)  # even at its own point

    def test_nothing_to_compare_is_refused(self, tmp_path, monkeypatch):
        # no report with compared == 0: the library refuses before it sweeps
        def no_sweep(self, at, top):
            raise AssertionError("swept")

        monkeypatch.setattr(SequenceSpec, "sweep", no_sweep)
        far = write(tmp_path, "far.txt", "5 6\n7 8\n")
        with pytest.raises(ValueError, match=r"^no b-file index in 1\.\.3: "
                           "nothing to compare$"):
            check_sequence("sigma", far, max_index=3)
        low = write(tmp_path, "low.txt", "-1 1\n0 1\n")
        with pytest.raises(ValueError, match="^no b-file index >= 1: "
                           "nothing to compare$"):
            check_sequence("sigma", low)
        empty = write(tmp_path, "empty.txt", "# no entries\n")
        with pytest.raises(ValueError, match="^no b-file index >= 0: "):
            check_sequence("f_eval", empty, at=3)

    def test_report_json(self, tmp_path, capsys):
        path = write(tmp_path, "b.txt", "1 2\n2 3\n3 5\n")
        report = check_sequence("sigma", path)
        assert report.to_json() == {"sequence": "sigma", "bfile": "b",
                                    "compared": 3}
        assert list(report.mismatches) == [(1, 2, 1), (3, 5, 4)]
        # the CLI writes every mismatch, last, as it is found
        assert main(["oeis-check", "sigma", str(path), "--format",
                     "json"]) == 1
        assert capsys.readouterr().out == json.dumps(
            {**report.to_json(), "mismatches": [
                {"index": 1, "expected": "2", "computed": "1"},
                {"index": 3, "expected": "5", "computed": "4"}]},
            indent=2) + "\n"


class TestEmit:
    def test_emit_round_trip(self, tmp_path):
        out = tmp_path / "candidate.txt"
        count = emit_bfile("pg_eval", out, at=4, max_index=16)
        assert count == 16
        report = check_sequence("pg_eval", out, at=4)
        assert report.compared == 16 and not list(report.mismatches)

    def test_emit_respects_min_index(self, tmp_path):
        out = tmp_path / "f.txt"
        emit_bfile("f_eval", out, at=5, max_index=5)
        assert next(parse_bfile(out)) == (0, 1)  # the degree-0 polynomial is 1

    def test_registry_metadata(self):
        assert SEQUENCES["pg3"].min_index == 1
        assert SEQUENCES["f_eval"].min_index == 0


class TestLongValues:
    @pytest.mark.parametrize("x", range(-8, 9))
    def test_emitted_lines_match_int_values(self, tmp_path, x):
        for key, values in (("f_eval", islice(fpoly_stream(x), 401)),
                            ("pg_eval", [pg_eval_int(n, x)
                                         for n in range(1, 401)])):
            out = tmp_path / f"{key}.txt"
            emit_bfile(key, out, at=x, max_index=400)
            start = SEQUENCES[key].min_index
            lines = out.read_text(encoding="utf-8").splitlines()
            assert lines == [f"{i} {v}" for i, v in enumerate(values, start)]
            assert not any(line.split()[1] == "-0" for line in lines)

    def test_values_past_the_int_digit_limit(self, tmp_path):
        big = fpoly_value(6000, 7)  # about 5000 digits
        with decimal_radix(big) as exact_big:
            text = f"0 1\n1 -{exact_big}\n2 +{exact_big}\n"
        path = write(tmp_path, "b.txt", text)
        (_, a), (_, b), (_, c) = parse_bfile(path)
        assert (a, b, c) == (1, -big, big)
        assert isinstance(b, Decimal)

    def test_int_literals_only(self, tmp_path):
        path = write(tmp_path, "ok.txt", "1 -0\n2 007\n3 1_000\n4 +5\n")
        entries = tuple(parse_bfile(path))
        assert entries == ((1, 0), (2, 7), (3, 1000), (4, 5))
        assert str(entries[0][1]) == "0"
        for bad in ("1e5", "NaN", "1.0", "Infinity", "0x10", "1__0", "_1"):
            path = write(tmp_path, "bad.txt", f"1 1\n2 {bad}\n")
            with pytest.raises(BFileError, match=r":2:"):
                tuple(parse_bfile(path))

    def test_index_past_the_int_digit_limit(self, tmp_path, capsys):
        # refused at its line, before any sweep is sized from it
        path = write(tmp_path, "b.txt", "1 1\n1" + "0" * 4300 + " 5\n")
        with pytest.raises(BFileError, match=r":2:"):
            tuple(parse_bfile(path))
        assert main(["oeis-check", "sigma", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert ":2: index of 4,301 digits" in err[0]

    def test_long_line_cut_in_message(self, tmp_path):
        path = write(tmp_path, "b.txt", "1 " + "9" * 10000 + "x\n")
        with pytest.raises(BFileError) as exc:
            tuple(parse_bfile(path))
        quoted = str(exc.value).split(" got ", 1)[1]
        assert len(quoted) <= 82 and quoted.endswith("...'")

    def test_round_trip_past_the_int_digit_limit(self, tmp_path):
        out = tmp_path / "f7.txt"  # F_k(7) passes 4300 digits at k ~ 5150
        assert emit_bfile("f_eval", out, at=7, max_index=6000) == 6001
        report = check_sequence("f_eval", out, at=7)
        assert report.compared == 6001 and not list(report.mismatches)
        index, value = next(islice(parse_bfile(out), 6000, None))
        assert index == 6000 and value == fpoly_value(6000, 7)

    def test_refuses_oversized_sweeps(self, tmp_path):
        with pytest.raises(ValueError, match="answer would have about"):
            emit_bfile("f_eval", tmp_path / "f.txt", at=10,
                       max_index=1000000)
        assert not (tmp_path / "f.txt").exists()
