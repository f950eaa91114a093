"""Byte-identity of the CLI on a fixed corpus of commands.

Each command runs through ``cli.main`` in-process; its exit code, stdout
and stderr are hashed and compared with ``golden_cli.json``.  A change
that alters output on purpose regenerates that file by running this
module directly::

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from refdata import VALUES_TABLE
from torusideals.cli import TABLE_DEFAULTS, main

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("text", "json", "csv")
EMITTED = "emitted.txt"  # the --emit target, hashed with the output


def _lucas_bisection(k: int) -> int:
    """L(2k + 1), the Lucas numbers 2, 1, 3, 4, ... at odd places."""
    a, b = 2, 1
    for _ in range(2 * k + 1):
        a, b = b, a + b
    return a


def _lines(pairs) -> str:
    return "".join(f"{i} {v}\n" for i, v in pairs)


SPARSE = (1, 2, 7, 2046, 2047, 2048, 2049, 2050, 3001, 4095, 4096, 4097,
          4500)


# b-files from data independent of the library: the reference values
# table, divisor sums and counts by trial, and the Lucas recurrence
BFILES = {
    "b329156.txt": _lines((n, r[0]) for n, r in VALUES_TABLE.items()),
    "b_pg4.txt": _lines((n, r[2]) for n, r in VALUES_TABLE.items()),
    "b002878.txt": _lines((k, _lucas_bisection(k)) for k in range(30)),
    "b000203.txt": _lines(
        (n, sum(d for d in range(1, n + 1) if n % d == 0))
        for n in range(1, 61)),
    "b001227.txt": _lines(
        (n, sum(1 for d in range(1, n + 1, 2) if n % d == 0))
        for n in range(1, 61)),
    "b_wrong.txt": _lines((n, 0) for n in range(1, 26)),
    "b_far.txt": "5 6\n7 8\n",
    "b_low.txt": "# below every first index\n-2 1\n-1 1\n",
    "b_bad.txt": "1 1\n2 x\n",
    "b,comma.txt": "1 1\n2 3\n3 4\n",
    # sparse indices on both sides of the sweeps' blocks of 2^11 and 2^12,
    # one value wrong in each
    "b_sparse_sigma.txt": _lines(
        (n, sum(d for d in range(1, n + 1) if n % d == 0) + (n == 4096))
        for n in SPARSE),
    "b_sparse_odd.txt": _lines(
        (n, sum(1 for d in range(1, n + 1, 2) if n % d == 0) - (n == 2049))
        for n in SPARSE),
    "b_sparse_f2.txt": _lines((k, 2 * k + 1 + (k == 4500)) for k in SPARSE),
}


def _oeis_commands() -> list[list[str]]:
    """``oeis-check``: a pass for each sequence, a mismatch, an empty
    overlap with either span, ``--at`` missing or given where it does not
    apply, a missing and a malformed b-file and a stem with a comma."""
    return [
        ["oeis-check", "pg3", "b329156.txt"],
        ["oeis-check", "pg_eval", "b329156.txt", "--at=3"],
        ["oeis-check", "pg_eval", "b_pg4.txt", "--at=4", "--max-n=9"],
        ["oeis-check", "f_eval", "b002878.txt", "--at=3"],
        ["oeis-check", "sigma", "b000203.txt"],
        ["oeis-check", "odd_div_count", "b001227.txt"],
        ["oeis-check", "sigma", "b_wrong.txt"],
        ["oeis-check", "sigma", "b_far.txt", "--max-n=3"],
        ["oeis-check", "f_eval", "b_low.txt", "--at=3"],
        ["oeis-check", "pg_eval", "b329156.txt"],
        ["oeis-check", "f_eval", "b002878.txt"],
        *(["oeis-check", key, "b000203.txt", "--at=3"]
          for key in ("pg3", "sigma", "odd_div_count")),
        ["oeis-check", "sigma", "missing.txt"],
        ["oeis-check", "sigma", "b_bad.txt"],
        ["oeis-check", "sigma", "b,comma.txt"],
        ["oeis-check", "sigma"],
        ["oeis-check", "sigma", "b_sparse_sigma.txt"],
        ["oeis-check", "odd_div_count", "b_sparse_odd.txt"],
        ["oeis-check", "f_eval", "b_sparse_f2.txt", "--at=2"],
        ["oeis-check", "sigma", "b_sparse_sigma.txt", "--max-n=4095"],
    ]


# Command lines that argparse refuses, or that only argparse reads, as it
# prints them: help, usage errors, abbreviations and "--"
ARGPARSE = [
    ["-h"],
    *([command, "--help"] for command in ("compute", "table", "verify",
                                         "oeis-check")),
    [],
    ["frobnicate"],
    ["--format", "json", "compute", "pg", "--n", "3"],
    ["compute", "nonsense", "--n", "3"],
    ["compute", "pg", "--n", "3", "--format", "xml"],
    ["compute", "pg"],
    ["compute", "pg", "--n", "x"],
    ["compute", "pg", "--n", "3", "--eval", "3.5"],
    ["compute", "pg", "--n", "3", "--out", "-x"],
    ["table", "values", "--N", "-3,4"],
    ["table", "fpoly", "--max", "5"],
    ["compute", "pg", "--n", "3", "--form=json"],
    ["compute", "--n", "3", "--", "pg"],
    ["compute", "pg", "extra", "--n", "3"],
    ["oeis-check", "sigma", "b000203.txt", "b001227.txt"],
    ["verify", "bogus"],
]


def corpus() -> list[list[str]]:
    """``compute`` of every kind at small n, with and without ``--eval``;
    ``table`` of every kind at its default range and at ``--max-n 30``;
    ``verify all``; ``verify zeta`` at its default range and at
    ``--max-n 20``; answers written in more than one piece: whole
    polynomials of over 1500 coefficients and a table of 121 of them;
    C_n and P_n, their values and the zeta factors at n with 24 and 48 odd
    divisors, the values also at x in -2..1;
    ``oeis-check`` against the ``BFILES``; the refusals of sizes below
    each first index, of ``--eval`` for zeta, of a repeated point and of
    ``--max-n 0`` for verify; sweeps past a block of the odd-divisor walk:
    checks against sparse b-files and a values table at |x| <= 2 and 3;
    whole polynomials at n = 3000 and a malformed ``--N``; each in every
    format.  Last, in text only: ``--emit`` past a block at every x in
    -3..3, the polynomial and decomposition tables to 200, and the
    polynomial tables of one to three rows, whose header is as wide as
    their last row or wider.  Then the ``ARGPARSE`` command lines, as
    they are."""
    commands = []
    for n in (-1, 0, 1, 2, 5, 12, 45):
        commands.append(["compute", "zeta", f"--n={n}"])
        for kind in ("tcheb", "fpoly", "pg", "cn", "pn"):
            commands.append(["compute", kind, f"--n={n}"])
            commands += [["compute", kind, f"--n={n}", f"--eval={x}"]
                         for x in (-3, -1, 0, 1, 2, 5)]
    for which in TABLE_DEFAULTS:
        commands.append(["table", which])
        commands.append(["table", which, "--max-n=30", "--N=3,-5,0,1"])
    commands.append(["verify", "all", "--max-n=12"])
    commands += [["verify", "zeta", *extra] for extra in ([], ["--max-n=20"])]
    commands += [["compute", kind, "--n=1500"]
                 for kind in ("tcheb", "fpoly", "pg")]
    commands += [["compute", kind, "--n=140000"] for kind in ("cn", "pn")]
    # many odd divisors: tau_odd is 24 at n = 3465 and 48 at 45045 and 720720
    commands += [["compute", kind, "--n=3465", f"--eval={x}"]
                 for kind in ("cn", "pn") for x in (-3, 2, 7)]
    # the points where a value might branch: P_n(1) = sigma(n), x = 0, and
    # an exact Decimal's -0 and 0 ** 0
    commands += [["compute", kind, f"--n={n}", f"--eval={x}"]
                 for n, xs in ((45045, (-2, -1, 0, 1)), (720720, (-1, 0, 1)))
                 for kind in ("cn", "pn") for x in xs]
    commands += [["compute", kind, "--n=45045"]
                 for kind in ("cn", "pn", "zeta")]
    commands.append(["compute", "zeta", "--n=720720"])
    commands.append(["table", "fpoly", "--max-n=120"])
    commands += _oeis_commands()
    commands.append(["compute", "zeta", "--n=5", "--eval=2"])
    commands += [["table", which, f"--max-n={n}"]
                 for which in TABLE_DEFAULTS for n in (-1, 0)]
    commands.append(["table", "values", "--N=3,5,3"])
    commands.append(["verify", "all", "--max-n=0"])
    commands.append(["table", "values", "--max-n=4500",
                     "--N=-2,-1,0,1,2,3"])
    commands += [["compute", kind, "--n=3000"]
                 for kind in ("tcheb", "fpoly", "pg")]
    commands += [["table", "values", "--N=3,,4"], ["table", "values", "--N=x"]]
    text_only = [
        ["oeis-check", "sigma", f"--emit={EMITTED}", "--max-n=20"],
        ["oeis-check", "f_eval", "b002878.txt", "--at=3", f"--emit={EMITTED}",
         "--max-n=12"],
        ["oeis-check", "pg_eval", f"--emit={EMITTED}"],
        ["oeis-check", "odd_div_count", "--at=2", f"--emit={EMITTED}"]]
    # sweeps past a block: at |x| <= 2 past two of 2^11, at |x| = 3 past one
    for x in range(-3, 4):
        top = 4500 if abs(x) <= 2 else 2100
        text_only += [["oeis-check", seq, f"--at={x}", f"--emit={EMITTED}",
                       f"--max-n={top}"] for seq in ("pg_eval", "f_eval")]
    text_only += [["oeis-check", seq, f"--emit={EMITTED}", "--max-n=4500"]
                  for seq in ("sigma", "odd_div_count")]
    # text tables of 200 rows, whose columns are padded to the widest cell
    text_only += [["table", which, "--max-n=200"]
                  for which in ("tcheb", "pg", "fpoly", "decomp")]
    text_only += [["table", which, f"--max-n={n}"]
                  for which in ("tcheb", "pg", "fpoly") for n in (1, 2, 3)]
    return ([[*argv, f"--format={fmt}"] for argv in commands
             for fmt in FORMATS]
            + [[*argv, "--format=text"] for argv in text_only] + ARGPARSE)


@contextmanager
def in_bfile_dir():
    """Run in a fresh directory that holds the ``BFILES``, so that no
    message names a temporary path."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in BFILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(home)


def digest(argv: list[str]) -> str:
    """A hash of what ``argv`` prints and returns, or exits with, and of the
    file it emits, if any."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    blob = [code, out.getvalue(), err.getvalue()]
    if os.path.exists(EMITTED):
        blob.append(Path(EMITTED).read_text(encoding="utf-8"))
        os.remove(EMITTED)
    return hashlib.sha256(json.dumps(blob).encode()).hexdigest()[:16]


def hashes() -> dict[str, str]:
    # argparse wraps its help and usage to the terminal's width
    with in_bfile_dir(), patch.dict(os.environ, COLUMNS="80"):
        return {" ".join(argv): digest(argv) for argv in corpus()}


def test_output_matches_golden_corpus():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = hashes()
    assert now.keys() == golden.keys()
    changed = [cmd for cmd, h in now.items() if golden[cmd] != h]
    assert not changed, f"{len(changed)} commands changed output: {changed[:10]}"


if __name__ == "__main__":
    now = hashes()
    GOLDEN.write_text(json.dumps(now, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(now)} hashes to {GOLDEN}", file=sys.stderr)
