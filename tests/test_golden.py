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
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from torusideals.cli import TABLE_DEFAULTS, main

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("text", "json", "csv")


def corpus() -> list[list[str]]:
    """``compute`` of every kind at small n, with and without ``--eval``;
    ``table`` of every kind at its default range and at ``--max-n 30``;
    ``verify all``; answers written in more than one piece: whole
    polynomials of over 1500 coefficients and a table of 121 of them; each
    in every format."""
    commands = []
    for n in (0, 1, 2, 5, 12, 45):
        commands.append(["compute", "zeta", f"--n={n}"])
        for kind in ("tcheb", "fpoly", "pg", "cn", "pn"):
            commands.append(["compute", kind, f"--n={n}"])
            commands += [["compute", kind, f"--n={n}", f"--eval={x}"]
                         for x in (-3, -1, 0, 1, 2, 5)]
    for which in TABLE_DEFAULTS:
        commands.append(["table", which])
        commands.append(["table", which, "--max-n=30", "--N=3,-5,0,1"])
    commands.append(["verify", "all", "--max-n=12"])
    commands += [["compute", kind, "--n=1500"]
                 for kind in ("tcheb", "fpoly", "pg")]
    commands += [["compute", kind, "--n=140000"] for kind in ("cn", "pn")]
    commands.append(["table", "fpoly", "--max-n=120"])
    return [[*argv, f"--format={fmt}"] for argv in commands for fmt in FORMATS]


def digest(argv: list[str]) -> str:
    """A hash of what ``argv`` prints and returns."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def hashes() -> dict[str, str]:
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
