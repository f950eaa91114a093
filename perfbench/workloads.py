"""Seeded operation lists for the two workloads.

A workload is a list of groups; each group runs in one forked child, its
commands back to back.  Every command is one ``torusideals`` CLI call.  The
seed only chooses inputs: the library never sees it.

* verify: the six suites, one group each, at ranges pinned here.
* cli: 120 one-shot ``compute`` queries, one group each, so every query
  starts with cold caches as a CLI user's does; plus one session group of
  twelve ``oeis-check --emit`` and ``table`` commands, in which the caches
  stay warm across about 10^4 consecutive indices and across commands.
  Query sizes are drawn log-uniformly inside the middle of fixed strata,
  with the top of each range always present, so that quantiles and the
  peak differ little between seeds.  In the session the seed chooses signs
  of evaluation points, the small points and ranges within narrow bands;
  magnitudes, the number of points and table formats are fixed, because
  the cost grows with them (the values table costs twice as much in JSON
  as in text).

Known failures stay in the mix at a fixed number per run (see
``KNOWN_FAILURES``); they are not resized away.  They run once per run,
after the timed passes and in children of their own, so that they neither
share a cache with other commands nor tie the number of passes to their
cost.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# The ranges of ``verify all`` at the seed commit, pinned so that raising the
# library's defaults does not change what this benchmark measures.
VERIFY_RANGES = {"routes": 200, "cheb": 64, "series": 64, "mult": 60,
                 "zeta": 500, "special": 10000}
# Checks each pinned suite passed at the seed commit; a changed count fails
# the run, so dropping checks cannot pass as a speed-up.
VERIFY_CHECKS = {"routes": 5064, "cheb": 577, "series": 196, "mult": 8551,
                 "zeta": 2002, "special": 20998}

COMPUTE_SIZES = {"pg": (100, 1500), "tcheb": (100, 1500), "fpoly": (100, 1500),
                 "pn": (1000, 100000), "cn": (1000, 100000),
                 "zeta": (1000, 1000000)}
COMPUTE_PER_KIND = 20
# |x| of the 5 queries per object that take --eval; the seed picks signs
EVAL_MAGNITUDES = (2, 3, 4, 5, 6)
FORMATS = ("text", "json", "csv")
# CPython refuses int -> str beyond 4300 digits; inputs stay below that by a
# margin, except for the known failures.
DIGIT_BUDGET = 3900

KNOWN_FAILURES = {
    # ``--eval`` builds the whole F_6000 first and runs out of the 1.5 GB cap.
    "compute fpoly --n 6000 --eval 3",
    # Terms past index ~6300 (G_n(5)) and ~5100 (F_k(7)) exceed 4300 digits.
    "oeis-check pg_eval --at 5 --max-n 10000",
    "oeis-check f_eval --at 7 --max-n 10000",
}


@dataclass(frozen=True)
class Command:
    """One CLI call.  ``emit`` adds ``--emit <file>`` at run time; ``params``
    tells the checker what the output must be."""

    key: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, hash=False, compare=False)
    emit: bool = False

    @property
    def known_failure(self) -> bool:
        return " ".join(self.argv) in KNOWN_FAILURES


def growth_digits(x: int) -> float:
    """log10 of the growth rate of V_k(x) and F_k(x) in k (0 for |x| <= 2)."""
    if abs(x) <= 2:
        return 0.0
    return math.log10((abs(x) + math.sqrt(x * x - 4)) / 2)


def _value_digits(kind: str, n: int, x: int) -> float:
    if kind in ("pn", "cn"):  # polynomials in q of degree about 2n
        return 2 * n * math.log10(abs(x)) if abs(x) > 1 else 0.0
    return (n + 1) * growth_digits(x)


def build(workload: str, seed: int) -> list[list[Command]]:
    rng = random.Random(seed)
    if workload == "verify":
        return _verify(rng)
    if workload == "cli":
        return _queries(rng) + _session(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _verify(rng: random.Random) -> list[list[Command]]:
    suites = list(VERIFY_RANGES)
    rng.shuffle(suites)
    return [[Command(f"verify-{s}",
                     ("verify", s, "--max-n", str(VERIFY_RANGES[s]),
                      "--format", "json"),
                     {"op": "verify", "suite": s})]
            for s in suites]


def _queries(rng: random.Random) -> list[list[Command]]:
    cmds = []
    for kind, (lo, hi) in COMPUTE_SIZES.items():
        m = COMPUTE_PER_KIND
        # which strata evaluate, at which |x|, and in which format each
        # prints, is fixed: drawn by the seed, they moved the median query
        # between seeds by more than the runs of one seed differ
        evals = {} if kind == "zeta" else dict(zip(
            range(1, m, m // len(EVAL_MAGNITUDES)), EVAL_MAGNITUDES))
        formats = [FORMATS[i % 3] for i in range(m)]
        for i in range(m):
            # the middle quarter of stratum i; the top of the range always
            u = 1.0 if i == m - 1 else (i + 0.375 + rng.random() / 4) / m
            n = round(lo * (hi / lo) ** u)
            argv = ["compute", kind, "--n", str(n)]
            params = {"op": "compute", "kind": kind, "n": n,
                      "format": formats[i]}
            if i in evals:
                # the largest |x| up to the stratum's that stays in budget
                mag = max(x for x in range(evals[i] + 1)
                          if _value_digits(kind, n, x) < DIGIT_BUDGET)
                x = rng.choice((-mag, mag))
                argv += ["--eval", str(x)]
                params["x"] = x
            argv += ["--format", formats[i]]
            cmds.append(Command(f"{kind}-{i:02d}", tuple(argv), params))
    cmds.append(Command("fpoly-oversize",
                        ("compute", "fpoly", "--n", "6000", "--eval", "3"),
                        {"op": "compute", "kind": "fpoly", "n": 6000,
                         "format": "text", "x": 3}))
    rng.shuffle(cmds)
    return [[c] for c in cmds]


def _band(rng: random.Random, top: int) -> int:
    """A size in the top 1% below ``top``: some session commands cost the
    cube of their size or more, and wider bands made the session's time
    differ by seed more than its runs differ."""
    return rng.randint(top - top // 100, top)


def _sign(rng: random.Random, x: int) -> int:
    return x if x == 7 or rng.random() < 0.5 else -x


def _session(rng: random.Random) -> list[list[Command]]:
    cmds: list[Command] = []

    def emit(seq: str, max_n: int, x: int | None = None,
             argv: tuple[str, ...] | None = None) -> None:
        at = () if x is None else ("--at", str(x))
        argv = argv or ("oeis-check", seq, *at, "--max-n", str(max_n))
        cmds.append(Command(f"emit-{len(cmds):02d}", argv,
                            {"op": "emit", "seq": seq, "x": x, "max_n": max_n},
                            emit=True))

    def table(which: str, fmt: str, max_n: int, points: list[int] | None = None) -> None:
        argv = ["table", which, "--max-n", str(max_n), "--format", fmt]
        if points:
            argv.append("--N=" + ",".join(map(str, points)))  # "-3,..." is no option
        cmds.append(Command(f"table-{len(cmds):02d}", tuple(argv),
                            {"op": "table", "which": which, "max_n": max_n,
                             "format": fmt, "points": points}))

    emit("sigma", _band(rng, 10000))
    emit("odd_div_count", _band(rng, 10000))
    for seq, big in (("pg_eval", 3), ("f_eval", 4)):
        x = _sign(rng, big)
        top = min(10000, int(DIGIT_BUDGET / growth_digits(x)) - 2)
        emit(seq, _band(rng, top), x)
        emit(seq, _band(rng, 10000), rng.randint(-2, 2))
    points = [_sign(rng, x) for x in (3, 5, 7)] + [rng.randint(-2, 2)]
    rng.shuffle(points)
    table("values", "text", _band(rng, 3000), points)
    table("decomp", "csv", _band(rng, 500))
    table("pg", "json", _band(rng, 300))
    table("fpoly", "text", _band(rng, 600))
    for known in sorted(KNOWN_FAILURES):
        argv = tuple(known.split())
        if argv[0] == "oeis-check":
            emit(argv[1], int(argv[-1]), int(argv[3]), argv)
    return [cmds]


def interval_samples(groups: list[list[Command]], seed: int) -> list[tuple[int, int]]:
    """(n, x) pairs at which ``pg_via_interval(n).eval_int(x)`` is compared
    with the G_n(x) values that the session printed: six per point, n <= 300,
    where the interval route is cheap."""
    per_point, max_n = 6, 300
    rng = random.Random(seed ^ 0x5EED)
    out = set()
    for c in (c for g in groups for c in g):
        p = c.params
        if c.known_failure:
            continue
        if p.get("op") == "emit" and p["seq"] == "pg_eval":
            xs = [p["x"]]
        elif p.get("op") == "table" and p["which"] == "values":
            xs = p["points"]
        else:
            continue
        top = min(max_n, p["max_n"])
        for x in xs:
            out.update((n, x) for n in rng.sample(range(1, top + 1), per_point))
    return sorted(out)
