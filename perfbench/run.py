"""End-to-end benchmark of the torusideals CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verify,cli} --seed N \\
        --seconds S --trace {0,1}

The library is imported once; every operation then runs in a child forked
from that state, so caches start cold as they do for a CLI user, and the
child's peak RSS comes from ``wait4``.  Children run under a 1.5 GB
address-space cap, so a memory regression fails an operation instead of
exhausting the machine.  All work is closed-loop with one client.

With ``--trace 0`` the workload's pass (its seeded operation list) runs
once and then repeats, group by group, while the next group fits in
``--seconds``; the end-to-end metrics use the median over the passes of
each operation's paced time, its CPU time corrected for the host's
drifting speed (see ``pace``).  With ``--trace 1`` one untraced and one
traced pass run, and the per-layer metrics come from the traced one.
Known failures run once after the passes, in either mode.  Outputs are
checked only after all timed work, against ``checks``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the metrics and the workloads.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from pace import Pace
from tracer import LAYERS, PEAK_LAYERS, Tracer

CAP_BYTES = 1_500_000_000
SETUP_REPS = 21
HERE = Path(__file__).resolve().parent
IMPORT_TIMER = """
import time
from pace import burst
rates = burst()
c0 = time.process_time()
import torusideals.cli
cpu = time.process_time() - c0
rates += burst()
print(cpu * sum(rates) / len(rates))
"""
WORK_DIR = ".perfbench_work"
MB = 1 << 20


# -- running operations ----------------------------------------------------------

def _child(cmds: list[workloads.Command], pdir: Path, traced: bool) -> list[dict]:
    from torusideals import cli

    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))
    os.chdir(pdir)  # relative --emit paths keep outputs equal across passes
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    pace = Pace(tracer.exclude if tracer else None)
    records = []
    for c in cmds:
        argv = list(c.argv)
        if c.emit:
            argv += ["--emit", f"{c.key}.b"]
        with open(f"{c.key}.out", "w", encoding="utf-8") as out, \
                open(f"{c.key}.err", "w", encoding="utf-8") as err:
            sys.stdout, sys.stderr = out, err
            if tracer:
                tracer.begin()
            pace.start()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = None
            wall, cpu, rate = pace.stop()
            layers = tracer.totals if tracer else None
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        records.append({"key": c.key, "rc": rc, "wall": wall, "cpu": cpu,
                        "paced": cpu * rate, "rate": rate, "layers": layers})
    return records


def in_child(work) -> tuple[object, resource.struct_rusage]:
    """Run ``work()`` in a forked child; return its JSON-able result (None if
    the child broke or was killed) and the child's resource usage."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        status = 0
        try:
            data = json.dumps(work()).encode()
            with os.fdopen(wfd, "wb") as pipe:
                pipe.write(data)
        except BaseException:
            status = 1
            os.write(2, traceback.format_exc().encode())
        os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    return (json.loads(data) if status == 0 and data else None), usage


def run_group(cmds: list[workloads.Command], pdir: Path, traced: bool) -> list[dict]:
    """Run ``cmds`` back to back in one forked child; one record per command,
    each carrying the child's peak RSS in MB and the group's wall time."""
    t0 = time.perf_counter()
    records, usage = in_child(lambda: _child(cmds, pdir, traced))
    took = time.perf_counter() - t0
    if records is None:  # every command in a broken child failed
        records = [{"key": c.key, "rc": None, "wall": 0.0, "cpu": 0.0,
                    "paced": 0.0, "rate": 1.0, "layers": None} for c in cmds]
    for r in records:
        r["rss_mb"] = usage.ru_maxrss * 1024 / MB
        r["group_s"] = took
        r["bytes"] = sum(p.stat().st_size for p in
                         (pdir / f"{r['key']}.out", pdir / f"{r['key']}.b")
                         if p.exists())
    return records


def run_pass(groups: list[list[workloads.Command]], pdir: Path,
             traced: bool = False, fits=lambda g: True) -> dict[str, dict]:
    """Run the groups for which ``fits(group)`` holds when their turn
    comes."""
    pdir.mkdir()
    return {r["key"]: r for g in groups if g and fits(g)
            for r in run_group(g, pdir, traced)}


def drop_repeats(pdir: Path, first: Path, records: dict[str, dict]) -> None:
    """Delete a pass's outputs that equal the first pass's byte for byte, so
    that only distinct outputs are kept and checked."""
    for key, r in records.items():
        names = [f"{key}{ext}" for ext in (".out", ".err", ".b")]
        same = all((pdir / n).exists() == (first / n).exists() and
                   (not (pdir / n).exists()
                    or filecmp.cmp(pdir / n, first / n, shallow=False))
                   for n in names)
        if same:
            for n in names:
                (pdir / n).unlink(missing_ok=True)
        r["same_as_first"] = same


def interval_values(samples: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """pg_via_interval(n).eval_int(x) for each sample, in a forked child."""
    def work() -> list[int]:
        from torusideals.hilbert import pg_via_interval
        return [pg_via_interval(n).eval_int(x) for n, x in samples]

    values, _ = in_child(work) if samples else ([], None)
    if values is None:
        raise RuntimeError("interval oracle failed")
    return dict(zip(samples, values))


def measure_setup(root: Path) -> float:
    """Median paced time of ``import torusideals.cli`` in a fresh
    interpreter; the interpreter samples its rate in bursts just before and
    just after the import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", IMPORT_TIMER]
    subprocess.run(cmd, env=env, check=True,  # writes the bytecode cache
                   stdout=subprocess.DEVNULL)
    return statistics.median(
        float(subprocess.run(cmd, env=env, check=True, capture_output=True,
                             text=True).stdout)
        for _ in range(SETUP_REPS))


# -- checking ----------------------------------------------------------------------

def _read(path: Path) -> str | None:
    return path.read_text(encoding="utf-8") if path.exists() else None


def judge(cmds: dict[str, workloads.Command],
          passes: list[tuple[Path, dict[str, dict]]], checker: checks.Checker) -> None:
    """Set ``ok``, ``wrong``, ``terms`` and ``detail`` on every record.

    An operation fails when it does not exit 0 or prints a traceback, and
    is wrong when it exits 0 with an output that breaks a check."""
    first: dict[str, dict] = {}
    with checks.unlimited_parsing():
        for pdir, records in passes:
            for key, r in records.items():
                prev = first.get(key)
                if r.get("same_as_first") and prev is not None and prev["rc"] == r["rc"]:
                    for k in ("ok", "wrong", "terms", "detail"):
                        r[k] = prev[k]
                    continue
                err = _read(pdir / f"{key}.err") or ""
                v = checker.check(cmds[key], r["rc"], _read(pdir / f"{key}.out") or "",
                                  _read(pdir / f"{key}.b"))
                if "Traceback" in err:
                    v = checks.Verdict(False, 0, "traceback")
                r.update(ok=v.ok, wrong=r["rc"] == 0 and not v.ok, terms=v.terms,
                         detail=" ".join(filter(None, (v.detail, err.strip()[-200:]))))
                first.setdefault(key, r)


# -- metrics -----------------------------------------------------------------------

def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(groups, passes: list[dict[str, dict]], setup_s: float) -> tuple[dict, int]:
    """Failed operations are left out of every figure but ``success_rate``,
    the share of the workload's operations that never failed.

    An operation's latency is the median of its paced times (see ``pace``)
    over the passes.  The quantiles cover
    the one-shot operations (a group of one); the commands of a session
    depend on its warm caches.  ``terms_per_s`` covers the operations that
    print terms: verify checks, b-file lines and table rows."""
    lat: dict[str, float] = {}
    terms: dict[str, int] = {}
    for c in (c for g in groups for c in g):
        ok = [p[c.key] for p in passes if c.key in p and p[c.key]["ok"]]
        if ok:
            lat[c.key] = statistics.median(r["paced"] for r in ok)
            terms[c.key] = ok[0]["terms"]
    one_shot = [lat[g[0].key] for g in groups if len(g) == 1 and g[0].key in lat]
    term_s = sum(lat[k] for k, t in terms.items() if t)
    peak = max(statistics.median(p[g[0].key]["rss_mb"] for p in passes if g[0].key in p)
               for g in groups if any(p.get(c.key, {}).get("ok") for p in passes for c in g))
    keys = {k for p in passes for k in p}
    never_failed = [all(p[k]["ok"] for p in passes if k in p) for k in keys]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(lat.values()), "s"),
        "p50_s": (statistics.median(one_shot), "s"),
        "p90_s": (_p90(one_shot), "s"),
        "peak_rss_mb": (peak, "MB"),
        "terms_per_s": (sum(terms.values()) / term_s, "1/s"),
        "success_rate": (sum(never_failed) / len(never_failed), "ratio"),
    }, len(one_shot)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        if layer.startswith("verify."):
            out += [(f"{layer}.s", "s"), (f"{layer}.checks", "count")]
            continue
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        if layer in PEAK_LAYERS:
            out.append((f"{layer}.peak_mb", "MB"))
    out += [("oeis.emit.terms", "count"), ("cli.output_bytes", "bytes"),
            ("session.peak_rss_mb", "MB"), ("workload.wait_s", "s"),
            ("trace.overhead_frac", "ratio")]
    return out


def per_layer(groups, plain: dict[str, dict], traced: dict[str, dict]) -> dict:
    """``groups`` without the known failures.  ``session.peak_rss_mb`` is the
    peak RSS of the untraced session child (0 on a workload without one)."""
    ok = [c for g in groups for c in g  # failed ones may stop anywhere
          if c.key in traced and traced[c.key]["ok"] and plain[c.key]["ok"]]
    values: dict[str, float] = {name: 0 for name, _ in per_layer_names()}
    for c in ok:
        rate = traced[c.key]["rate"]  # self times are paced like latencies
        for layer, (calls, self_s, peak) in traced[c.key]["layers"].items():
            if layer.startswith("verify."):
                continue
            values[f"{layer}.calls"] += calls
            values[f"{layer}.self_s"] += self_s * rate
            if layer in PEAK_LAYERS:
                values[f"{layer}.peak_mb"] = max(values[f"{layer}.peak_mb"], peak / 1024)
        suite = c.params.get("suite")
        if suite:
            values[f"verify.{suite}.s"] = plain[c.key]["paced"]
            values[f"verify.{suite}.checks"] = traced[c.key]["terms"]
        if c.params["op"] == "emit":
            values["oeis.emit.terms"] += traced[c.key]["terms"]
        values["cli.output_bytes"] += traced[c.key]["bytes"]
    values["session.peak_rss_mb"] = max(
        (plain[g[0].key]["rss_mb"] for g in groups if len(g) > 1), default=0)
    values["workload.wait_s"] = sum(r["wall"] - r["cpu"] for r in plain.values())
    plain_s = sum(plain[c.key]["paced"] for c in ok)
    values["trace.overhead_frac"] = (
        sum(traced[c.key]["paced"] for c in ok) - plain_s) / plain_s
    units = dict(per_layer_names())
    return {name: (v, units[name]) for name, v in values.items()}


# -- entry point -------------------------------------------------------------------

def run(args: argparse.Namespace, root: Path, work: Path) -> dict:
    groups = workloads.build(args.workload, args.seed)
    # known failures run once per run, after the timed passes
    regular = [[c for c in g if not c.known_failure] for g in groups]
    known = [[c for c in g if c.known_failure] for g in groups]
    if args.trace:
        passes = [(work / "plain", run_pass(regular, work / "plain")),
                  (work / "traced", run_pass(regular, work / "traced", traced=True))]
    else:
        setup_s = measure_setup(root)
        # The first pass runs every group.  Later ones run each group whose
        # first-pass time still fits before the deadline, so the run ends
        # close to --seconds whatever a pass takes.
        deadline = time.perf_counter() + args.seconds
        pdir = work / "pass0"
        passes = [(pdir, run_pass(regular, pdir))]
        first = passes[0][1]

        def fits(g: list[workloads.Command]) -> bool:
            return time.perf_counter() + first[g[0].key]["group_s"] <= deadline

        while any(g and fits(g) for g in regular):
            pdir = work / f"pass{len(passes)}"
            records = run_pass(regular, pdir, fits=fits)
            drop_repeats(pdir, passes[0][0], records)
            passes.append((pdir, records))
    timed = len(passes)
    if any(known):
        passes.append((work / "known", run_pass(known, work / "known")))

    cmds = {c.key: c for g in groups for c in g}
    samples = workloads.interval_samples(groups, args.seed)
    judge(cmds, passes, checks.Checker(interval_values(samples)))

    # An operation is one command of the seeded list, however many passes
    # repeat it; it fails if any of its runs fails.  So attempted and failed
    # do not depend on how many passes fit in the time.
    runs = [(cmds[k], r) for _, p in passes for k, r in p.items()]
    failures: dict[str, tuple] = {}
    for c, r in runs:
        if not r["ok"]:
            failures.setdefault(c.key, (c, r))
    unexpected = 0
    for c, r in failures.values():
        expected = c.known_failure and not r["wrong"]
        unexpected += not expected
        print(f"{'known failure' if expected else 'FAILED'}: {' '.join(c.argv)}: "
              f"{r['detail']}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(regular, passes[0][1], passes[1][1])
        note = f"one untraced and one traced pass, {len(cmds)} operations"
    else:
        metrics, samples_n = end_to_end(groups, [p for _, p in passes], setup_s)
        note = (f"{timed} passes (the last may be partial); latency quantiles "
                f"over {samples_n} per-operation medians; setup_s over "
                f"{SETUP_REPS} imports")
    rates = [r["rate"] for _, r in runs if r["ok"]]
    note += f"; mean host rate {statistics.fmean(rates):.3f}" if rates else ""
    print(f"# {args.workload} seed={args.seed}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    return {"correct": unexpected == 0, "attempted": len(cmds), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "torusideals" / "cli.py").is_file():
        print("error: run from the root of a torusideals checkout "
              "(src/torusideals/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import torusideals.cli  # noqa: F401  (children fork from the imported state)

    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
