"""Benchmark of the hurwitz CLI: cold child processes, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``hurwitz`` invocation, run in a fresh child process
per repetition, because a CLI user pays the package's cold caches on every
run.  The load is a closed loop with one client: one child at a time.  The
seed fixes the order in which workload runs and set-up probes (children
that import the CLI and exit) are interleaved; the program receives only
the workload's argv.  Every workload run sits between two runs of
reference.py, a fixed job that measures the machine's speed at that moment.

With ``--trace 0`` the end-to-end metrics are reported as medians over the
run: wall and CPU time of the child as multiples of the reference job
around it (``wall_rel``, ``cpu_rel``), set-up time (spawn until the CLI is imported
and ready to parse) and peak RSS; raw seconds are printed alongside.  With
``--trace 1`` traced runs are added, and the per-layer metrics of tracer.py
are reported together with the tracing overhead and coverage.

Every run is checked: table output must match the bytes recorded for this
benchmark and every row must equal the closed formulas computed in this
process; ``verify`` must exit 0 with every recorded check present and
passing.  A run that fails its check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
interleaves every workload and prints one table for all of them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150.0

# Check names reported by `hurwitz verify`: a later version may add checks,
# but every one of these must still be present and pass.
VERIFY_CHECKS = (
    "pde_residual", "g1_forms_agree", "sym_closed_form_a", "sym_closed_form_b",
    "sym_closed_form_c", "sym_closed_form_d", "sym_closed_form_e",
    "psi_image_series", "u1_vanishes", "u2_vanishes", "u3_vanishes",
    "u1_series", "u2_series", "u3_series", "kernel_recombination",
    "elem_sym_extraction", "s_xdiff_identity", "s_pdiff_identity",
    "psi_pdiff_identity", "g1_xdiff_identity", "g1_pdiff_identity",
)


@dataclass
class Run:
    """Outcome of one child process."""

    mode: str
    argv: list[str]
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    report: dict


@dataclass
class Workload:
    name: str
    argv: list[str]
    why: str
    check: Callable[["Workload", Run], str | None]
    table_n: int | None = None
    stdout_sha256: str | None = None


# -- correctness checks -------------------------------------------------------


@lru_cache(maxsize=None)
def expected_rows(n: int) -> list[list[str]]:
    """Rows of `hurwitz table --n n` computed from the closed formulas."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from hurwitz.closedform import c_value, mu0, mu1
    from hurwitz.partitions import partitions_of

    return [
        [str(a), str(c_value(a, 0)), str(mu0(a)), str(c_value(a, 1)), str(mu1(a))]
        for a in partitions_of(n)
    ]


def table_rows_problem(n: int, stdout: bytes) -> str | None:
    """First disagreement between a table's rows and the closed formulas."""
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8", "replace"))))
    if not rows or rows[0] != ["alpha", "c0", "mu0", "c1", "mu1"]:
        return "table header missing"
    want = expected_rows(n)
    if len(rows) - 1 != len(want):
        return f"{len(rows) - 1} rows, want {len(want)}"
    for got, exp in zip(rows[1:], want):
        if len(got) != 5 or got[0] != exp[0]:
            return f"row {got} out of order, want alpha {exp[0]}"
        try:
            same = [int(got[1]), Fraction(got[2]), int(got[3]), Fraction(got[4])] == [
                int(exp[1]), Fraction(exp[2]), int(exp[3]), Fraction(exp[4])
            ]
        except ValueError:
            same = False
        if not same:
            return f"row {got} != closed formulas {exp}"
    return None


def check_table(w: Workload, run: Run) -> str | None:
    if run.exit_code != 0:
        return f"exit status {run.exit_code}"
    problem = table_rows_problem(w.table_n, run.stdout)
    if problem:
        return problem
    if hashlib.sha256(run.stdout).hexdigest() != w.stdout_sha256:
        return "stdout bytes differ from the recorded output"
    return None


def check_verify(w: Workload, run: Run) -> str | None:
    problems = [f"exit status {run.exit_code}"] if run.exit_code != 0 else []
    try:
        checks = json.loads(run.stdout)["checks"]
        status = {c["name"]: c["status"] for c in checks}
    except (ValueError, KeyError, TypeError) as err:
        return "; ".join(problems + [f"unreadable verify report: {err}"])
    missing = [name for name in VERIFY_CHECKS if name not in status]
    if missing:
        problems.append(f"checks missing from the report: {missing}")
    failing = [name for name, s in status.items() if s != "pass"]
    if failing:
        problems.append(f"checks not passing: {failing}")
    return "; ".join(problems) or None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cutjoin-table",
            ["table", "--n", "13", "--method", "cutjoin"],
            "many small series: one evolve at N=K=13, dominated by PSeries construction",
            check_table,
            table_n=13,
            stdout_sha256="9d209f7085723ffd95c8ecab6706cf723084c13fed249ec6f94254f1670c4aa1",
        ),
        Workload(
            "verify",
            ["verify", "--N", "12"],
            "few large products: the s_series fixed point and the identity checks, "
            "dominated by PSeries multiplication",
            check_verify,
        ),
        Workload(
            "oracle-table",
            ["table", "--n", "7", "--method", "oracle"],
            "control: the S_7 walk DP and sieve, which never touch the series ring",
            check_table,
            table_n=7,
            stdout_sha256="fd8eca4f832c8ca2eb063b1a25fa8cdea8508dc1b4f6996a5edd829a90ee6d0a",
        ),
    )
}


# -- child processes ----------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HURWITZ_TRUNC_N", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(mode: str, argv: list[str]) -> Run:
    """Run child.py (or reference.py) once; wall time runs from spawn to exit."""
    rfd, wfd = os.pipe()
    out: dict[str, bytes] = {}

    def drain(key: str, stream) -> None:
        with stream:
            out[key] = stream.read()

    if mode == "reference":
        cmd = [sys.executable, str(HERE / "reference.py")]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(wfd), *argv]
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(wfd,),
            env=_child_env(),
            cwd=ROOT,
        )
    finally:
        os.close(wfd)
    readers = [
        threading.Thread(target=drain, args=(key, stream))
        for key, stream in (
            ("stdout", proc.stdout),
            ("stderr", proc.stderr),
            ("report", os.fdopen(rfd, "rb")),
        )
    ]
    for t in readers:
        t.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    try:
        report = json.loads(out["report"]) if out["report"] else {}
    except ValueError:
        report = {}
    ready = report.get("ready")
    return Run(
        mode=mode,
        argv=list(argv),
        exit_code=proc.returncode,
        stdout=out["stdout"],
        stderr=out["stderr"],
        wall_s=end - start,
        setup_s=ready - start if ready is not None else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        # ru_maxrss of a spawned child includes the spawning parent's size
        peak_rss_mb=(report.get("peak_rss_kb") or usage.ru_maxrss) / 1024.0,
        report=report,
    )


# -- measurement --------------------------------------------------------------


@dataclass
class Tally:
    """Runs of one workload in one benchmark run."""

    runs: list[Run] = field(default_factory=list)
    # reference job runs just before and just after runs[i]
    refs: list[tuple[Run, Run]] = field(default_factory=list)
    traced: list[Run] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.runs) + len(self.traced)


def run_checked(w: Workload, mode: str, tally: Tally) -> Run:
    run = spawn(mode, w.argv)
    (tally.traced if mode == "trace" else tally.runs).append(run)
    problem = w.check(w, run)
    if problem is None and mode == "trace" and "trace" not in run.report:
        problem = "traced child wrote no layer report"
    if problem:
        tally.failures.append(f"{w.name} ({mode}): {problem}")
    return run


def measure(
    workloads: list[Workload], seed: int, seconds: float, trace: bool
) -> tuple[dict[str, Tally], list[float]]:
    """Closed loop, one child at a time, for about `seconds` seconds.

    Work is issued in blocks: one run of each workload, each between two
    runs of the reference job, plus either a set-up probe or (with trace) one
    traced run of each workload, in an order shuffled by the seed.  The
    reference run after one workload run is the one before the next, unless
    a traced run came between them.  Blocks repeat until the time is up;
    the first block always completes.
    """
    rng = random.Random(seed)
    tallies = {w.name: Tally() for w in workloads}
    setup: list[float] = []
    spawn("setup", [])  # untimed: writes bytecode caches in a fresh checkout
    deadline = time.monotonic() + seconds
    first = True
    ref: Run | None = None
    while first or time.monotonic() < deadline:
        block: list[tuple[str, Workload | None]] = [("run", w) for w in workloads]
        if trace:
            block += [("trace", w) for w in workloads]
        else:
            block.append(("setup", None))
        rng.shuffle(block)
        for mode, w in block:
            if not first and time.monotonic() >= deadline:
                break
            if w is None:
                run = spawn("setup", [])
            elif mode == "run":
                before = ref or spawn("reference", [])
                run = run_checked(w, mode, tallies[w.name])
                ref = spawn("reference", [])
                tallies[w.name].refs.append((before, ref))
            else:
                run = run_checked(w, mode, tallies[w.name])
                ref = None
            if mode != "trace" and run.setup_s is not None:
                setup.append(run.setup_s)
        first = False
    return tallies, setup


def summarize(values: list[float]) -> dict[str, float | int]:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# The bounded metrics.  Wall and CPU time are reported as multiples ("x")
# of the mean of the reference job runs just before and just after each
# workload run: the speed of a shared machine drifts by more than the
# bounds within minutes, and the ratio cancels that drift.  Raw seconds are
# reported alongside.
END_TO_END_UNITS = {"wall_rel": "x", "setup_s": "s", "cpu_rel": "x", "peak_rss_mb": "MB"}


def end_to_end(tally: Tally, setup: list[float]) -> dict[str, dict]:
    runs, refs = tally.runs, tally.refs
    stats = {
        "wall_rel": summarize([2 * r.wall_s / (a.wall_s + b.wall_s) for r, (a, b) in zip(runs, refs)]),
        "setup_s": summarize(setup),
        "cpu_rel": summarize([2 * r.cpu_s / (a.cpu_s + b.cpu_s) for r, (a, b) in zip(runs, refs)]),
        "peak_rss_mb": summarize([r.peak_rss_mb for r in runs]),
        "wall_s": summarize([r.wall_s for r in runs]),
        "cpu_s": summarize([r.cpu_s for r in runs]),
        "ref_wall_s": summarize([a.wall_s for a, _ in refs]),
    }
    for name in stats:
        stats[name]["unit"] = END_TO_END_UNITS.get(name, "s")
    stats["error_rate"] = {
        "value": len(tally.failures) / tally.attempted,
        "unit": "ratio",
        "failed": len(tally.failures),
        "attempted": tally.attempted,
    }
    return stats


def per_layer(tally: Tally, names: list[str]) -> tuple[dict[str, float | int], dict]:
    """Per-layer metrics of a traced tally, and notes on how they were made.

    Counts come from the first traced run (every traced run must repeat
    them exactly); times are medians over the traced runs.
    """
    traced = [r for r in tally.traced if "trace" in r.report]
    if not traced:
        return {name: 0 for name in names}, {"absent": names}
    reports = [r.report["trace"] for r in traced]
    first = reports[0]["metrics"]
    metrics: dict[str, float | int] = {}
    for name in names:
        if name.endswith("_s"):
            metrics[name] = statistics.median(rep["metrics"].get(name, 0.0) for rep in reports)
        else:
            metrics[name] = first.get(name, 0)
    counts_repeat = all(
        {k: v for k, v in rep["metrics"].items() if not k.endswith("_s")}
        == {k: v for k, v in first.items() if not k.endswith("_s")}
        for rep in reports
    )
    metrics["cli.import_s"] = statistics.median(r.report["import_s"] for r in traced)
    traced_wall = statistics.median(r.wall_s for r in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(r.wall_s for r in tally.runs)
    metrics["trace.coverage"] = statistics.median(
        (r.report["trace"]["self_s_sum"] + r.report["import_s"]) / r.wall_s for r in traced
    )
    checks = []
    if tally.runs[0].argv[:1] == ["verify"]:
        try:
            checks = json.loads(tally.runs[0].stdout)["checks"]
        except (ValueError, KeyError):
            pass
    metrics["verify.checks_total"] = len(checks)
    metrics["verify.checks_passed"] = sum(c["status"] == "pass" for c in checks)
    notes = {
        "absent": sorted({a for rep in reports for a in rep["absent"]}),
        "counts_repeat": counts_repeat,
        "traced_runs": len(traced),
        "untraced_runs": len(tally.runs),
        "spans_per_run": reports[0]["spans"],
    }
    return metrics, notes


def layer_metric_names() -> list[str]:
    return metric_names() + [
        "cli.import_s",
        "trace.overhead_s",
        "trace.coverage",
        "verify.checks_total",
        "verify.checks_passed",
    ]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "trace.coverage" else "count"


# -- run context --------------------------------------------------------------


def _commit() -> str | None:
    """HEAD of the checkout's own git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hurwitz").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def context(seed: int, seconds: float, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# -- entry point --------------------------------------------------------------


def _print_end_to_end(name: str, stats: dict) -> None:
    for metric, s in stats.items():
        if metric == "error_rate":
            print(f"{name:14} {metric:12} {s['value']:12.6g} {s['unit']:6} "
                  f"failed {s['failed']} of {s['attempted']}")
        else:
            print(f"{name:14} {metric:12} {s['median']:12.6g} {s['unit']:6} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result set here as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "hurwitz" / "cli.py").is_file():
        print(f"error: no hurwitz sources under {SRC}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    ctx = context(args.seed, args.seconds, bool(args.trace))
    setup_start = time.monotonic()
    for w in workloads:
        if w.table_n is not None:
            expected_rows(w.table_n)
    ctx["bench_setup_s"] = time.monotonic() - setup_start
    tallies, setup = measure(workloads, args.seed, args.seconds, bool(args.trace))
    ctx["loadavg_after"] = list(os.getloadavg())

    results: dict[str, dict] = {}
    names = layer_metric_names()
    for w in workloads:
        tally = tallies[w.name]
        entry: dict = {"argv": w.argv, "why": w.why, "end_to_end": end_to_end(tally, setup)}
        if args.trace:
            entry["per_layer"], entry["trace_notes"] = per_layer(tally, names)
        entry["failures"] = tally.failures
        results[w.name] = entry

    for name, entry in results.items():
        _print_end_to_end(name, entry["end_to_end"])
        if args.trace:
            for metric, value in entry["per_layer"].items():
                print(f"{name:14} {metric:48} {value:14.6g} {layer_unit(metric)}")
            print(f"{name:14} trace notes: {json.dumps(entry['trace_notes'])}")
        for failure in entry["failures"]:
            print(f"FAILED {failure}")
    print(json.dumps({"context": ctx}))
    if args.out:
        args.out.write_text(json.dumps({"context": ctx, "workloads": results}, indent=2) + "\n")

    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(len(t.failures) for t in tallies.values())
    metrics: dict[str, dict] = {}
    for name, entry in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        if args.trace:
            for metric, value in entry["per_layer"].items():
                metrics[prefix + metric] = {"value": value, "unit": layer_unit(metric)}
        else:
            for metric, unit in END_TO_END_UNITS.items():
                value = entry["end_to_end"][metric]["median"]
                metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
