"""Command-line front end.

Four commands:

* count    -- one Hurwitz number, by any engine
* table    -- all ramification types of a given size, genus 0 and 1
* verify   -- run the identity checks and emit a JSON report
* compare  -- compute by every applicable engine and diff the results

Output is byte-deterministic for a fixed invocation: rows follow the
reverse-lexicographic partition order and all numbers are exact rational
strings (never decimals).  Exit status: 0 success / all pass, 1 a
verification or comparison failure, a count that is not a nonnegative
integer, a failed fixed-point certificate or a stdout whose reader closed
early (no traceback), 2 usage errors (including size refusals and unknown
options).

The only bound a user sets is verify's series cut --N.  The cut-and-join
bounds come from the query: count evolves at (n, g), table at (n, 1) and
compare at (n, genus-max), once per command.

Each command imports only the engine it runs: ``_count_by`` imports the
oracle, cut-and-join or closed-formula module of its method, ``verify``
imports the identity checks and ``compare`` the oracle for its budget and
``closedform`` for its genus range (``closedform.MU``).  A ``compare`` row
on which only one engine ran has compared nothing: its ``agree`` cell is
``-``, neither ``yes`` nor a disagreement.
Every error type main catches is defined in ``partitions`` or is a
ValueError, so no engine is loaded to handle a failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .partitions import (
    FixedPointError,
    IntegralityError,
    Partition,
    factorization_length,
    partitions_of,
    theta,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_N = 8
METHODS = ("oracle", "cutjoin", "closed")


class UsageError(ValueError):
    pass


def parse_partition(text: str) -> tuple[Partition, bool]:
    """Parse a comma-separated partition literal; True if parts were reordered."""
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse partition literal {text!r}")
    if not parts or any(a < 1 for a in parts):
        raise UsageError(f"partition parts must be positive integers, got {text!r}")
    ordered = sorted(parts, reverse=True)
    return Partition(ordered), ordered != parts


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse drops an OSError of this write; let main see a closed stdout
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hurwitz",
        description="Exact genus-0/1 Hurwitz numbers by oracle, cut-and-join, "
        "and closed formula, with identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    pc = sub.add_parser("count", help="one Hurwitz number")
    pc.add_argument("--alpha", required=True, help="partition, e.g. 3,2,2")
    pc.add_argument("--genus", type=int, default=0)
    pc.add_argument("--method", choices=METHODS, default="closed")
    add_format(pc)

    pt = sub.add_parser("table", help="all ramification types of size n")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--method", choices=METHODS, default="closed")
    add_format(pt)

    pv = sub.add_parser("verify", help="run the identity checks")
    pv.add_argument(
        "--N", type=int, default=DEFAULT_N, help="x-degree truncation (default %(default)s)"
    )
    pv.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    pp = sub.add_parser("compare", help="diff all applicable engines")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--genus-max", type=int, default=1)
    add_format(pp)

    return parser


def _count_by(method: str, alpha: Partition, g: int, genus_bound: int) -> int:
    """c_g(alpha); cut-and-join evolves to (alpha.n, genus_bound), g <= genus_bound."""
    if method == "oracle":
        from . import oracle

        return oracle.count_transitive(alpha, g)
    if method == "cutjoin":
        from . import cutjoin

        state = cutjoin.evolve(alpha.n, genus_bound)
        return cutjoin.extract_c(state, alpha, g)
    if method == "closed":
        from . import closedform

        return closedform.c_value(alpha, g)
    raise UsageError(f"unknown method {method!r}")


def _mu(alpha: Partition, c: int) -> Fraction:
    return Fraction(c, theta(alpha))


def _emit(rows: list[dict], header: list[str], fmt: str) -> None:
    """CSV renders partitions as "(a1,a2,...)"; JSON as integer arrays."""
    if fmt == "json":
        out = []
        for row in rows:
            rec = dict(row)
            if isinstance(rec.get("alpha"), Partition):
                rec["alpha"] = list(rec["alpha"].parts)
            out.append(rec)
        print(json.dumps(out, indent=2, sort_keys=True))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(row[h]) if isinstance(row[h], Partition) else row[h] for h in header])


def cmd_count(args: argparse.Namespace) -> int:
    alpha, reordered = parse_partition(args.alpha)
    if reordered:
        print(f"note: parts reordered to {alpha}", file=sys.stderr)
    g = args.genus
    r = factorization_length(alpha, g)  # the one request check
    c = _count_by(args.method, alpha, g, g)
    row = {"alpha": alpha, "g": g, "r": r, "c": c, "mu": str(_mu(alpha, c))}
    _emit([row], ["alpha", "g", "r", "c", "mu"], args.format)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise UsageError("n must be at least 1")
    genera = (0, 1)
    rows = []
    for alpha in partitions_of(n):
        row = {"alpha": alpha}
        for g in genera:
            c = _count_by(args.method, alpha, g, genera[-1])
            row[f"c{g}"], row[f"mu{g}"] = c, str(_mu(alpha, c))
        rows.append(row)
    _emit(rows, ["alpha", *(f"{k}{g}" for g in genera for k in ("c", "mu"))], args.format)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    checks = verify.run_all_checks(args.N, inject_fault=args.inject_fault)
    report = verify.report_obj(checks, config={"N": args.N})
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if all(c.ok for c in checks) else EXIT_FAIL


def cmd_compare(args: argparse.Namespace) -> int:
    n, genus_max = args.n, args.genus_max
    if n < 1:
        raise UsageError("n must be at least 1")
    if genus_max < 0:
        raise UsageError("--genus-max must be nonnegative")
    from . import closedform, oracle

    methods = ["cutjoin", "closed"]
    if n <= oracle.ORACLE_MAX_N:
        methods.insert(0, "oracle")
    else:
        print(f"note: oracle skipped for n={n} > ORACLE_MAX_N={oracle.ORACLE_MAX_N}", file=sys.stderr)
    rows = []
    disagreements = 0
    for alpha in partitions_of(n):
        for g in range(genus_max + 1):
            values = {
                method: _count_by(method, alpha, g, genus_max)
                for method in methods
                if method != "closed" or g < len(closedform.MU)
            }
            # one engine alone has compared nothing: "-", not a disagreement
            agree = "-" if len(values) < 2 else "yes" if len(set(values.values())) == 1 else "NO"
            disagreements += agree == "NO"
            rows.append(
                {"alpha": alpha, "g": g, **dict.fromkeys(methods, ""), **values, "agree": agree}
            )
    _emit(rows, ["alpha", "g"] + methods + ["agree"], args.format)
    return EXIT_OK if disagreements == 0 else EXIT_FAIL


COMMANDS = {"count": cmd_count, "table": cmd_table, "verify": cmd_verify, "compare": cmd_compare}


def _run(argv: Sequence[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        # --help and usage errors; buffered help text still waits in stdout
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    return COMMANDS[args.command](args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # the reader closed stdout: drop the rest of the output quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ValueError as err:  # usage errors and size refusals among them
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegralityError, FixedPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
