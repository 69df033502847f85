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
module of its method and ``verify`` the identity checks.  An engine refuses
a request outside its range with ``SizeLimitExceeded``; ``compare`` asks
every engine for every row, leaves a refused cell empty and keeps the
columns of the engines that served a row.  A ``compare`` row on which only
one engine ran has compared nothing: its ``agree`` cell is ``-``, neither
``yes`` nor a disagreement.  ``json`` is imported by the JSON output and
``verify`` alone, and ``csv`` by the CSV output alone.  Every engine turns
its count into an int by one integer division (``partitions.exact_quotient``,
the closed formulas from their integer pairs) and mu is reduced in integers,
so no command loads ``fractions``, ``decimal`` or ``numbers``.  Every error
type main catches is defined in ``partitions`` or is a ValueError, so no
engine is loaded to handle a failure.

``OPTIONS`` is the one statement of the options: ``parse_args`` reads argv
from it and the ``-h``/``--help`` text is generated from it.  An option is
spelled in full (no prefix abbreviations), as ``--opt value`` or
``--opt=value``.  An integer, of an option or a partition part, is ASCII
digits after an optional ``-`` (``read_int``: no ``1_0``, ``+2``, spaces or
non-ASCII digits).  Every parse failure is a UsageError, so it exits 2 with
one ``error:`` line on stderr.  No command loads ``argparse``, ``gettext``
or ``locale``.
"""

from __future__ import annotations

import os
import sys
from math import gcd
from typing import Callable, Sequence

from .partitions import (
    FixedPointError,
    IntegralityError,
    Partition,
    SizeLimitExceeded,
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


HELP = ("-h", "--help")
FORMATS = ("csv", "json")
REQUIRED = object()  # the default of an option that has none

# The one statement of the options: command -> option -> (type, default,
# choices).  A REQUIRED default makes the option required, and a bool type
# makes it a flag, which takes no value.
OPTIONS = {
    "count": {
        "--alpha": (str, REQUIRED, None),
        "--genus": (int, 0, None),
        "--method": (str, "closed", METHODS),
        "--format": (str, "csv", FORMATS),
    },
    "table": {
        "--n": (int, REQUIRED, None),
        "--method": (str, "closed", METHODS),
        "--format": (str, "csv", FORMATS),
    },
    "verify": {"--N": (int, DEFAULT_N, None), "--inject-fault": (bool, False, None)},
    "compare": {
        "--n": (int, REQUIRED, None),
        "--genus-max": (int, 1, None),
        "--format": (str, "csv", FORMATS),
    },
}


def read_int(text: str, error: str) -> int:
    """text as an int if it is ASCII digits after an optional "-"; else UsageError(error).

    ``int()`` alone would also read "1_0", " 3", "+2" and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(error)
    return int(text)


def parse_partition(text: str) -> tuple[Partition, bool]:
    """Parse a comma-separated partition literal; True if parts were reordered."""
    error = f"cannot parse partition literal {text!r}"
    parts = [read_int(tok, error) for tok in text.split(",")]
    if not parts or any(a < 1 for a in parts):
        raise UsageError(f"partition parts must be positive integers, got {text!r}")
    ordered = sorted(parts, reverse=True)
    return Partition(ordered), ordered != parts


def _count_by(method: str, alpha: Partition, g: int, genus_bound: int) -> int:
    """c_g(alpha); cut-and-join evolves to (alpha.n, genus_bound), g <= genus_bound."""
    if method == "oracle":
        from . import oracle

        return oracle.count_transitive(alpha, g)
    if method == "cutjoin":
        from . import cutjoin

        state = cutjoin.evolve(alpha.n, genus_bound)
        return cutjoin.extract_c(state, alpha, g)
    from . import closedform

    return closedform.c_value(alpha, g)


def _mu(alpha: Partition, c: int) -> str:
    """mu = c / theta(alpha) in lowest terms, as ``str(Fraction(c, theta(alpha)))``."""
    den = theta(alpha)
    d = gcd(c, den)
    return str(c // d) if d == den else f"{c // d}/{den // d}"


def _emit(rows: list[dict], header: list[str], fmt: str) -> None:
    """Write the header's cells of the rows as they are: a partition is a tuple,
    so JSON writes it as an integer array and CSV as its str, "(a1,a2,...)"."""
    cells = [[row[h] for h in header] for row in rows]
    if fmt == "json":
        import json

        print(json.dumps([dict(zip(header, c)) for c in cells], indent=2, sort_keys=True))
        return
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(cells)


def cmd_count(alpha: str, genus: int, method: str, format: str) -> int:
    alpha, reordered = parse_partition(alpha)
    if reordered:
        print(f"note: parts reordered to {alpha}", file=sys.stderr)
    r = factorization_length(alpha, genus)  # the one request check
    c = _count_by(method, alpha, genus, genus)
    row = {"alpha": alpha, "g": genus, "r": r, "c": c, "mu": _mu(alpha, c)}
    _emit([row], ["alpha", "g", "r", "c", "mu"], format)
    return EXIT_OK


def cmd_table(n: int, method: str, format: str) -> int:
    if n < 1:
        raise UsageError("n must be at least 1")
    genera = (0, 1)
    rows = []
    for alpha in partitions_of(n):
        row = {"alpha": alpha}
        for g in genera:
            c = _count_by(method, alpha, g, genera[-1])
            row[f"c{g}"], row[f"mu{g}"] = c, _mu(alpha, c)
        rows.append(row)
    _emit(rows, ["alpha", *(f"{k}{g}" for g in genera for k in ("c", "mu"))], format)
    return EXIT_OK


def cmd_verify(N: int, inject_fault: bool) -> int:
    import json

    from . import verify

    checks = verify.run_all_checks(N, inject_fault=inject_fault)
    report = verify.report_obj(checks, config={"N": N})
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if all(c.ok for c in checks) else EXIT_FAIL


def cmd_compare(n: int, genus_max: int, format: str) -> int:
    if n < 1:
        raise UsageError("n must be at least 1")
    if genus_max < 0:
        raise UsageError("--genus-max must be nonnegative")
    rows, refusals = [], {}
    for alpha in partitions_of(n):
        for g in range(genus_max + 1):
            values = {}
            for method in METHODS:
                try:
                    values[method] = _count_by(method, alpha, g, genus_max)
                except SizeLimitExceeded as err:
                    refusals.setdefault(method, err)
            # one engine alone has compared nothing: "-", not a disagreement
            agree = "-" if len(values) < 2 else "yes" if len(set(values.values())) == 1 else "NO"
            rows.append(
                {"alpha": alpha, "g": g, **dict.fromkeys(METHODS, ""), **values, "agree": agree}
            )
    methods = [m for m in METHODS if any(row[m] != "" for row in rows)]
    for method in METHODS:
        if method not in methods:
            print(f"note: {method} skipped: {refusals[method]}", file=sys.stderr)
    _emit(rows, ["alpha", "g"] + methods + ["agree"], format)
    return EXIT_FAIL if any(row["agree"] == "NO" for row in rows) else EXIT_OK


COMMANDS = {
    "count": (cmd_count, "one Hurwitz number; --alpha is a partition such as 3,2,2"),
    "table": (cmd_table, "all ramification types of size n, genus 0 and 1"),
    "verify": (
        cmd_verify,
        "run the identity checks, series cut at x-degree N; "
        "--inject-fault perturbs one input to show a failing check",
    ),
    "compare": (cmd_compare, "diff all applicable engines"),
}


def _help(names: Sequence[str]) -> int:
    """Print the usage text of the named commands, read from OPTIONS."""
    lines = [
        "usage: hurwitz COMMAND [--OPTION VALUE | --OPTION=VALUE ...]",
        "       hurwitz [COMMAND] -h | --help",
        "",
        "Exact genus-0/1 Hurwitz numbers by oracle, cut-and-join,",
        "and closed formula, with identity verification.",
    ]
    for name in names:
        rows = {}
        for opt, (kind, default, choices) in OPTIONS[name].items():
            if kind is bool:
                rows[opt] = "flag, default off"
                continue
            value = "{" + ",".join(choices) + "}" if choices else opt[2:].upper()
            rows[f"{opt} {value}"] = "required" if default is REQUIRED else f"default {default}"
        width = max(map(len, rows))
        lines += ["", f"{name}: {COMMANDS[name][1]}"]
        lines += [f"  {left:<{width}}  {right}" for left, right in rows.items()]
    print("\n".join(lines))
    return EXIT_OK


def parse_args(argv: Sequence[str]) -> tuple[Callable[..., int], dict]:
    """The function argv asks for and its keyword arguments.

    ``-h``/``--help`` at the top or among a command's options asks for the
    usage text.  Each option reads ``--opt value`` or ``--opt=value``, the
    value taken as it is (``--genus -1``), an int by ``read_int``; an option
    given twice keeps its last value.  Every malformed argv raises UsageError."""
    if argv and argv[0] in HELP:
        return _help, {"names": tuple(OPTIONS)}
    if not argv or argv[0] not in OPTIONS:
        what = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise UsageError(f"{what}: choose from {', '.join(OPTIONS)}")
    name, args = argv[0], iter(argv[1:])
    options, given = OPTIONS[name], {}
    for arg in args:
        if arg in HELP:
            return _help, {"names": (name,)}
        opt, eq, value = arg.partition("=")
        if opt not in options:
            raise UsageError(f"{name} has no option {opt!r}")
        kind, _, choices = options[opt]
        if kind is bool:
            if eq:
                raise UsageError(f"{opt} takes no value")
            given[opt] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None:
                raise UsageError(f"{opt} needs a value")
        if kind is int:
            value = read_int(value, f"{opt}: invalid int value {value!r}")
        if choices and value not in choices:
            raise UsageError(f"{opt}: invalid choice {value!r} (choose from {', '.join(choices)})")
        given[opt] = value
    kwargs = {}
    for opt, (_, default, _) in options.items():
        if default is REQUIRED and opt not in given:
            raise UsageError(f"{name} needs {opt}")
        kwargs[opt[2:].replace("-", "_")] = given.get(opt, default)
    return COMMANDS[name][0], kwargs


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, options = parse_args(sys.argv[1:] if argv is None else argv)
        code = command(**options)
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
