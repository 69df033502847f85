"""One benchmark child process: import the hurwitz CLI, then run one argv.

    python3 child.py MODE FD [hurwitz arguments ...]

MODE is one of
  run      -- run the CLI as a user would;
  setup    -- stop once the CLI is imported and ready to parse arguments;
  trace    -- run the CLI with every layer probe of tracer.py installed;
  profile  -- run the CLI under cProfile and report the call counts of the
              probed functions.

The child writes one JSON object to file descriptor FD when it is done: the
CLOCK_MONOTONIC time at which the CLI was ready, the import time of the
package, its peak RSS, and for trace/profile the layer report.  Standard
output and exit status are the CLI's own.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _profile_counts(argv: list[str]) -> tuple[int, dict[str, int]]:
    import cProfile

    import hurwitz.cli
    from tracer import PROBES, resolve

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = hurwitz.cli.main(argv)
    finally:
        profiler.disable()
    by_code = {entry.code: entry.callcount for entry in profiler.getstats()}
    counts = {}
    for probe in PROBES:
        found = resolve(probe)
        if found is not None:
            fn = getattr(found[2], "__wrapped__", found[2])
            counts[probe.name] = by_code.get(fn.__code__, 0)
    return code, counts


def _peak_rss_kb() -> int | None:
    """High-water RSS of this process image.

    Unlike ru_maxrss, VmHWM starts afresh at exec, so it does not carry
    the size of the parent that spawned the child.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    mode, fd, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.monotonic()
    import hurwitz.cli

    ready = time.monotonic()
    report: dict = {"ready": ready, "import_s": ready - start}
    code = 0
    try:
        if mode == "run":
            code = hurwitz.cli.main(argv)
        elif mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            code = hurwitz.cli.main(argv)
            report["trace"] = tracer.summary()
        elif mode == "profile":
            code, report["profile"] = _profile_counts(argv)
        elif mode != "setup":
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        report["peak_rss_kb"] = _peak_rss_kb()
        with os.fdopen(fd, "w") as out:
            json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
