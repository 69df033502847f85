"""Tests of the benchmark itself (not of the hurwitz package).

    python3 -m pytest perfbench/tests

They spawn real CLI children, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())


def _tamper_row(stdout: bytes) -> bytes:
    """Add one to the genus-1 count of the third row."""
    lines = stdout.decode().splitlines(keepends=True)
    cells = lines[3].rstrip("\n").rsplit(",", 2)
    cells[1] = str(int(cells[1]) + 1)
    lines[3] = ",".join(cells) + "\n"
    return "".join(lines).encode()


def _count_metrics(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith(("_s", "coverage"))}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload."""
    return {
        name: [run.spawn("trace", w.argv) for _ in range(2)]
        for name, w in run.WORKLOADS.items()
    }


# -- correctness checks count failures ----------------------------------------


def test_table_check_rejects_a_tampered_row():
    oracle = run.WORKLOADS["oracle-table"]
    # the closed formulas print the same bytes as the oracle at n = 7, fast
    good = run.spawn("run", ["table", "--n", "7", "--method", "closed"])
    assert oracle.check(oracle, good) is None
    bad = _tamper_row(good.stdout)
    assert bad != good.stdout
    assert "closed formulas" in run.table_rows_problem(7, bad)


def test_tampered_row_and_injected_fault_are_counted_as_failures():
    oracle = run.WORKLOADS["oracle-table"]

    def tampered_check(w: run.Workload, child: run.Run) -> str | None:
        child.stdout = _tamper_row(child.stdout)
        return run.check_table(w, child)

    workloads = [
        run.Workload("tampered", ["table", "--n", "7", "--method", "closed"], "", tampered_check,
                     table_n=7, stdout_sha256=oracle.stdout_sha256),
        run.Workload("fault", ["verify", "--N", "6", "--inject-fault"], "", run.check_verify),
        run.Workload("sound", ["verify", "--N", "6"], "", run.check_verify),
    ]
    tallies, setup = run.measure(workloads, seed=3, seconds=0, trace=False)
    assert setup, "set-up probes ran"
    for name in ("tampered", "fault"):
        tally = tallies[name]
        assert tally.attempted == 1 and len(tally.failures) == 1, tally.failures
        assert run.end_to_end(tally, setup)["error_rate"]["value"] == 1.0
    assert "pde_residual" in tallies["fault"].failures[0]
    assert tallies["sound"].failures == []


def test_verify_check_requires_every_recorded_name():
    w = run.WORKLOADS["verify"]
    report = {"checks": [{"name": n, "status": "pass"} for n in run.VERIFY_CHECKS[1:]]}
    child = run.Run("run", w.argv, 0, json.dumps(report).encode(), b"", 1.0, 0.1, 1.0, 1.0, {})
    assert "missing" in run.check_verify(w, child)
    report["checks"].append({"name": run.VERIFY_CHECKS[0], "status": "pass"})
    report["checks"].append({"name": "a_later_check", "status": "pass"})
    child.stdout = json.dumps(report).encode()
    assert run.check_verify(w, child) is None


# -- the traced run -------------------------------------------------------------


def test_traced_counts_repeat_exactly(traced):
    for name, (a, b) in traced.items():
        assert a.exit_code == 0 and b.exit_code == 0, name
        ma, mb = a.report["trace"]["metrics"], b.report["trace"]["metrics"]
        assert _count_metrics(ma) == _count_metrics(mb), name
        assert a.report["trace"]["absent"] == [], name


def test_spans_cover_the_traced_wall_time(traced):
    for name, runs in traced.items():
        for child in runs:
            covered = child.report["trace"]["self_s_sum"] + child.report["import_s"]
            assert covered >= 0.9 * child.wall_s, (name, covered, child.wall_s)


def test_layer_map_zero_counts_hold(traced):
    for workload, prefixes in LAYER_MAP["zero_counts"].items():
        counts = _count_metrics(traced[workload][0].report["trace"]["metrics"])
        nonzero = {k: v for k, v in counts.items() if k.startswith(tuple(prefixes)) and v}
        assert nonzero == {}, workload
    for workload, runs in traced.items():
        counts = runs[0].report["trace"]["metrics"]
        assert counts["cli.main.total_s"] > 0, workload


@pytest.mark.parametrize("workload", ["cutjoin-table", "verify"])
def test_wrapper_calls_equal_cprofile_calls(traced, workload):
    """Every alias of a probed function is wrapped: the wrappers see every
    call cProfile sees (an lru_cache hit never reaches the profiled code)."""
    profiled = run.spawn("profile", run.WORKLOADS[workload].argv).report["profile"]
    report = traced[workload][0].report["trace"]
    seen = 0
    for name, calls in report["calls"].items():
        hits = report["metrics"].get(f"{name}.cache_hits", 0)
        assert calls - hits == profiled[name], name
        seen += bool(calls)
    assert seen >= 5


def test_missing_names_are_recorded_as_absent():
    sys.path.insert(0, str(ROOT / "src"))
    import hurwitz.partitions

    probes = (
        tracer.Probe("series.USeries.init", "hurwitz.series", "NoSuchClass.__init__"),
        tracer.Probe("gone.module", "hurwitz.no_such_module", "f"),
        tracer.Probe("partitions.partitions_of", "hurwitz.partitions", "partitions_of",
                     ("calls", "cache_hits"),
                     counts={"changed_shape": lambda a, k, r: r.no_such_attribute}),
    )
    t = tracer.Tracer(probes)
    t.install()
    try:
        assert len(hurwitz.partitions.partitions_of(4)) == 5
    finally:
        t.uninstall()
    summary = t.summary()
    assert summary["absent"] == [
        "gone.module",
        "partitions.partitions_of.cache_hits",
        "partitions.partitions_of.changed_shape",
        "series.USeries.init",
    ]
    assert summary["metrics"]["partitions.partitions_of.calls"] == 1
    assert not hasattr(hurwitz.partitions.partitions_of, "__wrapped__")


def test_self_time_excludes_child_spans():
    mod = types.ModuleType("hurwitz._perfbench_selftest")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.05)\n"
        "def outer():\n    inner()\n    time.sleep(0.02)\n    inner()\n",
        mod.__dict__,
    )
    sys.modules[mod.__name__] = mod
    probes = (
        tracer.Probe("t.outer", mod.__name__, "outer", ("calls", "self_s", "total_s")),
        tracer.Probe("t.inner", mod.__name__, "inner", ("calls", "self_s", "total_s")),
    )
    t = tracer.Tracer(probes)
    t.install()
    try:
        mod.outer()
    finally:
        t.uninstall()
        del sys.modules[mod.__name__]
    m = t.summary()["metrics"]
    assert m["t.inner.calls"] == 2 and m["t.outer.calls"] == 1
    assert 0.1 <= m["t.inner.self_s"] < 0.3
    assert 0.02 <= m["t.outer.self_s"] < 0.1
    assert m["t.outer.total_s"] == pytest.approx(m["t.outer.self_s"] + m["t.inner.self_s"])


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    names = run.layer_metric_names()
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    prefixes = tuple(p for layer in LAYER_MAP["layers"].values() for p in layer["prefixes"])
    assert all(name.startswith(prefixes) for name in names)
