"""Per-layer tracing of the hurwitz package from outside it.

A ``Tracer`` wraps the public functions and methods named in ``PROBES`` and
records one span (name, start, end, parent) per call.  Spans stay in memory
until ``summary`` derives the per-layer metrics from them: a span's self
time is its duration minus the time its child spans cover, and a name's
total time counts only its outermost spans, so recursion is not counted
twice.

Wrapping is done in place: a module-level function is replaced in every
``hurwitz`` module namespace that bound it (``from .series import exp``
binds ``exp`` in ``closedform`` and ``verify`` as well), and a method is
replaced under every class attribute that refers to it (``__rmul__ =
__mul__``).  A probe whose target no longer exists is recorded as absent,
so the benchmark keeps running when a later change renames or deletes it.

Nothing here is imported by the package; it is loaded only into the child
process of a traced run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

Counter = Callable[[tuple, dict, Any], int]


def _terms_in(args: tuple, kwargs: dict, result: Any) -> int:
    terms = args[2] if len(args) > 2 else kwargs.get("terms")
    return len(terms) if terms else 0


def _term_pairs(args: tuple, kwargs: dict, result: Any) -> int:
    other = args[1]
    return len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1)


def _phi_terms(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result.phi[-1].terms)


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    name     -- metric prefix, ``<module>.<function>`` or ``<module>.<Class>.<method>``
    module   -- module that defines the target
    attr     -- dotted path of the target inside that module
    stats    -- timing/call statistics reported: calls, self_s, total_s, cache_hits
    counts   -- work counters, each computed from (args, kwargs, result)
    builder  -- name of a counter incremented on every call of the callable
                passed as the target's first argument
    """

    name: str
    module: str
    attr: str
    stats: tuple[str, ...] = ("calls", "self_s")
    counts: dict[str, Counter] = field(default_factory=dict)
    builder: str | None = None


_CACHED = ("calls", "total_s", "cache_hits")

PROBES: tuple[Probe, ...] = (
    Probe("cli.main", "hurwitz.cli", "main", ("total_s",)),
    # series: the truncated exact ring
    Probe("series.PSeries.init", "hurwitz.series", "PSeries.__init__",
          counts={"terms_in": _terms_in}),
    Probe("series.PSeries.mul", "hurwitz.series", "PSeries.__mul__",
          counts={"term_pairs": _term_pairs}),
    Probe("series.PSeries.add", "hurwitz.series", "PSeries.__add__"),
    Probe("series.PSeries.shift", "hurwitz.series", "PSeries.shift"),
    Probe("series.PSeries.pdiff", "hurwitz.series", "PSeries.pdiff"),
    Probe("series.exp", "hurwitz.series", "exp"),
    Probe("series.log1", "hurwitz.series", "log1"),
    Probe("series.subst_x", "hurwitz.series", "subst_x"),
    Probe("series.inv_one_minus", "hurwitz.series", "inv_one_minus"),
    Probe("series.solve_fixed_point", "hurwitz.series", "solve_fixed_point",
          builder="builder_calls"),
    # cutjoin: the generating-series evolution
    Probe("cutjoin.evolve", "hurwitz.cutjoin", "evolve", _CACHED),
    Probe("cutjoin.step", "hurwitz.cutjoin", "step",
          counts={"phi_terms": _phi_terms}),
    Probe("cutjoin.extract_c", "hurwitz.cutjoin", "extract_c"),
    # closedform: the substitution series and the closed formulas
    Probe("closedform.s_series", "hurwitz.closedform", "s_series", _CACHED),
    Probe("closedform.psi_at_s", "hurwitz.closedform", "psi_at_s", _CACHED),
    Probe("closedform.g1_closed", "hurwitz.closedform", "g1_closed", _CACHED),
    Probe("closedform.g1_defn", "hurwitz.closedform", "g1_defn", _CACHED),
    Probe("closedform.f0_pdiff", "hurwitz.closedform", "f0_pdiff", _CACHED),
    Probe("closedform.tree", "hurwitz.closedform", "tree", _CACHED),
    Probe("closedform.c_value", "hurwitz.closedform", "c_value"),
    # verify: every check function run_all_checks calls, and the two
    # polynomial rings of the vanishing checks
    *(
        Probe(f"verify.{check}", "hurwitz.verify", check, ("total_s",))
        for check in (
            "residual_T",
            "kernel_recombination",
            "closed_form_series_checks",
            "check_u1",
            "check_u2",
            "check_u3",
            "series_u_checks",
            "elem_sym_extraction",
            "s_xdiff_identity",
            "s_pdiff_identity",
            "psi_pdiff_identity",
            "g1_xdiff_identity",
            "g1_pdiff_identity",
        )
    ),
    Probe("verify.WPoly.mul", "hurwitz.verify", "WPoly.__mul__"),
    Probe("verify.XSeries.mul", "hurwitz.verify", "XSeries.__mul__"),
    # oracle: transitive count (walk DP plus sieve) and the walk DP alone
    Probe("oracle.count_transitive", "hurwitz.oracle", "count_transitive", ("calls", "total_s")),
    Probe("oracle.count_walks", "hurwitz.oracle", "count_walks", ("calls", "total_s")),
    Probe("oracle._walks_to", "hurwitz.oracle", "_walks_to"),
)

FRACTION_METRIC = "series.fraction_new.calls"


def metric_names() -> list[str]:
    """Every metric a trace summary carries, in a fixed order."""
    names = []
    for probe in PROBES:
        names += [f"{probe.name}.{s}" for s in probe.stats]
        names += [f"{probe.name}.{c}" for c in probe.counts]
        if probe.builder:
            names.append(f"{probe.name}.{probe.builder}")
    names.append(FRACTION_METRIC)
    return names


def resolve(probe: Probe) -> tuple[Any, str, Any] | None:
    """(owner, attribute, original) of a probe, or None when it is gone."""
    owner = sys.modules.get(probe.module)
    if owner is None:
        return None
    *path, leaf = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    return (owner, leaf, original) if callable(original) else None


class Tracer:
    """Span recorder for one process.

    ``install`` wraps the probes, ``summary`` derives the metrics and
    ``uninstall`` puts every original back.
    """

    def __init__(self, probes: tuple[Probe, ...] = PROBES) -> None:
        self.probes = probes
        # one span per call: [probe index, start, end, parent span index or -1,
        # whether no enclosing span belongs to the same probe]
        self.spans: list[list] = []
        self._active: list[int] = []
        self._stack: list[int] = [-1]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._probes: list[Probe] = []
        self._lru: dict[int, Any] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "hurwitz" or k.startswith("hurwitz.")]
        for probe in self.probes:
            found = resolve(probe)
            if found is None:
                self.absent.append(probe.name)
                continue
            owner, leaf, original = found
            wrapper = self._wrap(len(self._probes), probe, original)
            self._probes.append(probe)
            for space in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._patch(space, key, wrapper)
        self._count_fractions()

    def uninstall(self) -> None:
        for space, key, original in reversed(self._patches):
            setattr(space, key, original)
        self._patches.clear()

    def _patch(self, space: Any, key: str, value: Any) -> None:
        self._patches.append((space, key, space.__dict__[key]))
        setattr(space, key, value)

    def _wrap(self, pid: int, probe: Probe, fn: Callable) -> Callable:
        spans, stack, counts, active = self.spans, self._stack, self.counts, self._active
        active.append(0)
        clock = time.perf_counter
        counters = [(f"{probe.name}.{c}", f) for c, f in probe.counts.items()]
        for key, _ in counters:
            counts[key] = 0
        cache_info = getattr(fn, "cache_info", None)
        if cache_info is not None:
            self._lru[pid] = fn
        builder_key = f"{probe.name}.{probe.builder}" if probe.builder else None
        if builder_key:
            counts[builder_key] = 0

        def counted(builder: Callable) -> Callable:
            def call(*args: Any) -> Any:
                counts[builder_key] += 1
                return builder(*args)

            return call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if builder_key:
                args = (counted(args[0]),) + args[1:]
            span = [pid, 0.0, 0.0, stack[-1], not active[pid]]
            stack.append(len(spans))
            spans.append(span)
            active[pid] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[pid] -= 1
                stack.pop()
            for key, counter in counters:
                try:
                    counts[key] += counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    self._drop_counter(key)
            return result

        wrapper.__wrapped__ = fn
        if cache_info is not None:
            wrapper.cache_info = cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _drop_counter(self, key: str) -> None:
        """A counter that no longer fits the code it reads is absent, not zero."""
        self.counts.pop(key, None)
        if key not in self.absent:
            self.absent.append(key)

    def _count_fractions(self) -> None:
        """Count Fraction constructions made while a series span is innermost."""
        counts, spans, stack = self.counts, self.spans, self._stack
        in_series = [p.name.startswith("series.") for p in self._probes]
        counts[FRACTION_METRIC] = 0
        original = Fraction.__new__

        def new(cls: type, *args: Any, **kwargs: Any) -> Fraction:
            top = stack[-1]
            if top >= 0 and in_series[spans[top][0]]:
                counts[FRACTION_METRIC] += 1
            return original(cls, *args, **kwargs)

        self._patch(Fraction, "__new__", new)

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Per-layer metrics, the summed self time of all spans, and absent names."""
        n = len(self._probes)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        covered = [0.0] * len(self.spans)
        for pid, start, end, parent, outer in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (pid, start, end, parent, outer), child in zip(self.spans, covered):
            calls[pid] += 1
            self_s[pid] += end - start - child
            if outer:
                total_s[pid] += end - start
        metrics: dict[str, float | int] = {}
        absent = list(self.absent)
        for pid, probe in enumerate(self._probes):
            stat = {"calls": calls[pid], "self_s": self_s[pid], "total_s": total_s[pid]}
            if pid in self._lru:
                stat["cache_hits"] = self._lru[pid].cache_info().hits
            for s in probe.stats:
                if s in stat:
                    metrics[f"{probe.name}.{s}"] = stat[s]
                else:  # the target is no longer an lru_cache
                    absent.append(f"{probe.name}.{s}")
        metrics.update(self.counts)
        return {
            "metrics": metrics,
            "calls": {probe.name: calls[pid] for pid, probe in enumerate(self._probes)},
            "self_s_sum": sum(self_s),
            "absent": sorted(absent),
            "spans": len(self.spans),
        }
