"""The per-layer probes of the benchmark still find what they wrap.

``perfbench/tracer.py`` looks a probed method up in its class's own
``__dict__`` and reports a probe it cannot find as absent, so a refactor
that moves a method into a base class, or renames a function, would
silently blank its metrics.  The tracer is loaded read-only; nothing is
wrapped.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

# resolve finds a probe's module in sys.modules
import hurwitz.closedform
import hurwitz.series
import hurwitz.verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

RING_PROBES = [
    "series.PSeries.init",
    "series.PSeries.mul",
    "series.PSeries.add",
    "series.PSeries.shift",
    "series.PSeries.pdiff",
    "verify.WPoly.mul",
]

# the functions that build the substitution series s and read rules at s
SUBSTITUTION_PROBES = [
    "series.subst_x",
    "closedform.s_series",
    "closedform.psi_at_s",
    "closedform.f0_pdiff",
]


# every check function run_all_checks calls, timed by the verify workload
VERIFY_CHECK_PROBES = [
    "verify.residual_T",
    "verify.kernel_recombination",
    "verify.closed_form_series_checks",
    "verify.check_u1",
    "verify.check_u2",
    "verify.check_u3",
    "verify.series_u_checks",
    "verify.elem_sym_extraction",
    "verify.s_xdiff_identity",
    "verify.s_pdiff_identity",
    "verify.psi_pdiff_identity",
    "verify.g1_xdiff_identity",
    "verify.g1_pdiff_identity",
]


@pytest.fixture(scope="module")
def tracer():
    name = "_perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", RING_PROBES)
def test_ring_probe_resolves(tracer, name):
    probe = next(p for p in tracer.PROBES if p.name == name)
    assert tracer.resolve(probe) is not None, f"{name} would read absent"


@pytest.mark.parametrize("name", SUBSTITUTION_PROBES)
def test_substitution_probe_resolves(tracer, name):
    probe = next(p for p in tracer.PROBES if p.name == name)
    assert tracer.resolve(probe) is not None, f"{name} would read absent"


@pytest.mark.parametrize("name", VERIFY_CHECK_PROBES)
def test_verify_check_probe_resolves(tracer, name):
    probe = next(p for p in tracer.PROBES if p.name == name)
    assert tracer.resolve(probe) is not None, f"{name} would read absent"


def test_every_verify_check_probe_is_listed(tracer):
    # the module-level verify probes; the WPoly and XSeries ring probes are methods
    checks = {p.name for p in tracer.PROBES if p.module == "hurwitz.verify" and "." not in p.attr}
    assert checks == set(VERIFY_CHECK_PROBES)


def test_reflected_products_are_probed_too():
    # the tracer wraps every entry of the class dict bound to the probed method
    for cls in (hurwitz.series.PSeries, hurwitz.verify.WPoly):
        assert cls.__dict__["__mul__"] is cls.__dict__["__rmul__"]


def test_probed_operations_have_code_of_their_own():
    # the benchmark cross-checks the probe counts with cProfile, which counts
    # calls per code object: a body shared by both rings would merge them
    PSeries, WPoly = hurwitz.series.PSeries, hurwitz.verify.WPoly
    code = lambda cls, attr: getattr(cls, attr).__code__
    assert code(PSeries, "__mul__") is not code(WPoly, "__mul__")
    assert code(PSeries, "__add__") is not code(WPoly, "__add__")
