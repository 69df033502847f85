"""The counting engines import no series code.

The oracle and cut-and-join are evidence only while they stay independent of
the series ring, the closed formulas and the identity checks, so the modules
they are built from may share arithmetic but nothing else.  The imports are
read from the source: ``hurwitz/__init__`` imports every module, so
``sys.modules`` cannot tell which module pulled in which.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hurwitz"
ENGINE_MODULES = ["partitions.py", "cutjoin.py", "oracle.py"]
FORBIDDEN = {"series", "closedform", "verify"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a source file imports, by their last name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.split(".")[-1])
            # `from . import series` and `from hurwitz import series`
            names |= {alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("filename", ENGINE_MODULES)
def test_engine_module_imports_no_series_code(filename):
    tree = ast.parse((PACKAGE / filename).read_text(), filename)
    assert imported_modules(tree) & FORBIDDEN == set()


def test_the_scan_sees_each_import_form():
    tree = ast.parse(
        "import hurwitz.series\n"
        "from .closedform import psi\n"
        "from . import verify\n"
        "def late():\n"
        "    from hurwitz.series import PSeries\n"
    )
    assert FORBIDDEN <= imported_modules(tree)
