"""The counting engines import no series code; a command loads only its engine.

The oracle and cut-and-join are evidence only while they stay independent of
the series ring, the closed formulas and the identity checks, so the modules
they are built from may share arithmetic but nothing else.  The imports are
read from the source, which sees an import inside a function too.

``hurwitz/__init__`` imports no submodule and exports no name: each public
name is imported from the module that defines it.  So ``sys.modules`` after
one CLI run in a fresh interpreter tells which engines that command loaded,
and a cold ``hurwitz`` process pays only for those.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
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


def test_verify_imports_no_private_series_name():
    # WPoly reaches the ring's shared routines through ExactRing, not by name,
    # and the rules verify reads at x -> s are built from closedform's public psi
    tree = ast.parse((PACKAGE / "verify.py").read_text(), "verify.py")
    names = {
        module: {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module
            for alias in node.names
        }
        for module in ("series", "closedform")
    }
    assert "ExactRing" in names["series"] and "psi" in names["closedform"]
    for module, imported in names.items():
        assert {name for name in imported if name.startswith("_")} == set(), module


def test_the_scan_sees_each_import_form():
    tree = ast.parse(
        "import hurwitz.series\n"
        "from .closedform import psi\n"
        "from . import verify\n"
        "def late():\n"
        "    from hurwitz.series import PSeries\n"
    )
    assert FORBIDDEN <= imported_modules(tree)


def run_fresh(code: str, *argv: str) -> str:
    """stdout of `python -c code argv` in a fresh interpreter on this source."""
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout


# Run the CLI, then list every module it loaded on the last line of stdout
# (read before this script imports json to print the list).
_LOADED_AFTER = (
    "import sys\n"
    "import hurwitz.cli\n"
    "hurwitz.cli.main(sys.argv[1:])\n"
    "loaded = sorted(sys.modules)\n"
    "import json\n"
    "print(json.dumps(loaded))\n"
)


@pytest.mark.parametrize(
    "argv, submodules",
    [
        (("table", "--n", "5", "--method", "cutjoin"), {"cutjoin"}),
        (("table", "--n", "5", "--method", "oracle"), {"oracle"}),
        (("count", "--alpha", "3,2", "--method", "closed"), {"series", "closedform"}),
        (("compare", "--n", "4"), {"oracle", "cutjoin", "series", "closedform"}),
        (("verify", "--N", "4"), {"series", "closedform", "verify"}),
        (("--help",), set()),
    ],
    ids=["table-cutjoin", "table-oracle", "count-closed", "compare", "verify", "help"],
)
def test_a_command_loads_only_its_engine(argv, submodules):
    loaded = json.loads(run_fresh(_LOADED_AFTER, *argv).splitlines()[-1])
    package = {name.removeprefix("hurwitz.") for name in loaded if name.startswith("hurwitz.")}
    assert package == {"cli", "partitions"} | submodules
    # no command pays for dataclasses and the inspect it imports
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "5", "--method", "oracle"),
        ("table", "--n", "5", "--method", "cutjoin"),
        ("count", "--alpha", "3,2", "--genus", "1", "--method", "oracle"),
        ("count", "--alpha", "3,2", "--genus", "1", "--method", "cutjoin"),
    ],
    ids=["table-oracle", "table-cutjoin", "count-oracle", "count-cutjoin"],
)
def test_a_counting_engine_loads_no_json_or_fractions(argv):
    # mu is reduced in integers and json serves only the JSON output and
    # verify, so a CSV count by a counting engine pays for neither
    loaded = set(json.loads(run_fresh(_LOADED_AFTER, *argv).splitlines()[-1]))
    assert loaded & {"json", "fractions", "decimal"} == set()


def test_verify_loads_no_fractions_or_csv():
    # every weight of the checks is an int or an integer pair, and csv
    # serves only the CSV output
    loaded = set(json.loads(run_fresh(_LOADED_AFTER, "verify", "--N", "4").splitlines()[-1]))
    assert loaded & {"fractions", "decimal", "numbers", "csv"} == set()


# One invocation of every command and of each table engine.
EVERY_COMMAND = pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "5", "--method", "oracle"),
        ("table", "--n", "5", "--method", "cutjoin"),
        ("table", "--n", "5", "--method", "closed"),
        ("count", "--alpha", "3,2", "--genus", "1"),
        ("verify", "--N", "4"),
        ("compare", "--n", "4"),
        ("--help",),
    ],
    ids=["table-oracle", "table-cutjoin", "table-closed", "count", "verify", "compare", "help"],
)


@EVERY_COMMAND
def test_no_command_loads_argparse(argv):
    # the CLI parses from its own option table: argparse would bring
    # gettext, and its first message lookup locale
    loaded = set(json.loads(run_fresh(_LOADED_AFTER, *argv).splitlines()[-1]))
    assert loaded & {"argparse", "gettext", "locale"} == set()


@EVERY_COMMAND
def test_no_command_loads_fractions(argv):
    # every engine turns its count into an int by an integer division, the
    # closed formulas from their integer pairs, and mu is reduced in integers
    loaded = set(json.loads(run_fresh(_LOADED_AFTER, *argv).splitlines()[-1]))
    assert loaded & {"fractions", "decimal", "numbers"} == set()


def test_importing_the_package_loads_no_submodule():
    code = "import sys, hurwitz\nprint([m for m in sys.modules if m.startswith('hurwitz.')])"
    assert run_fresh(code) == "[]\n"


ROOT = PACKAGE.parents[1]
SUBMODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
# The names imported from the package itself, on one line or in parentheses.
# The source is read as text, so code strings run in a subprocess count too.
PACKAGE_IMPORT = re.compile(r"from hurwitz import\s+(?:\(([\w\s,]*)\)|([\w ,]+))")


def test_every_name_is_imported_from_its_module():
    found = []
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for match in PACKAGE_IMPORT.finditer(path.read_text()):
                names = set(re.findall(r"\w+", match.group(1) or match.group(2)))
                found += [(path.name, name) for name in sorted(names - SUBMODULES)]
    assert found == []


def test_the_package_exports_no_name():
    code = (
        "import hurwitz\n"
        "print(hasattr(hurwitz, 'evolve'))\n"
        "from hurwitz import cutjoin\n"
        "print(cutjoin.__name__, hasattr(hurwitz, 'evolve'))\n"
    )
    assert run_fresh(code) == "False\nhurwitz.cutjoin False\n"


def test_a_submodule_still_imports_by_name():
    from hurwitz import closedform

    assert inspect.ismodule(closedform)
    assert closedform.__name__ == "hurwitz.closedform"
