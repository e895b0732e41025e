"""Module boundaries: no wstsim module imports another's private names, and
every public name has a use outside the tests.

A `_`-prefixed name is free to change with its own module; a module that
needs something from another uses a public name.  Dunder names such as
`__version__` are public.  A public def or class that only the tests call
belongs in the tests, as their oracle or helper.
"""

import ast
from pathlib import Path

import wstsim

SRC = Path(wstsim.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    """`from <wstsim module> import _name` statements of one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "wstsim":
            continue
        found += [
            f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}"
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
    return found


def test_no_module_imports_a_private_name_of_another():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    assert [hit for path in files for hit in private_imports(path)] == []


def test_the_check_sees_relative_and_absolute_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .protocol import _repair_range, run_repair_trials\n"
        "from wstsim.lift import _gray_axis\n"
        "from os import _exit\n"
        "from . import __version__\n"
        "def f():\n"
        "    from .decoder import _RANK_TOL\n"
    )
    assert [hit.split(" imports ")[1] for hit in private_imports(sample)] == [
        "_repair_range from .protocol",
        "_gray_axis from wstsim.lift",
        "_RANK_TOL from .decoder",
    ]


ROOT = Path(__file__).resolve().parents[1]


def unreferenced_public_names(defining: list[Path], referring: list[Path]) -> list[str]:
    """Public module-level `def`s and `class`es of the defining files that no
    referring file names, other than by defining them: as a name, an
    attribute, an imported name or a whole string constant (the benchmark
    names the functions it wraps as strings)."""
    used = set()
    for path in referring:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path in defining
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]


def test_every_public_name_has_a_use_outside_the_tests():
    # a public def or class that only tests call is code no command needs
    defining = sorted((ROOT / "src" / "wstsim").glob("*.py"))
    referring = defining + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    assert len(defining) > 10 and len(referring) > len(defining)
    assert unreferenced_public_names(defining, referring) == []


def test_the_name_check_sees_every_kind_of_reference(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class Point:\n"
        "    def unused_method(self): ...\n"
        "def called(): ...\n"
        "def imported(): ...\n"
        "def wrapped(): ...\n"
        "def as_attribute(): ...\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def orphan(): ...\n"
        "def _private(): ...\n"
        "_alias = called\n"
    )
    user = tmp_path / "user.py"
    user.write_text(
        "import lib\n"
        "from lib import imported\n"
        "WRAPPED = ('lib', 'wrapped')\n"
        "lib.as_attribute()\n"
        "p: 'Point' = None\n"
    )
    assert unreferenced_public_names([lib], [lib, user]) == ["lib.py:8 orphan"]
    assert unreferenced_public_names([lib], [user]) == ["lib.py:3 called", "lib.py:7 recursive", "lib.py:8 orphan"]
