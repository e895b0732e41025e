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


def defined_names(node: ast.stmt) -> list[str]:
    """The names one module-level statement binds: a `def`'s or a
    `class`'s name, or every name an assignment stores."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return []


def unreferenced_public_names(defining: list[Path], referring: list[Path]) -> list[str]:
    """Public module-level `def`s, `class`es and assigned names of the
    defining files that no referring file reads: as a name or an attribute
    in Load context, an imported name or a whole string constant (the
    benchmark names the functions it wraps as strings).  Defining or
    assigning a name is not a use."""
    used = set()
    for path in referring:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return [
        f"{path.name}:{node.lineno} {name}"
        for path in defining
        for node in ast.parse(path.read_text(), filename=str(path)).body
        for name in defined_names(node)
        if not name.startswith("_") and name not in used
    ]


def test_every_public_name_has_a_use_outside_the_tests():
    # a public def, class or constant that only tests use is code no command needs
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
        "LIMIT = 3\n"
        "UNREAD: int = 4\n"
        "LOW, HIGH = 0, LIMIT\n"
        "REBOUND = 5\n"
        "REBOUND = 6\n"
        "SCALE = 2.0\n"
        "_HIDDEN = 7\n"
    )
    user = tmp_path / "user.py"
    user.write_text(
        "import lib\n"
        "from lib import imported\n"
        "WRAPPED = ('lib', 'wrapped')\n"
        "lib.as_attribute()\n"
        "p: 'Point' = None\n"
        "print(lib.HIGH * lib.SCALE)\n"
    )
    assert unreferenced_public_names([lib], [lib, user]) == [
        "lib.py:8 orphan", "lib.py:12 UNREAD", "lib.py:13 LOW", "lib.py:14 REBOUND", "lib.py:15 REBOUND",
    ]
    assert unreferenced_public_names([lib], [user]) == [
        "lib.py:3 called", "lib.py:7 recursive", "lib.py:8 orphan", "lib.py:11 LIMIT", "lib.py:12 UNREAD",
        "lib.py:13 LOW", "lib.py:14 REBOUND", "lib.py:15 REBOUND",
    ]


def mentions(path: Path, name: str) -> list[str]:
    """Where one source file names `name`: as a name, an attribute, an
    imported name or a definition."""
    lines = {
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if name in (
            getattr(node, "id", None), getattr(node, "attr", None),
            node.name if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)) else None,
        )
    }
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_only_the_sweep_driver_maps_tasks():
    # parallel.sweep is the one place a sweep is cut into tasks; a module that
    # mapped tasks itself would bring back a second partition policy
    others = [path for path in sorted(SRC.glob("*.py")) if path.name != "parallel.py"]
    assert len(others) > 10
    assert [hit for path in others for hit in mentions(path, "map_tasks")] == []
    assert mentions(SRC / "parallel.py", "map_tasks")


def test_the_mention_check_sees_every_kind_of_name(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .parallel import map_tasks\n"
        "from . import parallel\n"
        "parallel.map_tasks(abs, [])\n"
        "run = map_tasks\n"
        "def map_tasks(): ...\n"
        "sweep = parallel.sweep\n"
        "text = 'map_tasks'\n"
    )
    assert mentions(sample, "map_tasks") == ["sample.py:1", "sample.py:3", "sample.py:4", "sample.py:5"]
