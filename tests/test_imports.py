"""Module boundaries: no wstsim module imports another's private names.

A `_`-prefixed name is free to change with its own module; a module that
needs something from another uses a public name.  Dunder names such as
`__version__` are public.
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
