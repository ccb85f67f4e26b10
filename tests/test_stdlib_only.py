"""The library stays stdlib-only: every module of ``src/asgs`` imports
only the standard library and ``asgs`` itself.

The imports are read from the source with :mod:`ast`, so an import
inside a function or behind a condition counts as well.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "asgs"


def imported_top_levels(path: Path) -> set[str]:
    """The top-level names of the modules ``path`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_or_asgs():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = [
        (path.name, name)
        for path in modules
        for name in sorted(imported_top_levels(path))
        if name != "asgs" and name not in sys.stdlib_module_names
    ]
    assert outside == []
