"""Source checks on the package itself: no imported name goes unused, and
only the reader imports the ``csv`` module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loadsizer"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def imported_modules(tree: ast.Module) -> set[str]:
    """Every module an ``import`` or ``from ... import`` names."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, or exported by ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import contextlib\nimport numpy as np\n\nx = np.zeros(1)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"contextlib"}


def test_only_the_reader_imports_csv():
    """CSV files are read in ``timeseries`` and written through ``results``'s
    column writers; no other module opens one with the ``csv`` module."""
    importers = {
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if "csv" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"timeseries.py"}
