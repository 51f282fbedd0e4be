"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import franklin_squares

MODULES = sorted(
    path
    for path in Path(franklin_squares.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # imports there are the public re-exports
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, also inside a quoted annotation."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            is_def = isinstance(node, ast.FunctionDef)
            note = node.returns if is_def else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used(ast.parse(note.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: unused imports (name: line) {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps as _dumps, loads\n"
        "def f(x: 'Sequence') -> 'int':\n"
        "    return loads(x)\n"
    )
    names = _imported(tree)
    assert names == {"os": 2, "_dumps": 3, "loads": 3}
    assert {"loads", "Sequence", "int"} <= _used(tree)
    assert set(names) - _used(tree) == {"os", "_dumps"}
