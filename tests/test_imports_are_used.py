"""Every name a module of src/framelat imports is used in that module.

An import left behind when its last use goes (a re-exported error class, a
typing helper) keeps a dead dependency between modules.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "framelat"


def _imported_names(tree) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _loaded_names(tree) -> set[str]:
    """Names read as a bare name, including the module in module.attr."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = _loaded_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []
