"""Every name a library module imports is referenced in that module.

An import nothing reads is a second home for a name: a leftover of code
that moved, or a copy that a patch could target without effect.  The
package ``__init__`` re-exports and is exempt.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treeforcing"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= referenced, sorted(imported - referenced)
