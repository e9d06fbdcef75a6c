"""Every name a library module imports is referenced in that module, and
every public module-level function or class is exported or used.

An import nothing reads is a second home for a name: a leftover of code
that moved, or a copy that a patch could target without effect.  The
package ``__init__`` re-exports and is exempt.  A public definition that no
library code reads and the package does not export runs only in the tests:
a checked twin of a kernel, or a definition the tests check against, which
belongs in ``tests/seed_reference.py``.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import treeforcing

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


def _references(node: ast.AST) -> set[str]:
    """The names a statement reads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_is_exported_or_used():
    """A public module-level function or class is in ``treeforcing.__all__``
    or is read by library code outside its own definition."""
    top = [
        node
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    refs = [(node, _references(node)) for node in top]
    unused = [
        node.name
        for node in top
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in treeforcing.__all__
        and not any(node.name in names for other, names in refs if other is not node)
    ]
    assert not unused, unused
