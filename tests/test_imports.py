"""Every name a ``src/daoracle`` module imports is used in that module.

A name counts as used when the module reads it anywhere outside its
imports: a call, an annotation, an attribute base. ``__future__`` imports
bind nothing. The only exceptions are the names ``oracle`` imports so that
``protobench`` can reach them through ``oracle``'s namespace: it times
``aggregate`` and ``encode_array`` there (``protobench/layers.py``), and its
tests replace ``verify_symbol`` there. The allowlist must match exactly, so
it shrinks when ``protobench`` stops needing a name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "daoracle"

ALLOWED_UNUSED = {
    ("oracle", "aggregate"),
    ("oracle", "encode_array"),
    ("oracle", "verify_symbol"),
}


def unused_imports(source: str) -> set[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - read


def test_every_import_of_the_package_is_used():
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unused_imports(path.read_text())
    }
    assert unused == ALLOWED_UNUSED


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Optional, Union\n"
        "Union = None\n"
        "def f(x: Optional[int]):\n"
        "    return system.argv\n"
    )
    assert unused_imports(source) == {"os", "Union"}
