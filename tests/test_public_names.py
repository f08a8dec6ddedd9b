"""Every public top-level name of ``src/daoracle`` has a reader outside the
tests: a ``src/daoracle`` module or a ``protobench`` file.

A name counts as read where a module loads it, takes it as an attribute or
imports it; in ``protobench`` also where a string names it, as its
``Wrap("daoracle.cit", "walk_pom")`` entries do. The exceptions are the
allowlist below, which must match exactly, so it only shrinks:
``coverage``, ``verify_design`` and ``invalid_design_bound`` are the
dispersal theorem's check and bound, which only the acceptance tests run
so far; ``best_oracle_deviation`` is the incentive analysis; and
``decode_fraud_proof`` is the documented DAF2 reader.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "daoracle"
BENCHMARK = ROOT / "protobench"

ALLOWED_UNREAD = {
    ("dispersal", "coverage"),
    ("dispersal", "invalid_design_bound"),
    ("dispersal", "verify_design"),
    ("incentives", "best_oracle_deviation"),
    ("serialize", "decode_fraud_proof"),
}


def public_names(source: str) -> set[str]:
    """The names ``source`` defines at top level without a leading
    underscore: functions, classes and assigned names."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    return {name for name in names if not name.startswith("_")}


def read_names(source: str, strings: bool) -> set[str]:
    """The names ``source`` loads, takes as attributes or imports, and with
    ``strings`` each dotted part of its string constants."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def test_every_public_name_of_the_package_has_a_reader():
    modules = sorted(PACKAGE.glob("*.py"))
    read = set()
    for path in modules:
        read |= read_names(path.read_text(), strings=False)
    for path in sorted(BENCHMARK.rglob("*.py")):
        read |= read_names(path.read_text(), strings=True)
    unread = {
        (path.stem, name)
        for path in modules
        for name in public_names(path.read_text())
        if name not in read
    }
    assert unread == ALLOWED_UNREAD
