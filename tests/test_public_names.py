"""Every public top-level name of ``src/daoracle``, and every public method
and annotated field of its classes, has a reader outside the tests: a
``src/daoracle`` module or a ``protobench`` file.

A name counts as read where a module loads it, as a name or an attribute,
or imports it; in ``protobench`` also where a string names it, as its
``Wrap("daoracle.cit", "walk_pom")`` entries do. A class that passes itself
to ``asdict`` (a ``to_json``) reads each of its fields. The exceptions are
the allowlists below, which must match exactly, so they only shrink:
``coverage``, ``verify_design`` and ``invalid_design_bound`` are the
dispersal theorem's check and bound, which only the acceptance tests run
so far, and ``decode_fraud_proof`` is the documented DAF3 reader. No
method or field is unread.

A member counts as read where any attribute of its name is loaded,
whatever the object, so a name two classes share hides the unread one: an
unread ``depth`` on any class passes, since ``Geometry.depth`` is read.
Such a shared name is checked by hand.
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
    ("serialize", "decode_fraud_proof"),
}
ALLOWED_UNREAD_MEMBERS: set[tuple[str, str, str]] = set()


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
    """The names ``source`` loads, as names or attributes, or imports, and
    with ``strings`` each dotted part of its string constants. Storing an
    attribute does not read it, nor does storing an item of it, as
    ``obj.log[k] = v`` does, nor loading it inside an assignment to that
    same attribute, as ``self.n = self.n + 1`` does."""
    tree = ast.parse(source)
    updates = set()  # ids of the attribute loads that only serve a store, to them or an item
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            updates.add(id(node.value))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored = {
                n.attr for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            }
            updates |= {
                id(n) for n in ast.walk(node.value)
                if isinstance(n, ast.Attribute) and n.attr in stored
            }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load) and id(node) not in updates:
                read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def fields(cls: ast.ClassDef) -> set[str]:
    """The names a class body annotates."""
    return {
        node.target.id for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }


def public_members(source: str) -> set[tuple[str, str]]:
    """(class, name) for each method and annotated field without a leading
    underscore of the classes ``source`` defines at top level."""
    members = set()
    for cls in ast.parse(source).body:
        if isinstance(cls, ast.ClassDef):
            methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            members |= {(cls.name, name) for name in methods | fields(cls)}
    return {(cls, name) for cls, name in members if not name.startswith("_")}


def serialized_fields(source: str) -> set[str]:
    """The annotated fields of each top-level class of ``source`` whose
    methods call ``asdict(self)``, which reads every field."""
    read = set()
    for cls in ast.parse(source).body:
        if isinstance(cls, ast.ClassDef) and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "asdict"
            and [getattr(arg, "id", None) for arg in node.args] == ["self"]
            for node in ast.walk(cls)
        ):
            read |= fields(cls)
    return read


def package_reads() -> set[str]:
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        read |= read_names(path.read_text(), strings=False)
        read |= serialized_fields(path.read_text())
    for path in sorted(BENCHMARK.rglob("*.py")):
        read |= read_names(path.read_text(), strings=True)
    return read


def test_every_public_name_of_the_package_has_a_reader():
    read = package_reads()
    unread = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in public_names(path.read_text())
        if name not in read
    }
    assert unread == ALLOWED_UNREAD


def test_every_public_member_of_a_package_class_has_a_reader():
    read = package_reads()
    unread = {
        (path.stem, cls, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, name in public_members(path.read_text())
        if name not in read
    }
    assert unread == ALLOWED_UNREAD_MEMBERS


def test_the_member_check_sees_an_unread_member():
    source = (
        "import json\n"
        "from dataclasses import asdict, dataclass\n"
        "class Shape:\n"
        "    sizes: tuple\n"
        "    depth: int = 0\n"
        "    def pairs(self, i):\n"
        "        return self.sizes[i]\n"
        "    def _hidden(self):\n"
        "        return self.depth\n"
        "@dataclass\n"
        "class Report:\n"
        "    rate: float\n"
        "    def to_json(self):\n"
        "        return json.dumps(asdict(self))\n"
        "class Counter:\n"
        "    n: int = 0\n"
        "    seen: bool = False\n"
        "    def _step(self):\n"
        "        self.n = self.n + 1\n"
        "        self.seen = True\n"
        "class Log:\n"
        "    entries: dict\n"
        "    def _note(self, k, v):\n"
        "        self.entries[k] = v\n"
    )
    read = read_names(source, strings=False) | serialized_fields(source)
    unread = {member for member in public_members(source) if member[1] not in read}
    assert unread == {
        ("Shape", "pairs"), ("Report", "to_json"), ("Counter", "n"), ("Counter", "seen"),
        ("Log", "entries"),
    }


def test_only_cit_constructs_a_tree():
    """No test or benchmark file calls ``Layer`` or ``CodedTree``: every
    tree, tampered or not, is ``cit.build_tree``'s."""
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted([*(ROOT / "tests").rglob("*.py"), *BENCHMARK.rglob("*.py")])
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("Layer", "CodedTree")
    ]
    assert calls == []


def test_no_package_or_test_file_reads_symbol_indices():
    """``ParityEquation.symbol_indices`` returns the equation itself and
    is kept only because a ``protobench`` file reads it; no package or
    test file does, so it has no other reader to move when it goes."""
    reads = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").rglob("*.py")])
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "symbol_indices"
    ]
    assert reads == []
