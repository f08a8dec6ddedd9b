"""The package has two failure types and raises no other.

``daoracle.errors`` defines exactly ``ParameterError`` (an input that fails
validation, the CLI's exit code 2) and ``BadCode`` (a defective code, exit
code 6), and every ``raise`` in ``src/daoracle`` names one of them, so
``cli.main`` maps every failure the package raises to an exit code in
FORMATS.md. The one exception is the ``argparse.ArgumentTypeError`` of
``cli._index_list``, which argparse turns into exit code 2 with its own
message. A bare ``raise`` or a ``raise`` of a variable names no type and
counts as another.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "daoracle"

FAILURE_TYPES = {"ParameterError", "BadCode"}
ALLOWED_OTHERS = {("cli", "_index_list", "argparse.ArgumentTypeError")}


def raises(source: str) -> set[tuple[str, str]]:
    """(enclosing function, raised type) for each ``raise`` in ``source``;
    the function is "" at module level, and the type is the source text of
    the raised call's callee, or of the raised expression if it is no call."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                found.add((function, "raise" if exc is None else ast.unparse(exc)))
            visit(child, function)

    visit(ast.parse(source), "")
    return found


def test_errors_defines_exactly_the_two_failure_types():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == FAILURE_TYPES


def test_every_raise_in_the_package_names_a_failure_type():
    others = {
        (path.stem, function, raised)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, raised in raises(path.read_text())
        if raised not in FAILURE_TYPES
    }
    assert others == ALLOWED_OTHERS


def test_the_check_sees_every_raise():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ParameterError('bad')\n"
        "    try:\n"
        "        g()\n"
        "    except OSError as exc:\n"
        "        raise exc\n"
        "    def inner():\n"
        "        raise\n"
        "    raise errors.BadCode\n"
        "raise ValueError(1) from None\n"
    )
    assert raises(source) == {
        ("f", "ParameterError"),
        ("f", "exc"),
        ("inner", "raise"),
        ("f", "errors.BadCode"),
        ("", "ValueError"),
    }
