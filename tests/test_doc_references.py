"""Every dotted code reference in the docs names something that exists.

A reference is a code span whose text starts with a dotted name: a
double-backtick span in a docstring of ``src/daoracle`` or ``tests``, or a
backtick span outside the code blocks of README.md and FORMATS.md. It is
checked when its first part names a ``daoracle`` module (with or without
the ``daoracle.`` prefix), a class a ``daoracle`` module defines, or a
module of ``tests``, as ``conftest.ingested`` does. Each further part must
then be a module attribute, a class attribute (a method, a property, a
slot, a NamedTuple field), or a dataclass field or annotated name, so
``Geometry.depth`` resolves though a frozen dataclass has no class
attribute ``depth``. Any other span, such as ``tree.commitment``, is prose
about a value and is not checked. A reference that stops resolving is a
stale doc left by a rename or a deletion.

A span of README.md or FORMATS.md that starts with a CLI command, as
``retrieve --chunks`` or ``daoracle pom --index`` do, must name only flags
``cli.build_parser()`` gives that command. A markdown span may wrap one
line.

The files FORMATS.md lists under "``simulate --out DIR`` writes these
files" are the files ``simulate`` writes for the shipped scenarios, with
``N`` and ``<round>`` standing for numbers: every written file matches a
listed name, and some scenario writes each listed name.
"""

import argparse
import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import daoracle
from daoracle import cli

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS_LINE = "`simulate --out DIR` writes these files"
TESTS = ROOT / "tests"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
MISSING = object()


def roots_of(*test_modules: str):
    """The lookup of a reference's first part: a ``daoracle`` module, a
    class a ``daoracle`` module defines, or one of ``test_modules``
    (imported on first use); None for any other name."""
    modules = {
        info.name: importlib.import_module(f"daoracle.{info.name}")
        for info in pkgutil.iter_modules(daoracle.__path__)
        if not info.name.startswith("__")
    }
    roots = {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    roots.update(modules)

    def lookup(name):
        if name in test_modules:
            return importlib.import_module(name)
        return roots.get(name)

    return lookup


def docstrings(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def docstring_spans(source: str) -> list[str]:
    return [span for doc in docstrings(source) for span in re.findall(r"``(.+?)``", doc, re.S)]


def markdown_spans(text: str) -> list[str]:
    """The backtick spans outside code blocks, each wrapped line joined to
    the next by one space."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return [" ".join(span.split()) for span in re.findall(r"`([^`\n]+(?:\n[^`\n]+)?)`", text)]


def member(owner, name: str):
    """``owner``'s attribute or field ``name``: the value when it has one,
    None for a field without a class-level value, else MISSING."""
    value = getattr(owner, name, MISSING)
    if value is not MISSING:
        return value
    if dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}:
        return None
    if isinstance(owner, type) and name in getattr(owner, "__annotations__", {}):
        return None
    return MISSING


def resolves(reference: str, roots) -> bool | None:
    """Whether ``reference`` resolves, or None when its first part names
    nothing ``roots`` (first part -> module or class) holds."""
    first, *rest = reference.removeprefix("daoracle.").split(".")
    owner = roots(first)
    if owner is None:
        return None
    for name in rest:
        if owner is None:  # a field's value: nothing further to look up
            return True
        owner = member(owner, name)
        if owner is MISSING:
            return False
    return True


def verdicts(sources, roots) -> dict[str, bool]:
    """``where: reference`` -> whether it resolves, for each reference in
    (where, spans) pairs whose first part ``roots`` knows."""
    out = {}
    for where, spans in sources:
        for span in spans:
            match = DOTTED.match(span.strip())
            verdict = match and resolves(match.group(), roots)
            if verdict is not None:
                out[f"{where}: {match.group()}"] = verdict
    return out


def stale(sources, roots) -> list[str]:
    return [reference for reference, ok in verdicts(sources, roots).items() if not ok]


def command_flags() -> dict[str, set[str]]:
    """Each command of ``cli.build_parser()`` -> the flags it takes."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for action in sub._actions for flag in action.option_strings}
        for name, sub in commands.choices.items()
    }


def flag_uses(sources, flags: dict[str, set[str]]) -> list[tuple[str, str, str]]:
    """(where, command, flag) for each ``--`` word of each span that starts
    with a command of ``flags``, after an optional ``daoracle``."""
    out = []
    for where, spans in sources:
        for span in spans:
            command, *words = span.removeprefix("daoracle ").split() or [""]
            if command in flags:
                out += [(where, command, word) for word in words if word.startswith("--")]
    return out


def unknown_flags(sources, flags: dict[str, set[str]]) -> list[str]:
    return [
        f"{where}: {command} {flag}"
        for where, command, flag in flag_uses(sources, flags)
        if flag not in flags[command]
    ]


def documented_outputs(text: str) -> list[str]:
    """The file name that opens each bullet of the list under
    ``OUTPUTS_LINE``; the list ends at the first blank line."""
    _, _, after = text.partition(OUTPUTS_LINE)
    return re.findall(r"^- `([^`]+)`", after.split("\n\n", 1)[0], re.M)


def output_mismatches(documented: list[str], runs: list[set[str]]) -> list[str]:
    """Each written file that no documented name matches, and each
    documented name that no run (a set of file names) writes."""
    patterns = {
        name: re.compile(r"\d+".join(map(re.escape, re.split(r"N|<round>", name))))
        for name in documented
    }
    written = set().union(*runs)
    undocumented = [
        f"undocumented: {f}" for f in written
        if not any(p.fullmatch(f) for p in patterns.values())
    ]
    unwritten = [
        f"never written: {name}" for name, p in patterns.items()
        if not any(p.fullmatch(f) for f in written)
    ]
    return sorted(undocumented + unwritten)


def doc_sources() -> list:
    return [(name, markdown_spans((ROOT / name).read_text())) for name in ("README.md", "FORMATS.md")]


def test_every_dotted_reference_in_the_docs_resolves():
    roots = roots_of(*(path.stem for path in TESTS.glob("*.py")))
    paths = sorted((ROOT / "src" / "daoracle").glob("*.py")) + sorted(TESTS.glob("*.py"))
    sources = [(path.relative_to(ROOT), docstring_spans(path.read_text())) for path in paths]
    sources += doc_sources()
    assert len(verdicts(sources, roots)) > 50  # the scan finds the docs' references
    assert stale(sources, roots) == []


def test_the_check_sees_a_stale_reference():
    source = (
        '"""``cit.Frontier.claim`` and ``cit.Frontier.known``, ``Geometry.depth``,\n'
        "``cit.Geometry.width``, ``tree.commitment.params``, ``retrieval.Nothing``,\n"
        '``ProofOfMembership.parities``, ``Frontier.held`` and ``cit.MAX_BASE_SYMBOLS``."""\n'
        "def f():\n"
        '    """``serialize.decode_pom(data)`` or ``serialize.decode_pom2``."""\n'
    )
    roots = roots_of()
    assert stale([("x.py", docstring_spans(source))], roots) == [
        "x.py: cit.Frontier.known", "x.py: cit.Geometry.width", "x.py: retrieval.Nothing",
        "x.py: serialize.decode_pom2",
    ]
    markdown = "`retrieval.FraudMember.layer` and\n```\n`cit.Nothing`\n```\n`cit.Frontier.rows(u)`"
    spans = markdown_spans(markdown)
    assert spans == ["retrieval.FraudMember.layer", "cit.Frontier.rows(u)"]
    assert stale([("x.md", spans)], roots) == ["x.md: retrieval.FraudMember.layer"]


def test_every_documented_command_flag_exists():
    flags, sources = command_flags(), doc_sources()
    assert len(flag_uses(sources, flags)) >= 3  # the scan finds the docs' flags
    assert unknown_flags(sources, flags) == []


def test_the_check_sees_a_stale_flag():
    markdown = (
        "`retrieve --chunks` and `daoracle pom --index 3 --every`, `simulate\n--trace`,\n"
        "```\n`verify --fraud`\n```\n`--trace 0` and `python3 protobench/run.py --trace 1`"
    )
    spans = markdown_spans(markdown)
    assert "simulate --trace" in spans and "verify --fraud" not in spans
    assert unknown_flags([("x.md", spans)], command_flags()) == [
        "x.md: pom --every", "x.md: simulate --trace",
    ]


def test_formats_lists_the_files_simulate_writes(tmp_path):
    runs = []
    for scenario in sorted((ROOT / "scenarios").glob("*.json")):
        out = tmp_path / scenario.stem
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        runs.append({path.name for path in out.iterdir()})
    documented = documented_outputs((ROOT / "FORMATS.md").read_text())
    assert len(runs) >= 2 and documented
    assert output_mismatches(documented, runs) == []


def test_the_check_sees_a_stale_output_name():
    text = (
        "`simulate --out DIR` writes these files into DIR:\n"
        "- `trace.json`: the trace;\n- `summary.json`: each round's outcomes;\n"
        "- `fraud_N.bin`: the N-th proof.\n\n- `later.txt`: after the list\n"
    )
    documented = documented_outputs(text)
    assert documented == ["trace.json", "summary.json", "fraud_N.bin"]
    runs = [{"trace.json", "fraud_0.bin", "fraud_12.bin"}, {"trace.json", "chain.log", "fraudN.bin"}]
    assert output_mismatches(documented, runs) == [
        "never written: summary.json", "undocumented: chain.log", "undocumented: fraudN.bin",
    ]
