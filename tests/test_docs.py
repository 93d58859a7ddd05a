"""Docs stay truthful: code fences and symbol references must resolve.

The CI docs gate: every import statement inside a ```python fence of
README.md / docs/*.md must execute, every dotted ``repro.*`` name anywhere
in those files must resolve to a real module/attribute, every ``api.<name>``
reference must exist on :mod:`repro.api`, every keyword a python fence
passes to an ``api.*`` function or to a name imported from ``repro`` must
be a parameter of that callable, every ``repro-sweep`` subcommand the docs
mention must exist in the CLI parser, and every long ``--flag`` must be an
option of ``repro-sweep``, ``repro-lint``, ``repro-fuzz`` or
``benchmarks/bench_cad_flow.py``.  Renaming a public symbol, a parameter
or a flag without updating the docs fails this file.
"""

import argparse
import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import repro.api

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_cad_flow  # noqa: E402  (path shim above)

DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

FENCE_RE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
IMPORT_RE = re.compile(r"^(?:import|from)\s+\S.*$", re.MULTILINE)
DOTTED_RE = re.compile(r"\brepro(?:\.\w+)+")
API_RE = re.compile(r"\bapi\.(\w+)")
CLI_RE = re.compile(r"repro-sweep\s+([a-z][\w-]*)")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _doc_texts() -> list[tuple[str, str]]:
    return [(path.name, path.read_text(encoding="utf-8")) for path in DOC_FILES]


def _python_fences() -> list[tuple[str, str]]:
    fences = []
    for name, text in _doc_texts():
        for match in FENCE_RE.finditer(text):
            if match.group(1) in ("python", "py"):
                fences.append((name, match.group(2)))
    return fences


def test_docs_exist_and_are_linked_from_readme():
    assert (ROOT / "docs" / "sweep.md").is_file()
    assert (ROOT / "docs" / "flow.md").is_file()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/sweep.md" in readme and "docs/flow.md" in readme


def test_python_fence_imports_execute():
    fences = _python_fences()
    assert fences, "docs should contain python examples"
    for name, code in fences:
        for statement in IMPORT_RE.findall(code):
            try:
                exec(statement, {})
            except Exception as exc:  # pragma: no cover - assertion carries context
                pytest.fail(f"{name}: {statement!r} failed: {exc}")


def test_dotted_repro_references_resolve():
    seen = set()
    for name, text in _doc_texts():
        for dotted in DOTTED_RE.findall(text):
            if dotted in seen:
                continue
            seen.add(dotted)
            parts = dotted.split(".")
            module, rest = None, parts
            for cut in range(len(parts), 0, -1):
                try:
                    module = importlib.import_module(".".join(parts[:cut]))
                    rest = parts[cut:]
                    break
                except ImportError:
                    continue
            if module is None:
                pytest.fail(f"{name}: {dotted!r} is not importable")
            obj = module
            for attribute in rest:
                if not hasattr(obj, attribute):
                    pytest.fail(f"{name}: {dotted!r} does not resolve ({attribute!r})")
                obj = getattr(obj, attribute)
    assert seen, "docs should reference repro.* symbols"


def test_api_references_exist():
    for name, text in _doc_texts():
        for attribute in API_RE.findall(text):
            assert hasattr(repro.api, attribute), f"{name}: api.{attribute} missing"


def _repro_bindings(tree: ast.AST) -> dict[str, object]:
    """Local name -> object for ``api`` and every ``from repro... import``."""
    bindings: dict[str, object] = {"api": repro.api}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                bindings[alias.asname or alias.name] = getattr(module, alias.name)
    return bindings


def _callee(func: ast.expr, bindings: dict[str, object]) -> object | None:
    """What a call's callee names, when it is a binding or an attribute path
    from one (``api.run_sweep``, ``SweepSpec.build``); else ``None``."""
    if isinstance(func, ast.Name):
        return bindings.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = _callee(func.value, bindings)
        if owner is not None:
            assert hasattr(owner, func.attr), f"{ast.unparse(func)} does not exist"
            return getattr(owner, func.attr)
    return None


def test_documented_keywords_are_parameters():
    checked = 0
    for name, code in _python_fences():
        tree = ast.parse(code)
        bindings = _repro_bindings(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee(node.func, bindings)
            if not callable(callee):
                continue
            parameters = inspect.signature(callee).parameters
            if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
                continue  # forwards keywords it does not name
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue  # a ** mapping
                checked += 1
                assert keyword.arg in parameters, (
                    f"{name}: {ast.unparse(node.func)}() has no parameter {keyword.arg!r}"
                )
    assert checked, "docs should pass keywords to repro callables"


def test_cli_subcommand_references_exist():
    from repro.cli import build_parser

    subparser_actions = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    valid = set(subparser_actions[0].choices)
    mentioned = set()
    for name, text in _doc_texts():
        for command in CLI_RE.findall(text):
            mentioned.add(command)
            assert command in valid, f"{name}: unknown subcommand {command!r}"
    # The docs should cover the full surface.
    assert valid <= mentioned, f"undocumented subcommands: {valid - mentioned}"


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every ``--flag`` of *parser* and of its subcommands."""
    options: set[str] = set()
    for action in parser._actions:
        options.update(flag for flag in action.option_strings if flag.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= _long_options(subparser)
    return options


def test_documented_flags_exist():
    from repro.cli import build_parser as sweep_parser
    from repro.fuzz import build_parser as fuzz_parser
    from repro.verify.cli import build_parser as lint_parser

    valid: set[str] = set()
    for parser in (sweep_parser(), lint_parser(), fuzz_parser(), bench_cad_flow.build_parser()):
        valid |= _long_options(parser)
    mentioned = 0
    for name, text in _doc_texts():
        for flag in FLAG_RE.findall(text):
            mentioned += 1
            assert flag in valid, f"{name}: unknown flag {flag!r}"
    assert mentioned, "docs should name command-line flags"
