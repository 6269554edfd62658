"""The scripts under tools/ still fit the library they import from.

The scripts are not run (some take minutes); each is parsed, and every
``from reproflow.<mod> import <name>`` must resolve, and every keyword
argument passed to an imported function must be one it accepts.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

TOOLS = sorted((pathlib.Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def _library_imports(tree):
    """{local name: (module, name)} for every import from reproflow.*."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reproflow"):
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


@pytest.mark.parametrize("script", TOOLS, ids=lambda p: p.name)
def test_tool_imports_resolve(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    imports = _library_imports(tree)
    resolved = {}
    for local, (module, name) in imports.items():
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{script.name}: {module} has no {name}"
        resolved[local] = getattr(mod, name)

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in resolved and callable(resolved[node.func.id])):
            continue
        params = inspect.signature(resolved[node.func.id]).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for kw in node.keywords:
            assert kw.arg is None or kw.arg in params, (
                f"{script.name}:{node.lineno}: {node.func.id}() has no "
                f"parameter {kw.arg!r}")
