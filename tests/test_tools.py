"""The scripts under tools/ and the benchmark under bench/ still fit the library.

The scripts are not run: each is parsed, every name it imports from
reproflow must resolve, and every call of an imported function must bind
to its signature.  The benchmark
is read the same way: the names `bench/workload.py` reaches through
``from reproflow import (...)`` and the (module, attribute) pairs the
tracer in `bench/spans.py` patches must exist, so that a library rename
breaks this suite and not only the benchmark.  The report APIs the
workloads judge by (`passed`, `passed(tol)`, `converged`) are reached
through objects, not names, so one iteration of each verifying workload
is run and must pass its own checks; the CLI suite is only set up, which
parses the configs it runs.  Every script that the library, the
tests or the READMEs name must exist.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOLS = sorted((ROOT / "tools").glob("*.py"))
BENCH = ROOT / "bench"


def _library_imports(tree):
    """{local name: (module, name)} for every import from reproflow or reproflow.*."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reproflow"):
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


def _resolve(label, imports):
    """{local name: object}; a name that is a submodule is imported as one."""
    resolved = {}
    for local, (module, name) in imports.items():
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                pass
        assert hasattr(mod, name), f"{label}: {module} has no {name}"
        resolved[local] = getattr(mod, name)
    return resolved


def _check_library_calls(label, tree, resolved):
    """Every `mod.name` on an imported module exists; every call binds to its target.

    A call binds when its positional count and keywords fit the target's
    signature (a missing required parameter, an extra positional or an
    unknown keyword fail); of a call with starred arguments only the
    named keywords are checked.  Returns the number of calls checked.
    """
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and isinstance(resolved.get(node.value.id), types.ModuleType)):
            assert hasattr(resolved[node.value.id], node.attr), (
                f"{label}:{node.lineno}: {node.value.id} has no {node.attr}")
    bound = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in resolved:
            name, target = func.id, resolved[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and isinstance(resolved.get(func.value.id), types.ModuleType)):
            name, target = f"{func.value.id}.{func.attr}", getattr(resolved[func.value.id],
                                                                   func.attr)
        else:
            continue
        if not callable(target):
            continue
        sig = inspect.signature(target)
        keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        starred = (any(isinstance(a, ast.Starred) for a in node.args)
                   or len(keywords) < len(node.keywords))
        try:
            if starred:  # only the named keywords can be checked
                sig.bind_partial(**keywords)
            else:
                sig.bind(*[None] * len(node.args), **keywords)
        except TypeError as exc:
            pytest.fail(f"{label}:{node.lineno}: {name}() call does not bind: {exc}")
        bound += 1
    return bound


@pytest.mark.parametrize("script", TOOLS, ids=lambda p: p.name)
def test_tool_imports_resolve(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    assert _check_library_calls(script.name, tree,
                                _resolve(script.name, _library_imports(tree))) > 0


def test_bench_uses_existing_library_names():
    path = BENCH / "workload.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = _library_imports(tree)
    assert {"galerkin", "lift", "stokes"} <= set(imports), "workload.py imports moved"
    assert _check_library_calls(path.name, tree, _resolve(path.name, imports)) > 0

    path = BENCH / "spans.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    assert targets, "spans.TARGETS is empty"
    for module, attr, _ in targets:
        assert hasattr(importlib.import_module(module), attr), (
            f"spans.TARGETS: {module} has no {attr}")


def _bench_workload(name, tmp_path, monkeypatch):
    """The set-up of one workload of bench/workload.py, in tmp_path."""
    monkeypatch.syspath_prepend(str(BENCH))  # workload.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("bench_workload", BENCH / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    workload._import_library()
    return workload.WORKLOADS[name](workload.Context(name, 0, str(tmp_path)))


@pytest.mark.parametrize("name", ["trajectory", "cold_build", "period_map"])
def test_bench_workload_iteration_passes_its_checks(name, tmp_path, monkeypatch):
    runner = _bench_workload(name, tmp_path, monkeypatch)
    assert runner.check(runner.iterate(0, None)) == []


def test_bench_cli_suite_configs_parse(tmp_path, monkeypatch):
    # set-up only: it writes and parses the six configs the suite runs,
    # so a schema change that the CLI would refuse them under fails here
    runner = _bench_workload("cli_suite", tmp_path, monkeypatch)
    assert len(runner.configs) == 6


def test_named_tool_scripts_exist():
    texts = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
             ROOT / "README.md", BENCH / "README.md"]
    named = {(path.relative_to(ROOT), name) for path in texts
             for name in re.findall(r"\btools/(\w+\.py)\b", path.read_text())}
    missing = sorted(f"{path} names tools/{name}" for path, name in named
                     if not (ROOT / "tools" / name).is_file())
    assert not missing, missing
