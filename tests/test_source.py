import ast
import importlib
import warnings
from pathlib import Path

import pytest

import hesspave

SOURCES = sorted(Path(hesspave.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_one_version_string():
    # pyproject reads the version from hesspave.__version__ instead of
    # stating its own
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "hesspave.__version__"
    try:
        from setuptools.config.pyprojecttoml import read_configuration
    except ImportError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expanded = read_configuration(PYPROJECT)
    assert expanded["project"]["version"] == hesspave.__version__


def test_no_assert_statements():
    # `python -O` strips assert, so invariants must raise explicitly.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _annotation_names(tree) -> set[str]:
    """Names inside string annotations, which ast leaves as constants."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def test_no_unused_imports():
    # __init__.py imports only to re-export
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _annotation_names(tree)
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


def test_private_functions_are_called():
    # a module-level helper that nothing in the package calls is dead code;
    # calls from inside its own body (recursion) do not count
    defined = {}
    called = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = top.name
                if own.startswith("_") and not own.startswith("__"):
                    defined[own] = f"{path.name}:{top.lineno}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name != own:
                        called.add(name)
    assert defined
    assert sorted(f"{loc} {name}" for name, loc in defined.items() if name not in called) == []


def test_no_private_cross_module_imports():
    # an underscore name is private to the module that defines it
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_public_functions_are_used():
    # a public module-level function must be called (or handed on as a
    # callable) somewhere in the package, or re-exported by __init__.py;
    # references from its own body do not count
    defined = {}
    used = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "__init__.py":
            used |= {alias.asname or alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names}
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = top.name
                if not own.startswith("_"):
                    defined[own] = f"{path.name}:{top.lineno}"
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    assert defined
    assert sorted(f"{loc} {name}" for name, loc in defined.items() if name not in used) == []


def test_public_methods_are_used():
    # a public, non-dunder method must be named somewhere in the package or
    # the tests; references from its own body do not count
    tests = sorted(Path(__file__).parent.glob("*.py"))
    defined = {}
    used = set()

    def visit(node, own, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = node.name
        elif isinstance(node, ast.ClassDef) and path in SOURCES:
            for fn in node.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("_")):
                    defined.setdefault(fn.name, f"{path.name}:{fn.lineno}")
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own, path)

    for path in SOURCES + tests:
        visit(ast.parse(path.read_text(), filename=str(path)), None, path)
    assert defined
    assert sorted(f"{loc} {name}" for name, loc in defined.items() if name not in used) == []


def test_traced_names_exist():
    # perfbench/tracing.py looks up every name in TRACED with getattr, so a
    # rename here would crash every traced benchmark run; read it, do not import it
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    [traced] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    traced = ast.literal_eval(traced)
    assert traced
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"hesspave.{module}"), name)
    ]
    assert missing == []


def _only_raises(fn) -> bool:
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return bool(body) and all(isinstance(stmt, ast.Raise) for stmt in body)


def test_parameters_are_read():
    # a parameter that the body never reads is dead weight at every call
    # site; bodies that only raise (abstract base methods) are exempt
    found = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _only_raises(fn):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            found += [
                f"{path.name}:{fn.lineno} {fn.name}({p})"
                for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")
            ]
    assert found == []
