"""Every name a module of `switchyard` imports at top level is read in that module, and
the modules import each other only down README's layering."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "switchyard"


def _imported(tree: ast.Module, lines):
    """(name, line) for each name bound by a top-level import, leaving out
    `__future__` imports and imports on a line marked ``noqa``."""
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                yield name, node.lineno


def _read(tree: ast.AST):
    """The names the module reads, counting those in string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in filter(None, annotations):
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _read(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    read = _read(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree, source.splitlines())
              if name not in read]
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def _switchyard_modules(path: Path, top_level: bool):
    """The `switchyard` modules ``path`` imports: at top level only, or anywhere in it."""
    tree = ast.parse(path.read_text())
    for node in tree.body if top_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("switchyard" + (f".{node.module}" if node.module else "") if node.level
                      else node.module)
            names = ([f"{module}.{alias.name}" for alias in node.names] if module == "switchyard"
                     else [module])
        else:
            continue
        yield from (name.split(".")[1] for name in names if name.startswith("switchyard."))


def test_algebra_imports_no_other_module():
    # every plan's recorder and lane runner sit below the modules that state the plans
    assert set(_switchyard_modules(SRC / "algebra.py", top_level=False)) == set()


@pytest.mark.parametrize("name", ["cocyclic", "slither", "io", "cli"])
def test_no_chart_module_imports_homology_at_top_level(name):
    assert "homology" not in set(_switchyard_modules(SRC / f"{name}.py", top_level=True))


def test_obstruction_imports_only_algebra():
    assert set(_switchyard_modules(SRC / "obstruction.py", top_level=False)) == {"algebra"}
