"""Every name a module of `switchyard` imports at top level is read in that module."""

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
