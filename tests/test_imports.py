"""Every module-level import of the library is used, and every private
definition is read."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "egadapt"

#: imports kept unused on purpose, by module: the performance tracer wraps
#: ``edge_rule`` where the estimator looks it up
KEPT = {"estimator": ["edge_rule"]}


def unused_imports(path):
    """Names bound by the module-level imports of ``path`` (``from
    __future__`` aside) that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


# __init__.py imports to re-export
@pytest.mark.parametrize("module", sorted(
    p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_no_dead_imports(module):
    assert unused_imports(SRC / f"{module}.py") == KEPT.get(module, [])


def private_definitions(tree):
    """Private module-level names (functions, classes, assignments) and
    private methods defined in a module's syntax tree."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f.name for f in node.body
                         if isinstance(f, ast.FunctionDef))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for t in targets:
            names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def names_read(tree):
    """Names a module reads: ``Name`` and ``Attribute`` loads and the
    names of ``from`` imports."""
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(a.name for a in n.names)
    return read


def test_no_dead_private_definitions():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    read = set().union(*map(names_read, trees.values()))
    dead = {m: sorted(private_definitions(t) - read)
            for m, t in trees.items()}
    assert {m: d for m, d in dead.items() if d} == {}
