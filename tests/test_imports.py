"""Every module-level import of the library is used."""

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
