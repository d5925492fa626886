"""The package's public names: __all__ lists exactly what __init__.py binds."""

import ast
from pathlib import Path

import qdotplot


def test_all_lists_each_bound_public_name_once():
    tree = ast.parse(Path(qdotplot.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert len(qdotplot.__all__) == len(set(qdotplot.__all__))
    assert all(hasattr(qdotplot, name) for name in qdotplot.__all__)
    assert set(qdotplot.__all__) == public
