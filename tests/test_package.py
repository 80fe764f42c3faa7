"""Package layout: the public surface resolves, and oracles stay off main paths."""

import ast
from pathlib import Path

import f1q

SRC = Path(__file__).resolve().parents[1] / "src" / "f1q"


def imported_names(path):
    """Every dotted name a source file imports, relative ones as written:
    ``from .oracles import x`` gives '.oracles' and '.oracles.x', and
    ``from . import oracles`` gives '.' and '.oracles'."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            prefix = base if base.endswith(".") else base + "."
            names.add(base)
            names.update(prefix + alias.name for alias in node.names)
    return names


def test_only_selftest_imports_oracles():
    importers = {
        path.name
        for path in SRC.glob("*.py")
        if any(name.rsplit(".", 1)[-1] == "oracles" for name in imported_names(path))
    }
    assert importers == {"selftest.py"}


def test_every_public_name_resolves():
    assert len(set(f1q.__all__)) == len(f1q.__all__)
    missing = [name for name in f1q.__all__ if not hasattr(f1q, name)]
    assert missing == []
