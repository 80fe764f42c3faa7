"""Package layout: the public surface resolves, oracles stay off main paths,
and the README library example runs."""

import ast
import importlib
from pathlib import Path

import f1q

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "f1q"
README = ROOT / "README.md"


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


def test_no_module_reads_the_environment():
    # inputs arrive as arguments and CLI flags only, never as variables
    readers = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        attrs = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        }
        if attrs & {"environ", "getenv"} or imported_names(path) & {"os.environ", "os.getenv"}:
            readers.add(path.name)
    assert readers == set()


def test_only_the_interning_table_and_the_walk_skip_the_constructor():
    # object.__new__ builds an instance without its checks.  Three places may:
    # the level table, which checks each new element itself; the monomial
    # walk, which checks each scalar and each permutation once for all the
    # matrices that share them; and the kernels' vector builder, whose
    # callers pass a nonempty tuple of one level's elements, taken from that
    # level's interned table or from vectors of that level checked already.
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "__new__"
                and isinstance(child.value, ast.Name)
                and child.value.id == "object"
            ):
                sites.add(scope)
            visit(child, module, inner)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, path.stem)
    assert sites == {"field._Level.__missing__", "operators._wreath", "frames._vector"}


def test_every_public_name_resolves():
    # The package re-exports nothing: each module's __all__ is its public list.
    assert f1q.__all__ == ["__version__"]
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"f1q.{path.stem}")
        assert len(set(module.__all__)) == len(module.__all__), path.name
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], path.name


def test_readme_library_example_runs():
    text = README.read_text().split("## Library example", 1)[1]
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
