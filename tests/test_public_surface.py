"""The package's public names: ``__all__`` is exactly what ``__init__`` offers."""

import ast
import importlib
import inspect
import tomllib
from pathlib import Path

import uncertain_eval

from conftest import ROOT


def _imported_public_names() -> set[str]:
    tree = ast.parse(inspect.getsource(uncertain_eval))
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_listed_name_resolves():
    missing = [name for name in uncertain_eval.__all__ if not hasattr(uncertain_eval, name)]
    assert missing == []


def test_no_name_is_listed_twice():
    names = uncertain_eval.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []


def test_every_imported_public_name_is_listed():
    assert sorted(_imported_public_names() - set(uncertain_eval.__all__)) == []


def _references(path: Path) -> set[str]:
    """Names the code of ``path`` reads or imports, outside the definitions of those names."""
    found: set[str] = set()

    def visit(node: ast.AST, defining: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining |= {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = []
        found.update(name for name in names if name not in defining)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_public_name_is_reached():
    # the package offers what its own modules or the scripts use, and
    # nothing that only the tests call
    package = Path(uncertain_eval.__file__).parent
    users = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    users += (ROOT / "scripts").glob("*.py")
    reached = set().union(*map(_references, users))
    assert sorted(set(uncertain_eval.__all__) - reached) == []


def test_console_script_resolves_to_the_cli():
    # the entry from which an install makes the ``uncertain-eval`` command
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"uncertain-eval": "uncertain_eval.cli:entrypoint"}
    module, _, name = scripts["uncertain-eval"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))
