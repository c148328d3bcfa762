"""The package's public names: ``__all__`` is exactly what ``__init__`` offers."""

import ast
import inspect

import uncertain_eval


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
