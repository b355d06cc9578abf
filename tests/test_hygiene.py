"""Source hygiene that no installed linter checks: every name a module
imports at module level is used somewhere in that module."""

import ast
from pathlib import Path

import pytest

import eulerlab

PACKAGE = Path(eulerlab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads.

    A name counts as used when it appears as an identifier anywhere in
    the module or is listed in __all__.
    """
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_import_detector():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom a import b as c, d\n"
           "__all__ = ['d']\n"
           "def f(x: 'int') -> float:\n    return os.path.join(x)\n")
    assert unused_imports(src) == ["math", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
