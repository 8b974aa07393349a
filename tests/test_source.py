"""Static checks on the package's own source, with the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

import hgx.autodiff

MODULES = sorted(Path(hgx.autodiff.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; ``from __future__`` is exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Dict, Union\nx: Dict = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "Union")]
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
