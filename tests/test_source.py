"""Static checks on the package's own source, with the stdlib ``ast``."""

import ast
import re
from pathlib import Path

import pytest

import hgx.autodiff
import hgx.rules

MODULES = sorted(Path(hgx.autodiff.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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
    assert MODULES and TESTS


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def segment_sum_callers(source: str) -> list:
    """Top-level functions (``<module>`` outside any) that call
    ``segment_sum``, either as ``ad.segment_sum`` or by a bare name."""
    callers = set()
    tree = ast.parse(source)
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "segment_sum" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                callers.add(owner)
    return sorted(callers)


def test_segment_sum_callers_are_found():
    source = ("from hgx import autodiff as ad\nfrom hgx.autodiff import segment_sum\n"
              "def f(x, v):\n    return ad.segment_sum(x, v)\n"
              "def g(x, v):\n    return [segment_sum(x, v)]\n"
              "def h(x, v):\n    return ad.segment_softmax(x, v)\n"
              "y = ad.segment_sum(1, 2)\n")
    assert segment_sum_callers(source) == ["<module>", "f", "g"]


def test_rules_aggregate_through_pools_except_hypergcn():
    """Every rule but HyperGCN, whose ``W`` depends on the features, sums
    through an AllSet layer's pools, never by its own ``segment_sum``."""
    source = Path(hgx.rules.__file__).read_text()
    assert segment_sum_callers(source) == ["hypergcn_layer"]


def held_ops(source: str) -> list:
    """``ad.<name>`` reads that are not the callee of a call, as
    ``(line, name)``: a module that holds an op this way keeps calling it
    after another caller (the benchmark's tracer) rebinds the name in
    ``hgx.autodiff``."""
    tree = ast.parse(source)
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "ad" and id(node) not in callees
    )


def test_held_ops_are_found():
    source = ("from hgx import autodiff as ad\nACT = {'relu': ad.relu}\n"
              "y = ad.exp(ad.constant(1.0))\nf = ad.elu\n")
    assert held_ops(source) == [(2, "relu"), (4, "elu")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_autodiff_read_is_a_call(path):
    assert held_ops(path.read_text()) == []


def error_classes(source: str) -> list:
    """Names of the classes a module defines whose names end in ``Error``."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef) and node.name.endswith("Error"))


def test_error_classes_are_found():
    source = ("class AError(ValueError):\n    class BError(Exception):\n        pass\n"
              "class Errors:\n    pass\nXError = ValueError\n")
    assert error_classes(source) == ["AError", "BError"]


def test_every_error_class_is_tested():
    """Each typed error of the package is named in some test module, so
    some test raises it or checks it is raised."""
    tests = "\n".join(path.read_text() for path in TESTS if path.name.startswith("test_"))
    defined = [name for path in MODULES for name in error_classes(path.read_text())]
    assert defined
    assert [name for name in defined if not re.search(rf"\b{name}\b", tests)] == []
