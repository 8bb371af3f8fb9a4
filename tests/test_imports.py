"""No module of the package imports a name it never uses, and none imports
from the package inside a function.

``__init__`` is exempt: its imports are the public re-exports.  The checks
read each module with the standard library's ``ast``, so they need no
linter.  The first catches an import left behind when code is deleted; the
second, an import that hides a cycle or a step up the module order.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corelat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    # ``np.array`` reads ``np``: an attribute chain starts at a Name
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def imports_package(node: ast.AST) -> bool:
    """Whether ``node`` is a relative import or an import of ``corelat``."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "corelat"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "corelat" for a in node.names)


def imports_inside_functions(source: str) -> list[int]:
    """The lines of the imports from the package that sit in a function body."""
    return sorted({node.lineno for func in ast.walk(ast.parse(source))
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func) if imports_package(node)})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_the_package_only_at_the_top(path):
    assert imports_inside_functions(path.read_text()) == []


def test_an_import_inside_a_function_is_found():
    source = "from . import linalg\nimport numpy\n\ndef f():\n    from . import sommers\n" \
             "    import json\n    def g():\n        import corelat.cores\n" \
             "    from corelat.rootsys import build\n    return sommers\n"
    assert imports_inside_functions(source) == [5, 8, 9]


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport numpy as np\nfrom math import gcd, lcm\n" \
             "import os.path\nx = np.zeros(gcd(4, 6))\n"
    assert unused_imports(source) == ["lcm", "os"]
