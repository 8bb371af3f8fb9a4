"""No module of the package imports a name it never uses.

``__init__`` is exempt: its imports are the public re-exports.  The check
reads each module with the standard library's ``ast``, so it needs no
linter, and it catches an import left behind when code is deleted.
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport numpy as np\nfrom math import gcd, lcm\n" \
             "import os.path\nx = np.zeros(gcd(4, 6))\n"
    assert unused_imports(source) == ["lcm", "os"]
