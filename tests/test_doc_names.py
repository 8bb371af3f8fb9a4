"""Every dotted name that README.md or a package docstring quotes resolves.

A reference is a code span (in single or double backquotes) that holds a
dotted name, such as ``CoreSet.rows()`` or ``affine.scaled_size_b``, whose
first part is ``corelat``, a module of the package or a name the package
exports.  It resolves when ``getattr`` finds each later part, so a name
left behind when code is renamed or deleted fails here.  The docstrings are
read with the standard library's ``ast``.
"""

import ast
import importlib
import re
from pathlib import Path

import corelat

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corelat"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
DOTTED = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?")


def references(text: str) -> list[str]:
    """The dotted names in the code spans of ``text`` that start at the package."""
    names = []
    for span in re.findall(r"``?([^`]+)``?", text):
        match = DOTTED.fullmatch(span)
        if match is None:
            continue
        head = match[1].split(".")[0]
        if head == "corelat" or head in MODULES or hasattr(corelat, head):
            names.append(match[1])
    return names


def resolves(name: str) -> bool:
    head, *rest = name.split(".")
    if head == "corelat":
        obj = corelat
    elif head in MODULES:
        obj = importlib.import_module(f"corelat.{head}")
    else:
        obj = getattr(corelat, head)
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def documented_text() -> list[str]:
    texts = [(ROOT / "README.md").read_text()]
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                texts.append(ast.get_docstring(node) or "")
    return texts


def test_every_documented_name_resolves():
    names = [name for text in documented_text() for name in references(text)]
    assert names
    assert [name for name in names if not resolves(name)] == []


def test_a_stale_name_is_found():
    text = "``CoreSet.rows()`` and `models.no_such_function`, not `np.array` or `a.b c`"
    assert references(text) == ["CoreSet.rows", "models.no_such_function"]
    assert [resolves(name) for name in references(text)] == [True, False]
