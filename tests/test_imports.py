"""No module of the package imports a name it never uses, none imports
from the package inside a function, every private module-level name of
the package is read somewhere outside its own definition, no module
reads the tuple and one-row views that are kept only for tests and tracing,
and the public functions that only tests read are exactly ``TEST_ONLY``.

``__init__`` is exempt from the import checks: its imports are the public
re-exports.  The checks read each module with the standard library's
``ast``, so they need no linter.  The first catches an import left behind
when code is deleted; the second, an import that hides a cycle or a step up
the module order; the third, a private helper left behind when its last
caller is deleted; the fourth, a package path that returns to a view its
block twin replaced, which would stop the view from being deleted; the
fifth, a public function left behind for tests alone when its last package
reader is deleted.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

from corelat import verify

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corelat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the trees whose Python files may read a private name of the package
READERS = ("src", "tests", "demos", "perfbench")
#: the tuple and one-row views with no package caller: tests and the
#: benchmark's tracer read them until their block twins replace them
VIEWS = ("enumerate_alcove", "iter_alcove_m", "size_lattice_total", "size_i_lattice",
         "word_size_totals", "toggle_action")

#: the public module-level functions that no package module, demo or
#: benchmark file reads, and ``__init__`` does not re-export: tests alone
#: read them, so each is a candidate to move into the tests or delete
TEST_ONLY = ("affine.word_size_totals", "cores.self_conjugate_partitions_up_to",
             "models.model_size_vector")


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


def bound_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def private_names(source: str) -> list[str]:
    """The ``_``-prefixed names, not dunders, that ``source`` binds at module level."""
    return [name for stmt in ast.parse(source).body for name in bound_names(stmt)
            if name.startswith("_") and not name.endswith("__")]


def names_read(source: str) -> set[str]:
    """The names ``source`` reads, as an ``ast.Name`` or an ``ast.Attribute``
    attribute, each module-level statement apart from the names it binds."""
    read = set()
    for stmt in ast.parse(source).body:
        found = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                 if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
        read |= found - set(bound_names(stmt))
    return read


def unread_private_names(source: str, readers: list[str]) -> list[str]:
    """The private names of ``source`` that none of the ``readers`` sources reads."""
    read = set().union(*map(names_read, readers))
    return [name for name in private_names(source) if name not in read]


def views_read(source: str) -> list[str]:
    """The ``VIEWS`` that ``source`` reads."""
    read = names_read(source)
    return [name for name in VIEWS if name in read]


def public_functions(source: str) -> list[str]:
    """The names of the module-level functions ``source`` defines, not ``_``-prefixed."""
    return [stmt.name for stmt in ast.parse(source).body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_")]


def names_and_strings(source: str) -> set[str]:
    """The names ``source`` reads, and its string constants, which may name a
    function to look up by attribute."""
    strings = {n.value for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return names_read(source) | strings


def reexports(source: str) -> set[str]:
    """The names ``source`` binds by its imports from other modules."""
    return {a.asname or a.name for stmt in ast.parse(source).body
            if isinstance(stmt, ast.ImportFrom) for a in stmt.names}


def functions_only_tests_read(modules: dict[str, str], demos: list[str], bench: list[str], init: str,
                              suites: set[str]) -> list[str]:
    """The ``module.name`` of each public function of ``modules`` (stem ->
    source) that none of them reads outside its own definition, no demo
    reads, no ``bench`` source names and ``init`` does not re-export; the
    names in ``suites`` are read by their theorem ids."""
    read = set().union(*map(names_read, [*modules.values(), *demos]), *map(names_and_strings, bench),
                       reexports(init), suites)
    return sorted(f"{stem}.{name}" for stem, source in modules.items()
                  for name in public_functions(source) if name not in read)


@lru_cache(maxsize=None)
def reader_sources() -> tuple[str, ...]:
    return tuple(p.read_text() for tree in READERS for p in sorted((ROOT / tree).rglob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_the_package_only_at_the_top(path):
    assert imports_inside_functions(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(), list(reader_sources())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_a_view_kept_for_tests(path):
    assert views_read(path.read_text()) == []


def test_an_import_inside_a_function_is_found():
    source = "from . import linalg\nimport numpy\n\ndef f():\n    from . import sommers\n" \
             "    import json\n    def g():\n        import corelat.cores\n" \
             "    from corelat.rootsys import build\n    return sommers\n"
    assert imports_inside_functions(source) == [5, 8, 9]


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport numpy as np\nfrom math import gcd, lcm\n" \
             "import os.path\nx = np.zeros(gcd(4, 6))\n"
    assert unused_imports(source) == ["lcm", "os"]


def test_an_unread_private_name_is_found():
    # _A is read by _g, _B by x and _C by the other module; _f reads only itself
    source = "__all__ = []\n_A = 1\n_B: int = 2\ndef _f():\n    return _f()\nclass _C:\n    pass\n" \
             "def _g():\n    return _A\nx = _B\n"
    reader = "import m\nm._C()\n"
    assert unread_private_names(source, [source, reader]) == ["_f", "_g"]


def test_a_reader_of_a_view_is_found():
    # defining a view is not reading it; a call or an attribute read is
    source = "from . import affine, sommers\n\ndef toggle_action(p):\n    return p\n\n" \
             "def f(rs):\n    return sommers.enumerate_alcove(rs, 5), affine.size_i_lattice\n"
    assert views_read(source) == ["enumerate_alcove", "size_i_lattice"]


def test_the_functions_only_tests_read_are_pinned():
    """A public function whose last package reader is deleted joins this
    list and fails the test: delete it, move it into the tests, or pin it."""
    sources = {p.stem: p.read_text() for p in MODULES}
    demos, bench = ([p.read_text() for p in sorted((ROOT / tree).rglob("*.py"))] for tree in ("demos", "perfbench"))
    suites = {f"check_{theorem}" for theorem in verify.SUITES}
    found = functions_only_tests_read(sources, demos, bench, (PACKAGE / "__init__.py").read_text(), suites)
    assert found == sorted(TEST_ONLY)


def test_a_function_only_tests_read_is_found():
    # f reads g, the demo h, the benchmark names k as a string, __init__
    # re-exports e and check_x is a suite; only t and the self-recursive r are left
    source = "def e():\n    pass\ndef f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\n" \
             "def k():\n    pass\ndef r():\n    return r()\ndef t():\n    pass\ndef check_x():\n    pass\n" \
             "def _p():\n    pass\n"
    found = functions_only_tests_read({"m": source}, ["m.h()\n"], ["SPANS = (('m', 'k'),)\n"],
                                      "from .m import e\n", {"check_x"})
    assert found == ["m.f", "m.r", "m.t"]
