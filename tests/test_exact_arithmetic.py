"""Exact arithmetic as a property of the source, read with ``ast``.

Two rules over the package modules of ``test_imports.MODULES``:

* Every numpy array product is a step of the checked int64 kernel in
  ``linalg.py``: no other module uses ``@``, ``np.dot``, ``np.matmul``,
  ``np.einsum`` or a ``.dot(`` method.  The exact tuple product
  ``linalg.matmul`` is not an array product.
* No floating point in the numerical core: no float literal, ``float``,
  float-valued ``math`` function or float dtype anywhere except
  ``draw.py``, whose SVG coordinates are the package's one float use.
"""

import ast
import re

import pytest
from test_imports import MODULES

NUMPY = {"np", "numpy"}
#: the ``math`` names whose value is an int for int arguments
MATH_INTEGER = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod", "trunc"}
FLOAT_DTYPE = re.compile(r"(float|complex|c?longdouble|double|half|single)\d*|[fc]\d+")


def _owner(node: ast.Attribute) -> str | None:
    return node.value.id if isinstance(node.value, ast.Name) else None


def array_products(source: str) -> list[str]:
    """'line: form' for each array product written in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "einsum"):
            if _owner(node) in NUMPY:
                found.append((node.lineno, f"np.{node.attr}"))
            elif node.attr == "dot":
                found.append((node.lineno, ".dot("))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, f"np.{a.name}") for a in node.names
                      if a.name in ("dot", "matmul", "einsum")]
    return [f"{line}: {form}" for line, form in sorted(found)]


def floating_point(source: str) -> list[str]:
    """'line: form' for each float literal, ``float``, float-valued ``math``
    name or float dtype in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Attribute) and _owner(node) == "math" \
                and node.attr not in MATH_INTEGER:
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in MATH_INTEGER]
        elif isinstance(node, ast.Attribute) and _owner(node) in NUMPY \
                and FLOAT_DTYPE.fullmatch(node.attr):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.Call):
            # a dtype given by name: dtype="float64", .astype("f8")
            names = [k.value for k in node.keywords if k.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                names += node.args[:1]
            found += [(node.lineno, repr(n.value)) for n in names
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and FLOAT_DTYPE.fullmatch(n.value)]
    return [f"{line}: {form}" for line, form in sorted(found)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name)
def test_only_the_kernel_multiplies_arrays(path):
    assert array_products(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "draw.py"], ids=lambda p: p.name)
def test_no_floating_point_in_the_numerical_core(path):
    assert floating_point(path.read_text()) == []


def test_an_array_product_is_found():
    source = ("import numpy as np\nfrom numpy import einsum\nfrom corelat import linalg\n"
              "a = linalg.matmul(x, y)\nb = x @ y.T + v\nx @= y\nc = np.dot(x, y)\n"
              "d = x.dot(y)\ne = np.einsum('ij,jk', x, y)\nf = numpy.matmul(x, y)\n")
    assert array_products(source) == ["2: np.einsum", "5: @", "6: @", "7: np.dot", "8: .dot(",
                                      "9: np.einsum", "10: np.matmul"]


def test_floating_point_is_found():
    source = ("import math\nimport numpy as np\nfrom math import gcd, sqrt\nx = 0.5\ny = float(3)\n"
              "z = math.sqrt(2) + math.gcd(4, 6) + math.isqrt(5)\n"
              "w = np.zeros(3, dtype=np.float64)\nv = np.zeros(3, dtype=float)\n"
              "u = a.astype('f8')\nt = np.ones(2, dtype='int64') * 2j\nn = np.int64(7) // 2\n")
    assert floating_point(source) == ["3: math.sqrt", "4: 0.5", "5: float", "6: math.sqrt",
                                      "7: np.float64", "8: float", "9: 'f8'", "10: 2j"]
