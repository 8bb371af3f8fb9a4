"""Exact linear algebra for small dense matrices over the rationals.

Matrices are immutable tuples of tuples; entries are ints or Fractions.
Everything here is O(n^3) Gauss-style code, which is plenty for the
rank <= 8 matrices this package works with.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def freeze(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a, b) -> tuple:
    m, inner, p = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("matrix dimensions do not match")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(p))
        for i in range(m)
    )


def matvec(a, v) -> tuple:
    if len(a[0]) != len(v):
        raise ValueError("matrix/vector dimensions do not match")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def inverse(a) -> Matrix:
    """Exact inverse via Gauss-Jordan; raises ValueError if singular."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return freeze(row[n:] for row in rows)


def vec_add(u, v) -> tuple:
    return tuple(x + y for x, y in zip(u, v))
