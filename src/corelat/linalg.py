"""Exact linear algebra for small dense matrices over the rationals.

Matrices are immutable tuples of tuples; entries are ints or Fractions.
"""

from __future__ import annotations


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


def vec_add(u, v) -> tuple:
    return tuple(x + y for x, y in zip(u, v))
