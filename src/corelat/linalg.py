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


def adjugate(a) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(|det A|, |det A| * A^-1) of a nonsingular integer matrix (ValueError if
    singular), from one fraction-free (Bareiss) Gauss-Jordan elimination.

    Step k swaps in a later row on a zero pivot and clears column k of
    [A | I] outside row k; rows 0..k then carry the leading (k+1)-minor of
    the row-permuted A on the diagonal, every division exact (Sylvester's
    identity).  At the end [A | I] has become [d I | d A^-1], d = +-det A.
    """
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        swap = next((i for i in range(k, n) if rows[i][k]), None)
        if swap is None:
            raise ValueError("matrix is singular")
        rows[k], rows[swap] = rows[swap], rows[k]
        pivot_row, pivot = rows[k], rows[k][k]
        for i, row in enumerate(rows):
            if i != k:
                factor = row[k]
                rows[i] = [(pivot * x - factor * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return abs(prev), freeze((x if prev > 0 else -x for x in row[n:]) for row in rows)
