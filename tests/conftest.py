from fractions import Fraction

import pytest


def gauss_jordan_inverse(a):
    """Exact inverse of a nonsingular square matrix by Fraction Gauss-Jordan
    elimination: an oracle independent of the package's integer routes."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


@pytest.fixture
def fraction_inverse():
    return gauss_jordan_inverse
