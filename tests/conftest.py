from fractions import Fraction

import pytest

from corelat import affine


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


def one_letter_at_a_time(rng, rs, max_len):
    """A random reduced word of at most ``max_len`` letters: each letter is
    drawn uniformly by ``rng``, and the word stops at the first one that
    would not keep it reduced (``act_root`` and ``compose``, one at a time)."""
    prefix, letters = affine.identity_element(rs), []
    while len(letters) < max_len:
        i = rng.randrange(rs.rank + 1)
        if not prefix.act_root(affine.affine_simple_root(rs, i)).is_positive():
            break
        prefix = prefix.compose(affine.letter_element(rs, i))
        letters.append(i)
    return tuple(letters)


@pytest.fixture
def fraction_inverse():
    return gauss_jordan_inverse
