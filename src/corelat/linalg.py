"""Exact linear algebra: small dense matrices over the rationals, and the
checked int64 kernel.

Matrices are immutable tuples of tuples; entries are ints or Fractions.
The kernel's four steps on the rows of int64 arrays, ``AffineRows``,
``QuadraticRows``, ``ReflectionRows`` and the row step of ``adjugate``, are
the package's only numpy array products.  Before it multiplies, each step
asserts that every value it forms, partial sums included, stays below
2**63, so its results are exact; the adjugate's step asserts
2 max|rows|^2 < 2**63 on the rows it eliminates.
"""

from __future__ import annotations

import numpy as np

#: a checked step asserts that every value it forms is below this in absolute value
INT64_LIMIT = 2**63


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


def _check_adjugate_step(top: int) -> None:
    """A row step forms pivot x - factor y from entries of at most ``top`` in
    absolute value, so every value is within 2 top^2."""
    assert 2 * top * top < INT64_LIMIT, "int64 bound of the adjugate"


def adjugate(a) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(|det A|, |det A| * A^-1) of a nonsingular integer matrix (ValueError if
    singular), from one fraction-free (Bareiss) Gauss-Jordan elimination on
    the int64 array [A | I].

    Step k swaps in a later row on a zero pivot, then clears column k outside
    row k in one whole-array row step, rows <- (pivot rows - column k (x) row k)
    // previous pivot, row k kept; rows 0..k then carry the leading
    (k+1)-minor of the row-permuted A on the diagonal, every division exact
    (Sylvester's identity).  Each step first asserts 2 max|rows|^2 < 2**63,
    which bounds every value it forms.  At the end [A | I] has become
    [d I | d A^-1], d = +-det A.
    """
    n = len(a)
    _check_adjugate_step(max((abs(x) for row in a for x in row), default=0))
    rows = np.eye(n, 2 * n, n, dtype=np.int64)
    rows[:, :n] = a
    prev = 1
    for k in range(n):
        if not rows[k, k]:
            swap = np.flatnonzero(rows[k:, k])
            if not len(swap):
                raise ValueError("matrix is singular")
            rows[[k, k + swap[0]]] = rows[[k + swap[0], k]]
        # no entry is -2**63, which abs would wrap: each is within the last step's bound
        _check_adjugate_step(int(np.abs(rows).max()))
        pivot_row = rows[k].copy()
        pivot = int(pivot_row[k])
        factors = rows[:, k, None] * pivot_row
        rows *= pivot
        rows -= factors
        rows //= prev
        rows[k] = pivot_row
        prev = pivot
    adj = rows[:, n:] if prev > 0 else -rows[:, n:]
    return abs(prev), freeze(adj.tolist())


def peak(a: np.ndarray) -> int:
    """max |a_i| over an int64 array, 0 if it is empty, as a Python int."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _row_mass(m: np.ndarray) -> int:
    """The largest sum |m_i| over the rows of an int64 array, or the upper
    bound n * max|m| where int64 row sums could wrap."""
    n, top = m.shape[1], peak(m)
    if n * top >= INT64_LIMIT:
        return n * top
    return int(np.abs(m).sum(axis=1).max(initial=0))


class AffineRows:
    """The checked int64 step x -> x M^T + v on the rows x of an int64 array,
    for an integer matrix M with n columns and an integer vector v.

    An entry of x M^T is a sum of n products, each at most max|M| max|x| in
    absolute value, so it and every partial sum, and then the entry plus v,
    are within n max|M| max|x| + max|v|.  The step asserts this bound below
    2**63 on x's own maximum before it multiplies."""

    def __init__(self, mat, shift):
        self.mat, self.shift = np.array(mat, dtype=np.int64), np.array(shift, dtype=np.int64)
        self._scale, self._offset = self.mat.shape[1] * peak(self.mat), peak(self.shift)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        assert self._scale * peak(x) + self._offset < INT64_LIMIT, "int64 bound of the affine rows"
        return x @ self.mat.T + self.shift


class QuadraticRows:
    """The checked int64 step m -> s(m) = m^T Q m - L^T m + c on the rows m
    of an int64 array, for an integer matrix Q, vector L and constant c,
    evaluated as ((m Q) * m).sum(1) - m L + c.  Its values are the sizes of
    ``affine.scaled_size_b``, whence the names in its messages."""

    def __init__(self, quad, lin, const: int):
        self.quad, self.lin, self.const = (np.array(quad, dtype=np.int64),
                                           np.array(lin, dtype=np.int64), const)
        self._peaks = (peak(self.quad), peak(self.lin), abs(const))

    def bound(self, mass: int) -> int:
        """An upper bound of |s(m)|, and of every partial sum of its evaluation,
        over integer rows m of either sign with sum |m_i| <= mass: an entry of
        m Q is within max|Q| mass, so sum_j (m Q)_j m_j is within max|Q| mass^2,
        and m L within max|L| mass."""
        quad, lin, const = self._peaks
        return quad * mass * mass + lin * mass + const

    def __call__(self, m: np.ndarray) -> np.ndarray:
        """s of each row, under ``bound`` of the rows' own largest sum |m_i|."""
        assert self.bound(_row_mass(m)) < INT64_LIMIT, "int64 bound of the row sizes"
        return self._values(m)

    def check_total(self, rows: int, mass: int) -> None:
        """Assert that a sum of s over ``rows`` rows, each with sum |m_i| <= mass,
        is exact: rows * ``bound``(mass) < 2**63 covers every partial sum."""
        assert rows * self.bound(mass) < INT64_LIMIT, "int64 bound of the size blocks"

    def total(self, m: np.ndarray, mass: int) -> int:
        """The sum of s over the rows of m, whose sums |m_i| the caller states
        are at most ``mass``; ``check_total`` runs on len(m) first, which reads
        no entry of m."""
        self.check_total(len(m), mass)
        return int(self._values(m).sum())

    def _values(self, m: np.ndarray) -> np.ndarray:
        return ((m @ self.quad) * m).sum(axis=1) - m @ self.lin + self.const


class ReflectionRows:
    """The checked int64 step of right multiplication by a reflection, on a
    block of affine maps: row r is x -> m[r] x + v[r] with translation
    q[r] = m[r]^-1 v[r], and letters[r] picks a row of the tables c, p and
    shift, the reflection s = x -> x - (<p, x> - shift) c with <p, c> = 2.
    With u = m c the product is (m - u p^T, v + shift u), with translation
    s(q + shift c) = q - (<p, q> + shift) c; the step returns u and <p, q>
    too.

    With P the largest |entry| of m, v and q, |u| <= |c|_1 P and
    |<p, q>| <= |p|_1 P, partial sums included, so every value the step
    forms, and ``scale`` u for the largest factor ``scale`` >= 1 that the
    caller multiplies u by, is within ``bound``(P) =
    (1 + scale |c|_1)(1 + |p|_1 + |shift|)(P + 1), over the largest norms
    of the tables.  The step asserts it below 2**63 before it multiplies."""

    def __init__(self, c, p, shift, scale: int):
        self.c, self.p, self.shift = (np.array(c, dtype=np.int64), np.array(p, dtype=np.int64),
                                      np.array(shift, dtype=np.int64))
        c_norm, p_norm = (int(np.abs(a).sum(axis=1).max(initial=0)) for a in (self.c, self.p))
        self._growth = (1 + scale * c_norm) * (1 + p_norm + peak(self.shift))

    def bound(self, top: int) -> int:
        return self._growth * (top + 1)

    def __call__(self, m: np.ndarray, v: np.ndarray, q: np.ndarray, letters: np.ndarray):
        """(u, <p, q>, m', v', q') of each row."""
        assert self.bound(max(peak(m), peak(v), peak(q))) < INT64_LIMIT, "int64 bound of the reflection rows"
        c, p, shift = self.c[letters], self.p[letters], self.shift[letters]
        u = np.einsum("rjk,rk->rj", m, c)
        dot = np.einsum("rk,rk->r", p, q)
        return (u, dot, m - u[:, :, None] * p[:, None, :], v + shift[:, None] * u,
                q - (dot + shift)[:, None] * c)
