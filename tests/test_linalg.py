from fractions import Fraction
from math import prod

import numpy as np
import pytest
from conftest import gauss_jordan_inverse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corelat import linalg, rootsys, verify


def check_adjugate(a, fraction_inverse, det):
    """linalg.adjugate(a) is (|det|, |det| * A^-1), A^-1 from the Fraction oracle."""
    d, adj = linalg.adjugate(a)
    assert d == abs(det)
    inv = fraction_inverse(a)
    assert adj == tuple(tuple(d * x for x in row) for row in inv)
    assert all(type(x) is int for row in adj for x in row)
    n = len(a)
    assert linalg.matmul(adj, a) == tuple(tuple(d * (i == j) for j in range(n)) for i in range(n))


def test_zero_leading_minor_swaps_a_row(fraction_inverse):
    # a[0][0] = 0: one swap
    check_adjugate(((0, 1, 2), (1, 0, 3), (4, -3, 8)), fraction_inverse, -2)
    # after the first swap the second pivot is 0 as well: two swaps
    check_adjugate(((0, 0, 1), (1, 2, 3), (2, 5, 5)), fraction_inverse, 1)


def test_negative_determinant(fraction_inverse):
    check_adjugate(((1, 2), (3, 4)), fraction_inverse, -2)
    check_adjugate(((2, 1, 0), (1, 2, 1), (0, 1, -3)), fraction_inverse, -11)


def test_facet_matrices(fraction_inverse):
    # (N_j, o_j) rows of the A2 region at b = 4: t_b = 1, r_b = 1, so the
    # simple roots give the first two rows and the highest root the third
    check_adjugate(((2, -1, 1), (-1, 2, 1), (-1, -1, 2)), fraction_inverse, 12)
    # rows of the same shape whose leading entry is zero
    check_adjugate(((0, 2, 1), (2, 0, 1), (-1, -1, 2)), fraction_inverse, -12)


@pytest.mark.parametrize("a", [((0, 0), (0, 1)), ((1, 2), (2, 4)), ((1, 2, 3), (4, 5, 6), (7, 8, 9))])
def test_singular_matrix_is_refused(a):
    with pytest.raises(ValueError, match="singular"):
        linalg.adjugate(a)


@pytest.mark.parametrize("top,past", [
    # diag(1, t): before step 1 the rows hold t, so the bound needs 2 t^2 < 2**63
    (((1, 0), (0, 2**31 - 1)), ((1, 0), (0, 2**31))),
    # diag(t, t): after step 0 row 1 holds t^2, so 2 t^4 < 2**63
    (((46340, 0), (0, 46340)), ((46341, 0), (0, 46341))),
])
def test_adjugate_asserts_its_int64_bound(top, past, fraction_inverse):
    """The elimination is exact at the largest diagonal matrices that its step
    bound 2 max|rows|^2 < 2**63 admits, and refused one past them, where an
    int64 product pivot x - factor y could wrap."""
    check_adjugate(top, fraction_inverse, top[0][0] * top[1][1])
    with pytest.raises(AssertionError, match="int64 bound of the adjugate"):
        linalg.adjugate(past)


@pytest.mark.parametrize("entry", [2**63, -2**64])
def test_adjugate_asserts_its_bound_on_an_entry_past_int64(entry):
    # the bound is checked on the Python ints, before numpy would raise OverflowError
    with pytest.raises(AssertionError, match="int64 bound of the adjugate"):
        linalg.adjugate(((entry, 0), (0, 1)))


def fraction_det(a) -> Fraction:
    """det A by Fraction Gaussian elimination, 0 if A is singular."""
    rows, det = [[Fraction(x) for x in row] for row in a], Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot], det = rows[pivot], rows[col], -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


SQUARE = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(-100, 100), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(SQUARE)
def test_adjugate_is_exact_or_refused(a):
    """A nonsingular integer matrix gets the Fraction oracle's adjugate, or the
    int64 bound refuses it.  Every entry the elimination holds is a minor of
    [A | I], at most H = prod |row_i| (Hadamard), so it is never refused when
    2 H^2 < 2**63: always for n <= 4 at entries in +-100, not always above."""
    det = fraction_det(a)
    assume(det != 0)
    try:
        linalg.adjugate(a)
    except AssertionError as refused:
        assert str(refused) == "int64 bound of the adjugate"
        assert 2 * prod(sum(x * x for x in row) for row in a) >= linalg.INT64_LIMIT
    else:
        check_adjugate(a, gauss_jordan_inverse, det)


#: det of the Cartan matrix, the index of connection |P/Q|
CARTAN_DETS = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4,
               "E": lambda n: 9 - n, "F": lambda n: 1, "G": lambda n: 1}


@pytest.mark.parametrize("name", verify.ALL_FAMILY_NAMES)
def test_cartan_adjugates(name, fraction_inverse):
    t = rootsys.CartanType.parse(name)
    a = rootsys.cartan_matrix(t)
    det = CARTAN_DETS[t.family](t.rank)
    check_adjugate(a, fraction_inverse, det)
    rs = rootsys.build(t)
    assert (rs.index_of_connection, rs.cartan_adjugate) == linalg.adjugate(a)
    # a finite-type Cartan matrix has a positive inverse
    assert all(Fraction(x, det) > 0 for row in rs.cartan_adjugate for x in row)


@pytest.mark.parametrize("mat,shift,top", [
    # 2 max|x| < 2**63: the two columns of M
    (((1, 1),), (0,), 2**62 - 1),
    # 3 max|x| < 2**63: the entry of M
    (((3,),), (0,), (2**63 - 1) // 3),
    # max|x| + 2**62 < 2**63: the shift
    (((1,),), (2**62,), 2**62 - 1),
])
def test_affine_rows_assert_their_int64_bound(mat, shift, top):
    """x -> x M^T + v is exact at the largest max|x| that the bound
    n max|M| max|x| + max|v| < 2**63 admits, and refused one past it, where
    the int64 product would wrap."""
    step = linalg.AffineRows(mat, shift)
    n = len(mat[0])
    for x in (top, -top):
        rows = np.array([[x] * n], dtype=np.int64)
        assert step(rows).tolist() == [[sum(m * x for m in row) + v for row, v in zip(mat, shift)]]
    with pytest.raises(AssertionError, match="int64 bound of the affine rows"):
        step(np.array([[top + 1] * n], dtype=np.int64))


def test_quadratic_row_totals_assert_their_int64_bound():
    # s(m) = m^2 has bound(mass) = mass^2; two rows of mass 2**31 reach 2**63
    step = linalg.QuadraticRows(((1,),), (0,), 0)
    rows = np.array([[2**31 - 1], [-(2**31 - 1)]], dtype=np.int64)
    assert step.total(rows, 2**31 - 1) == 2 * (2**31 - 1) ** 2
    with pytest.raises(AssertionError, match="int64 bound of the size blocks"):
        step.total(rows, 2**31)
    with pytest.raises(AssertionError, match="int64 bound of the size blocks"):
        step.check_total(2, 2**31)


def test_a_row_mass_past_int64_is_refused():
    # sum |m_i| = 2**64 wraps to 0 in an int64 row sum; the bound must not read 0
    step = linalg.QuadraticRows(tuple(tuple(int(i == j) for j in range(4)) for i in range(4)),
                                (0,) * 4, 0)
    with pytest.raises(AssertionError, match="int64 bound of the row sizes"):
        step(np.array([[2**62, -2**62, 2**62, -2**62]], dtype=np.int64))
