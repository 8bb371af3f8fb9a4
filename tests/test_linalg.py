from fractions import Fraction

import numpy as np
import pytest

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
