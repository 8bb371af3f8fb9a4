from fractions import Fraction

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
