from fractions import Fraction

import pytest

from corelat import affine, linalg, rootsys
from corelat.affine import AffineRoot


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


# ---------------------------------------------------------------------------
# Inversion sets without words and dominant representatives: the per-point
# oracle of ``verify conjecture``'s block route
# ---------------------------------------------------------------------------

def inversion_set(el):
    """inv(w~) = {beta in positive affine roots : w~^-1(beta) < 0}.

    Computed in closed form from the semidirect decomposition of w~^-1:
    for a finite root alpha and c = <alpha, q'>, the inversions above alpha
    are the k in [k_min, c), plus k = c when w'(alpha) < 0.
    """
    rs = el.rs
    inv = el.inverse()
    q1 = inv.translation
    out = []
    for root in rs.positive_roots:
        for sign in (1, -1):
            coeffs = root.coeffs if sign == 1 else tuple(-x for x in root.coeffs)
            cutoff = sign * rootsys.pairing(rs, q1, root)
            k_min = 0 if sign == 1 else 1
            for k in range(k_min, cutoff):
                out.append(AffineRoot(coeffs, k))
            if cutoff >= k_min:
                image = linalg.matvec(inv.root_m, coeffs)
                if not AffineRoot(image, 0).is_positive():
                    out.append(AffineRoot(coeffs, cutoff))
    return frozenset(out)


def dominant_representative(rs, q):
    """The dominant element w~ with w~^-1(0) = q.

    Dominant means w~ maps the fundamental alcove into the dominant cone;
    it is found by W-reducing a generic interior point of t_{-q}(alcove).
    """
    h = rs.coxeter_number
    x = tuple(Fraction(c) / h - qi for c, qi in zip(rs.rho_check_coords, q))
    vals = [sum(c * xl for c, xl in zip(row, x)) for row in rs.cartan_matrix]
    shift = affine.translation_element(rs, tuple(-qi for qi in q))
    return affine.word_to_element(rs, affine._to_dominant(rs, vals)[::-1]).compose(shift)


def conjecture_records(rs, b, points, q_star):
    """``verify conjecture``'s counterexample strings for ``points`` by the
    per-point route: a point fails when it is ``q_star`` and its dominant
    representative is not w_b, else when its dominant representative has an
    inversion outside inv(w_b); the reason is then the first three of those."""
    wb = affine.compute_w_b(rs, b)
    wb_set = inversion_set(wb)
    found = []
    for q in points:
        el = dominant_representative(rs, q)
        if q == q_star and el.key() != wb.key():
            found.append((q, "w_b is not the dominant representative"))
        elif extra := inversion_set(el) - wb_set:
            found.append((q, sorted(extra)[:3]))
    return [str(c) for c in found]


@pytest.fixture
def fraction_inverse():
    return gauss_jordan_inverse


# ---------------------------------------------------------------------------
# Session caches: each test starts with none of the computed regions or word
# walks that an earlier test left, so a test that patches a step sees it run
# ---------------------------------------------------------------------------

#: the caches the fixture below empties, by name; ``test_session_caches``
#: pins every cache of the package, and which of them are here
CLEARED_CACHES = ("corelat.sommers._region", "corelat.verify._WALKS")


@pytest.fixture(autouse=True)
def fresh_session_caches():
    from corelat import sommers, verify

    sommers._region.cache_clear()
    with verify._WALKS_LOCK:
        verify._WALKS.clear()
