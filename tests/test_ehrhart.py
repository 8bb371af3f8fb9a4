import dataclasses
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelat import affine, ehrhart, sommers
from corelat.ehrhart import (
    HeldOutMismatchError,
    SeriesMismatchError,
    expected_size,
    fit_quasipolynomial,
    interpolate,
    lagrange_fit,
    partition_counts_euler,
    poly_eval,
    poly_from_roots,
    poly_mul,
    predicted_enumerator_polynomial,
    reciprocity_roots,
    typea_series_check,
    weighted_enumerator,
)
from corelat.rootsys import CartanType, build, build_named
from corelat.sommers import enumerate_cores


# ---------------------------------------------------------------------------
# weighted enumerator
# ---------------------------------------------------------------------------

def test_enumerator_reference_values():
    assert weighted_enumerator(build_named("B2"), 3) == 12
    assert weighted_enumerator(build_named("C2"), 3) == 12
    for name in ("A2", "B3", "C3", "G2", "F4"):
        assert weighted_enumerator(build_named(name), 1) == 0


@pytest.mark.parametrize("family,closed", [
    ("B", lambda n: Fraction((n + 1) ** 2 * (n + 2), 3)),
    ("C", lambda n: Fraction((n + 1) * (n + 2) * (2 * n - 1), 3)),
])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerator_closed_forms_at_3(family, closed, n):
    rs = build(CartanType(family, n))
    assert weighted_enumerator(rs, 3) == closed(n)


def test_enumerator_agrees_with_region_sum():
    """f * count * mean identity at a few (type, b)."""
    for name, b in (("A2", 4), ("C2", 5), ("G2", 7), ("B3", 5)):
        rs = build_named(name)
        cs = sommers.enumerate_cores(rs, b)
        assert weighted_enumerator(rs, b) == rs.index_of_connection * cs.total_size


def test_enumerator_refuses_on_the_predicted_count_before_the_walk(monkeypatch):
    visited = []
    walk = sommers.alcove_blocks
    monkeypatch.setattr(sommers, "alcove_blocks",
                        lambda *args, **kw: visited.append(args) or walk(*args, **kw))
    with pytest.raises(sommers.FeasibilityError,
                       match=r"^predicted count 34747713 for E8, b=97 exceeds cap 1000000$"):
        weighted_enumerator(build_named("E8"), 97)
    assert visited == []


@pytest.mark.parametrize("name, b, cap, message", [
    ("F4", 13, 10, r"^predicted count 105 for F4, b=13 exceeds cap 10$"),
    ("A2", 3, 3, r"= 9$"),
])
def test_a_computed_sum_is_refused_again_under_a_cap(name, b, cap, message):
    """An enumerator value computed once is refused under a cap exactly as
    it was never computed: on the predicted count for b coprime to h (F4,
    h = 12), and by the alcove's row guard otherwise (A2, h = 3)."""
    rs = build_named(name)
    weighted_enumerator(rs, b)
    with sommers.capped(cap), pytest.raises(sommers.FeasibilityError, match=message):
        weighted_enumerator(rs, b)


RANK_6_TYPES = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
                + [f"C{n}" for n in range(2, 7)] + ["D4", "D5", "D6", "E6", "F4", "G2"])
# b = h - 1 is coprime to h and b = h is not; both are <= 12 at rank <= 6
WALK_GRID = [(name, b) for name in RANK_6_TYPES
             for h in [build_named(name).coxeter_number] for b in (h - 1, h)]


@pytest.mark.parametrize("name,b", WALK_GRID)
def test_iter_alcove_m_is_the_filtered_product(name, b):
    marks = build_named(name).highest_root_coeffs
    oracle = [m for m in product(*(range(b // c + 1) for c in marks))
              if sum(c * x for c, x in zip(marks, m)) <= b]
    assert list(sommers.iter_alcove_m(build_named(name), b)) == oracle


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_enumerator_blocks_equal_the_per_tuple_sum(monkeypatch, rows):
    """The int64 block sums equal the per-tuple Python form, also when the
    blocks split the walk at every row or every third row."""
    if rows is not None:
        monkeypatch.setattr(sommers, "ALCOVE_BLOCK", rows)
    for name, b in WALK_GRID:
        rs = build_named(name)
        d, s = affine.scaled_size_b(rs, b)
        assert weighted_enumerator(rs, b) == Fraction(sum(map(s, sommers.iter_alcove_m(rs, b))), d)


def test_enumerator_asserts_the_int64_bound_before_the_walk(monkeypatch):
    # A1 at even b: gcd(b, h) = 2, so no count guard runs first; the form's
    # bound 9 b^2 - 1 times 2**11 rows passes 2**63 at b = 2**26
    seen = []
    walk = sommers.alcove_blocks

    def recording(rs, b):
        for block in walk(rs, b):
            seen.append(block)
            yield block

    monkeypatch.setattr(sommers, "alcove_blocks", recording)
    with pytest.raises(AssertionError, match="int64 bound of the size blocks"):
        weighted_enumerator(build_named("A1"), 2**26)
    assert seen == []


# ---------------------------------------------------------------------------
# polynomial helpers
# ---------------------------------------------------------------------------

def test_lagrange_fit_exact():
    coeffs = lagrange_fit([1, 2, 3], [Fraction(2), Fraction(5), Fraction(10)])
    assert coeffs == (Fraction(1), Fraction(0), Fraction(1))
    assert poly_eval(coeffs, 7) == 50


def lagrange_basis_fit(xs, ys) -> tuple[Fraction, ...]:
    """Exact interpolating polynomial through the given rational points."""
    m = len(xs)
    coeffs = [Fraction(0)] * m
    for i in range(m):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(m):
            if j != i:
                basis = poly_mul(basis, [Fraction(-xs[j]), Fraction(1)])
                denom *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


POINTS = st.lists(st.integers(-10**3, 10**3), min_size=1, max_size=12, unique=True).flatmap(
    lambda xs: st.tuples(st.just(xs), st.lists(st.fractions(), min_size=len(xs), max_size=len(xs))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(POINTS)
def test_lagrange_fit_equals_the_lagrange_basis_oracle(points):
    xs, ys = points
    coeffs = lagrange_fit(xs, ys)
    assert coeffs == lagrange_basis_fit(xs, ys)
    assert [poly_eval(coeffs, x) for x in xs] == ys


def test_lagrange_fit_refuses_a_repeated_x():
    # a ValueError, as from the singular Vandermonde matrix, not a ZeroDivisionError
    with pytest.raises(ValueError):
        lagrange_fit([1, 2, 1], [Fraction(1), Fraction(2), Fraction(3)])


def test_lagrange_fit_of_no_points_is_empty():
    assert lagrange_fit([], []) == ()


def test_lagrange_fit_at_the_e8_sample_spacing():
    """interpolate's 11 samples for E8, residue 1 of period 60, fitted to
    values of the degree-10 closed form."""
    closed = predicted_enumerator_polynomial(build_named("E8"))
    xs = list(range(1, 602, 60))
    ys = [poly_eval(closed, x) for x in xs]
    assert len(closed) == len(xs) == 11
    assert lagrange_fit(xs, ys) == lagrange_basis_fit(xs, ys) == closed


def test_poly_from_roots():
    coeffs = poly_from_roots(Fraction(1, 2), [1, -1])
    assert coeffs == (Fraction(-1, 2), Fraction(0), Fraction(1, 2))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolate_g2_components():
    rs = build_named("G2")
    predicted = predicted_enumerator_polynomial(rs)
    assert predicted == poly_from_roots(Fraction(1, 72), [1, -1, -5, -7])
    for residue in (1, 5):
        assert interpolate(rs, residue) == predicted


def test_interpolate_f4_components():
    rs = build_named("F4")
    predicted = predicted_enumerator_polynomial(rs)
    assert predicted == poly_from_roots(Fraction(1, 4608), [1, -1, -5, -7, -11, -13])
    for residue in (1, 5, 7, 11):
        assert interpolate(rs, residue) == predicted


def test_interpolate_b2_odd_residue():
    rs = build_named("B2")
    coeffs = interpolate(rs, 1)
    kappa = weighted_enumerator(rs, 3) / Fraction(2 ** 4 * 24)
    assert kappa == Fraction(1, 32)
    assert coeffs == poly_from_roots(kappa, [1, -5, -1, -3])


@pytest.mark.parametrize("name", ["A2", "B2", "B3", "C3", "D4", "G2"])
def test_quasipolynomial_degree_and_leading(name):
    rs = build_named(name)
    for residue in range(rs.period_c):
        if gcd(residue, rs.coxeter_number) != 1:
            continue
        coeffs = interpolate(rs, residue)
        assert len(coeffs) == rs.rank + 3  # degree exactly n + 2
        assert coeffs[-1] > 0


def test_bc_leading_coefficient_relation():
    for family in ("B", "C"):
        for n in (2, 3):
            rs = build(CartanType(family, n))
            coeffs = interpolate(rs, 1)
            kappa = weighted_enumerator(rs, 3) / Fraction(2 ** (n + 2)) / _factorial(n + 2)
            assert coeffs[-1] == kappa


def _factorial(n):
    from math import factorial
    return Fraction(factorial(n))


def test_period_negative_controls():
    """Merging inequivalent residues must fail held-out validation."""
    with pytest.raises(HeldOutMismatchError):
        interpolate(dataclasses.replace(build_named("B2"), period_c=1), 1)
    with pytest.raises(HeldOutMismatchError):
        interpolate(dataclasses.replace(build_named("G2"), period_c=2), 1)


def test_fit_quasipolynomial_object():
    rs = build_named("B2")
    qp = fit_quasipolynomial(rs)
    assert qp.period == 2
    assert qp.evaluate(3) == 12


# ---------------------------------------------------------------------------
# expected size
# ---------------------------------------------------------------------------

def test_expected_size_reference():
    rep = expected_size(enumerate_cores(build_named("A2"), 5))
    assert rep.mean == 3
    rep = expected_size(enumerate_cores(build_named("A2"), 1))
    assert rep.mean == 0
    rep = expected_size(enumerate_cores(build_named("G2"), 5))
    assert rep.mean == 8 and rep.count == 5


def test_a_region_fact_reads_only_its_region(monkeypatch):
    """``expected_size`` and ``max_size`` read the system and b off the
    region they are given and never enumerate it again."""
    # A2 at b = 4 has mean (3 - 1)(4 - 1)(3 + 4 + 1) / 24 = 2
    cases = [(enumerate_cores(build_named(name), b), top, mean)
             for name, b, top, mean in (("A2", 4, 5, 2), ("G2", 5, 28, 8))]

    def refuse(rs, b):
        raise AssertionError(f"{rs.cartan_type}, b={b} enumerated again")
    monkeypatch.setattr(sommers, "enumerate_cores", refuse)
    for cs, top, mean in cases:
        assert sommers.max_size(cs) == (top, affine.compute_w_b(cs.rs, cs.b).inverse().v)
        assert expected_size(cs).mean == mean


# ---------------------------------------------------------------------------
# reciprocity roots
# ---------------------------------------------------------------------------

def test_reciprocity_b2():
    rs = build_named("B2")
    report = reciprocity_roots(rs, 1)
    assert {t for t, _ in report.checked} == {-1, -3, 1, -5}


def test_reciprocity_names_a_root_that_fails_to_vanish(monkeypatch):
    rs = build_named("B2")
    constant, *rest = interpolate(rs, 1)
    monkeypatch.setattr(ehrhart, "interpolate", lambda rs, residue: (constant + 1, *rest))
    with pytest.raises(AssertionError, match="B2: component 1 mod 2 fails to vanish at"):
        reciprocity_roots(rs, 1)


def test_reciprocity_g2_f4():
    g2 = build_named("G2")
    targets = set()
    for residue in (1, 5):
        targets |= {t for t, _ in reciprocity_roots(g2, residue).checked}
    assert targets == {1, -1, -5, -7}
    f4 = build_named("F4")
    targets = set()
    for residue in (1, 5, 7, 11):
        targets |= {t for t, _ in reciprocity_roots(f4, residue).checked}
    assert targets == {1, -1, -5, -7, -11, -13}


# ---------------------------------------------------------------------------
# the type A series identity
# ---------------------------------------------------------------------------

def test_euler_oracle():
    p = partition_counts_euler(10)
    assert p == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


@pytest.mark.parametrize("a", [2, 3, 4])
def test_typea_series(a):
    assert typea_series_check(a, 20)


def test_typea_series_trivial():
    assert typea_series_check(5, 0)


def test_typea_series_detects_corruption():
    # sanity: the checker is not a tautology; corrupt the core sum by
    # comparing at a modulus whose core generating function differs
    with pytest.raises((SeriesMismatchError, AssertionError)):
        # claim: modulus-2 identity with modulus-3 cores on the right
        lhs = ehrhart._partition_series_dp(12, range(1, 13))
        sizes = [s for i in range(1, 7) for s in [2 * i] * 2]
        rhs = ehrhart._partition_series_dp(12, sizes)
        from corelat import cores as cores_mod
        core_poly = [0] * 13
        for parts in cores_mod.all_cores(3, 12):
            core_poly[sum(parts)] += 1
        full = [0] * 13
        for i, c in enumerate(rhs):
            for j, d in enumerate(core_poly[: 13 - i]):
                full[i + j] += c * d
        if lhs != full:
            raise SeriesMismatchError(next(i for i in range(13) if lhs[i] != full[i]),
                                      0, 0)
