import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from corelat import affine, linalg, rootsys
from corelat.rootsys import CartanType, CartanTypeError, build_named

# (h, dual Coxeter, exponents, marks, index of connection, r)
REFERENCE = {
    "A1": (2, 2, (1,), (1,), 2, 1),
    "A2": (3, 3, (1, 2), (1, 1), 3, 1),
    "A5": (6, 6, (1, 2, 3, 4, 5), (1,) * 5, 6, 1),
    "B2": (4, 3, (1, 3), (1, 2), 2, 2),
    "B3": (6, 4, (1, 3, 5), (1, 2, 2), 2, 2),
    "B8": (16, 9, tuple(range(1, 16, 2)), (1,) + (2,) * 7, 2, 2),
    "C2": (4, 3, (1, 3), (2, 1), 2, 2),
    "C3": (6, 5, (1, 3, 5), (2, 2, 1), 2, 2),
    "C8": (16, 15, tuple(range(1, 16, 2)), (2,) * 7 + (1,), 2, 2),
    "D4": (6, 6, (1, 3, 3, 5), (1, 2, 1, 1), 4, 1),
    "D8": (14, 14, (1, 3, 5, 7, 7, 9, 11, 13), (1, 2, 2, 2, 2, 2, 1, 1), 4, 1),
    "E6": (12, 12, (1, 4, 5, 7, 8, 11), (1, 2, 2, 3, 2, 1), 3, 1),
    "E7": (18, 18, (1, 5, 7, 9, 11, 13, 17), (2, 2, 3, 4, 3, 2, 1), 2, 1),
    "E8": (30, 30, (1, 7, 11, 13, 17, 19, 23, 29), (2, 3, 4, 6, 5, 4, 3, 2), 1, 1),
    "F4": (12, 9, (1, 5, 7, 11), (2, 3, 4, 2), 1, 2),
    "G2": (6, 4, (1, 5), (3, 2), 1, 3),
}

ALL_IMPLEMENTED = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_table(name):
    h, g, exps, marks, f, r = REFERENCE[name]
    rs = build_named(name)
    assert rs.coxeter_number == h
    assert rs.dual_coxeter_number == g
    assert rs.exponents == tuple(sorted(exps))
    assert rs.highest_root_coeffs == marks
    assert rs.index_of_connection == f
    assert rs.ratio_r == r


def test_spec_build_examples():
    a2 = build_named("A2")
    assert (a2.coxeter_number, a2.dual_coxeter_number) == (3, 3)
    assert a2.exponents == (1, 2) and a2.highest_root_coeffs == (1, 1)
    assert (a2.index_of_connection, a2.ratio_r) == (3, 1)
    g2 = build_named("G2")
    assert (g2.coxeter_number, g2.dual_coxeter_number) == (6, 4)
    assert g2.exponents == (1, 5) and g2.highest_root_coeffs == (3, 2)
    assert (g2.index_of_connection, g2.ratio_r) == (1, 3)
    c3 = build_named("C3")
    assert (c3.coxeter_number, c3.dual_coxeter_number) == (6, 5)
    assert c3.exponents == (1, 3, 5) and c3.highest_root_coeffs == (2, 2, 1)
    assert (c3.index_of_connection, c3.ratio_r) == (2, 2)


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D3", "E5", "E9", "F3", "G4", "H2"])
def test_rank_constraints(bad):
    with pytest.raises(CartanTypeError):
        CartanType.parse(bad)


def test_parse_and_str():
    assert str(CartanType.parse(" c3 ")) == "C3"
    with pytest.raises(CartanTypeError):
        CartanType.parse("Q2")


@pytest.mark.parametrize("name", ALL_IMPLEMENTED)
def test_structure_invariants(name, fraction_inverse):
    rs = build_named(name)
    n, h = rs.rank, rs.coxeter_number
    assert len(rs.positive_roots) == n * h // 2
    assert h == 1 + sum(rs.highest_root_coeffs)
    by_height = {}
    for root in rs.positive_roots:
        by_height.setdefault(root.height, []).append(root)
    assert len(by_height[1]) == n
    assert len(by_height[h - 1]) == 1
    # every root length is 2 or 2/r
    for root in rs.positive_roots:
        assert root.is_long == (rootsys.norm2(rs, _root_vec(rs, root)) == 2)
    # the coroot Gram is the integer matrix D^-1 A, D = diag(|alpha_i|^2 / 2)
    a, d = rs.cartan_matrix, tuple(Fraction(1, s) for s in rs.coroot_scales)
    assert all(type(x) is int for row in rs.gram_coroot for x in row)
    assert rs.gram_coroot == tuple(tuple(a[i][j] / d[i] for j in range(n)) for i in range(n))
    # the adjugate: adj(A) A = f I
    f = rs.index_of_connection
    assert linalg.matmul(rs.cartan_adjugate, a) == tuple(
        tuple(f * (i == j) for j in range(n)) for i in range(n))
    # ... and entrywise f A^-1, with the inverse from Fraction Gauss-Jordan
    inv = fraction_inverse(a)
    assert all(rs.cartan_adjugate[i][j] == f * inv[i][j] for i in range(n) for j in range(n))
    # the coweight Gram inverts the root Gram <alpha_i, alpha_j> = d_j A[i][j]
    denom, scaled = rs.index_of_connection, rootsys.coweight_gram(rs)
    root_gram = [[d[j] * a[i][j] for j in range(n)] for i in range(n)]
    assert linalg.matmul(scaled, root_gram) == tuple(
        tuple(denom * (i == j) for j in range(n)) for i in range(n))


def _root_vec(rs, root):
    # root in simple-coroot coordinates: alpha_i = d_i alphacheck_i
    return tuple(c * d for c, d in zip(root.coeffs, (Fraction(1, s) for s in rs.coroot_scales)))


@pytest.mark.parametrize("name", ALL_IMPLEMENTED)
def test_strange_formula(name):
    rs = build_named(name)
    lhs = rootsys.norm2(rs, rs.rho_check_coords)
    rhs = Fraction(rs.ratio_r * rs.dual_coxeter_number * rs.rank * (rs.coxeter_number + 1), 12)
    assert lhs == rhs


def test_norm2_examples():
    a2 = build_named("A2")
    assert rootsys.norm2(a2, a2.rho_check_coords) == 2
    g2 = build_named("G2")
    assert rootsys.norm2(g2, g2.rho_check_coords) == 14
    assert rootsys.norm2(a2, (0, 0)) == 0


def test_roots_of_height():
    a2 = build_named("A2")
    assert [r.coeffs for r in rootsys.roots_of_height(a2, 1)] == [(0, 1), (1, 0)] or \
        sorted(r.coeffs for r in rootsys.roots_of_height(a2, 1)) == [(0, 1), (1, 0)]
    assert [r.coeffs for r in rootsys.roots_of_height(a2, 2)] == [(1, 1)]
    g2 = build_named("G2")
    assert [r.coeffs for r in rootsys.roots_of_height(g2, 5)] == [(3, 2)]
    assert rootsys.roots_of_height(a2, 99) == []
    # independent oracle for G2: the full positive system, hand-listed
    assert sorted(r.coeffs for r in build_named("G2").positive_roots) == \
        [(0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2)]


def test_pairing_examples():
    a2 = build_named("A2")
    alpha1, alpha2 = rootsys.roots_of_height(a2, 1)[1], rootsys.roots_of_height(a2, 1)[0]
    assert alpha1.coeffs == (1, 0) and alpha2.coeffs == (0, 1)
    assert rootsys.pairing(a2, (1, 0), alpha1) == 2
    assert rootsys.pairing(a2, (1, 0), alpha2) == -1
    c2 = build_named("C2")
    highest = rootsys.roots_of_height(c2, c2.coxeter_number - 1)[0]
    # cross-check against the ambient model: highest root sqrt(2) e_1,
    # alphacheck_2 = sqrt(2) e_2, so the pairing vanishes
    assert rootsys.pairing(c2, (0, 1), highest) == 0
    with pytest.raises(ValueError):
        rootsys.pairing(a2, (1, 0, 0), alpha1)


def test_reflection_closure_idempotent():
    for name in ALL_IMPLEMENTED:
        rs = build_named(name)
        coeffs = {r.coeffs for r in rs.positive_roots}
        n = rs.rank
        a = rs.cartan_matrix
        # re-close by the root-string rule, which the reflection closure does
        # not use: alpha + alpha_j is a root iff p - <alpha, alphacheck_j> > 0,
        # p the length of the alpha_j-string below alpha; each such root is found
        for root in rs.positive_roots:
            for j in range(n):
                pair = sum(root.coeffs[i] * a[i][j] for i in range(n))
                down, p = list(root.coeffs), 0
                while True:
                    down[j] -= 1
                    if tuple(down) in coeffs:
                        p += 1
                    else:
                        break
                if p - pair > 0:
                    up = list(root.coeffs)
                    up[j] += 1
                    assert tuple(up) in coeffs


def _reflection_closed(a, roots):
    """Check that s_j of each (coeffs, pair_vec, is_long) in roots is a listed
    root with the same length and pairing vector alpha's - k row j of A, or is
    -alpha_j."""
    by_coeffs = {coeffs: (pair_vec, is_long) for coeffs, pair_vec, is_long in roots}
    for coeffs, pair_vec, is_long in roots:
        for j, k in enumerate(pair_vec):
            image = coeffs[:j] + (coeffs[j] - k,) + coeffs[j + 1:]
            if image == tuple(-int(i == j) for i in range(len(a))):
                continue
            assert by_coeffs[image] == (tuple(x - k * y for x, y in zip(pair_vec, a[j])), is_long)


@pytest.mark.parametrize("name", ALL_IMPLEMENTED)
def test_simple_reflections_permute_the_roots_and_keep_lengths(name):
    rs = build_named(name)
    _reflection_closed(rs.cartan_matrix,
                       [(r.coeffs, r.pair_vec, r.is_long) for r in rs.positive_roots])
    # the dual system, whose long and short roots trade places when r > 1
    at = linalg.freeze(zip(*rs.cartan_matrix))
    scale = [x.denominator for x in rootsys._symmetrizer(at)]
    closure = rootsys._closure_pair_vecs(at, rs.rank)
    assert len(closure) == len(rs.positive_roots)
    _reflection_closed(at, [(coeffs, pair_vec, scale[origin] == 1)
                            for coeffs, (pair_vec, origin) in closure.items()])


@pytest.mark.parametrize("name", ALL_IMPLEMENTED)
def test_dual_system_check(name):
    """Building from the transposed Cartan matrix, the dual's comark sum + 1
    equals the stored dual Coxeter number."""
    rs = build_named(name)
    at = linalg.freeze(zip(*rs.cartan_matrix))
    d = rootsys._symmetrizer(at)
    coeffs = list(rootsys._closure_pair_vecs(at, rs.rank))
    highest = coeffs[-1]
    assert 1 + sum(c * di for c, di in zip(highest, d)) == rs.dual_coxeter_number


def test_coweights_dual_to_simple_roots():
    for name in ("A2", "B3", "C3", "G2", "F4"):
        rs = build_named(name)
        simples = rootsys.roots_of_height(rs, 1)
        for i in range(1, rs.rank + 1):
            w = rs.coweight_coords[i - 1]
            for root in simples:
                expected = 1 if root.coeffs[i - 1] == 1 else 0
                assert sum(wk * pk for wk, pk in zip(w, root.pair_vec)) == expected


def test_json_roundtrip():
    import json

    doc = json.loads(json.dumps(rootsys.to_json_dict(build_named("G2"))))
    assert doc["coxeter_number"] == 6
    assert doc["highest_root"] == [3, 2]
    assert doc["rho_check"] == ["3", "5"]


def test_weyl_group_orders():
    from math import factorial

    closed = {
        "A": lambda n: factorial(n + 1),
        "B": lambda n: 2 ** n * factorial(n),
        "C": lambda n: 2 ** n * factorial(n),
        "D": lambda n: 2 ** (n - 1) * factorial(n),
    }
    exceptional = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}
    for name in ALL_IMPLEMENTED:
        rs = build_named(name)
        expected = exceptional.get(name) or closed[name[0]](rs.rank)
        assert rs.weyl_order == expected


@pytest.mark.parametrize("name,f", [("A100", 101), ("B80", 2), ("C80", 2), ("D60", 4)])
def test_high_rank_builds(name, f):
    rs = build_named(name)
    n, h = rs.rank, rs.coxeter_number
    assert rs.index_of_connection == f
    assert len(rs.positive_roots) == n * h // 2
    adj = np.array(rs.cartan_adjugate, dtype=np.int64)
    assert (adj @ np.array(rs.cartan_matrix, dtype=np.int64) == f * np.eye(n, dtype=np.int64)).all()


def test_a100_cartan_adjugate_closed_form():
    # (n + 1) A^-1 of A_n is min(i, j) (n + 1 - max(i, j)), 1-indexed
    n = 100
    assert build_named(f"A{n}").cartan_adjugate == tuple(
        tuple(min(i, j) * (n + 1 - max(i, j)) for j in range(1, n + 1)) for i in range(1, n + 1))


@pytest.mark.parametrize("name", ["A2", "G2", "E8", "A40"])
def test_hash_is_the_cartan_type_and_caches_hit(name):
    t = CartanType.parse(name)
    rs = rootsys.build(t)
    assert hash(rs) == hash(t)
    assert rootsys.build(t) is rs
    affine.letter_element(rs, 1)
    before = affine._letter_elements.cache_info()
    copy = dataclasses.replace(rs)
    assert copy is not rs and copy == rs
    assert affine.letter_element(copy, 1) is affine.letter_element(rs, 1)
    after = affine._letter_elements.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
