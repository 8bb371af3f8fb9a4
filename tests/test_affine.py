import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from math import floor
from unittest.mock import patch

import numpy as np
import pytest
from conftest import conjecture_records, dominant_representative, inversion_set, one_letter_at_a_time

from corelat import affine, linalg, sommers, verify
from corelat.affine import (
    AffineRoot,
    AffineWord,
    NotReducedError,
    PointOnWallError,
    alcove_reduce,
    apply,
    compute_w_b,
    inversion_sequence,
    is_reduced,
    size_i_lattice,
    size_lattice_total,
)
from corelat.rootsys import build_named
from corelat.sommers import enumerate_cores


def rho_over_h(rs):
    return tuple(c / Fraction(rs.coxeter_number) for c in rs.rho_check_coords)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_s0_of_origin_is_highest_coroot():
    a2 = build_named("A2")
    assert apply(a2, (0,), (0, 0)) == (1, 1)


def test_apply_reference_word_a2():
    # s1 s0 s1 s2 s1 s0 sends the origin to the point with ambient
    # coordinates (0, 2, -2), i.e. simple-coroot coordinates (0, 2)
    a2 = build_named("A2")
    q = apply(a2, AffineWord(a2, (1, 0, 1, 2, 1, 0)), (0, 0))
    assert q == (0, 2)


def test_apply_reference_element_c2():
    # t_{-alphacheck_1} s_2 sends the origin to -alphacheck_1
    c2 = build_named("C2")
    el = affine.translation_element(c2, (-1, 0)).compose(affine.letter_element(c2, 2))
    assert apply(c2, el, (0, 0)) == (-1, 0)
    # semidirect decomposition: el = m o t_translation
    rebuilt_v = tuple(sum(el.m[i][j] * el.translation[j] for j in range(2))
                      for i in range(2))
    assert rebuilt_v == el.v and el.m == affine.letter_element(c2, 2).m


def test_apply_element_matches_word():
    rng = random.Random(3)
    for name in ("A2", "C2", "G2", "B3"):
        rs = build_named(name)
        for _ in range(20):
            word = one_letter_at_a_time(rng, rs, 8)
            el = affine.word_to_element(rs, word)
            pt = tuple(rng.randrange(-3, 4) for _ in range(rs.rank))
            assert apply(rs, word, pt) == el(pt)


# ---------------------------------------------------------------------------
# affine root action
# ---------------------------------------------------------------------------

def test_act_affine_root_identity():
    a2 = build_named("A2")
    ar = AffineRoot((1, 0), 2)
    assert affine.identity_element(a2).act_root(ar) == ar


def test_act_affine_root_translation():
    a2 = build_named("A2")
    t = affine.translation_element(a2, (1, 0))  # t_{alphacheck_1}
    assert t.act_root(AffineRoot((1, 0), 0)) == AffineRoot((1, 0), -2)


def test_act_affine_root_matches_inversion_tail():
    a2 = build_named("A2")
    word = (0, 1, 2, 1, 0, 1)
    seq = inversion_sequence(a2, word)
    prefix = affine.word_to_element(a2, word[:-1])
    assert prefix.act_root(affine.affine_simple_root(a2, word[-1])) == seq[-1]


# ---------------------------------------------------------------------------
# inversion sequences
# ---------------------------------------------------------------------------

def test_inversion_sequence_reference_a2():
    a2 = build_named("A2")
    seq = inversion_sequence(a2, (0, 1, 2, 1, 0, 1))
    assert seq == [
        AffineRoot((-1, -1), 1),
        AffineRoot((0, -1), 1),
        AffineRoot((-1, -1), 2),
        AffineRoot((-1, 0), 1),
        AffineRoot((-1, -1), 3),
        AffineRoot((0, -1), 2),
    ]


def test_inversion_sequence_reference_c2():
    # The composition convention is pinned by the sequence above; with it,
    # the five-entry rank-2 reference list arises from the word 0 1 2 0 1
    # (the element t_{-alphacheck_1} s_2 is spelled by its reverse).
    c2 = build_named("C2")
    seq = inversion_sequence(c2, (0, 1, 2, 0, 1))
    assert seq == [
        AffineRoot((-2, -1), 1),
        AffineRoot((-1, -1), 1),
        AffineRoot((-2, -1), 2),
        AffineRoot((0, -1), 1),
        AffineRoot((-1, -1), 2),
    ]
    el = affine.word_to_element(c2, (1, 0, 2, 1, 0))
    wanted = affine.translation_element(c2, (-1, 0)).compose(affine.letter_element(c2, 2))
    assert affine.word_to_element(c2, (0, 1, 2, 0, 1)).key() == wanted.inverse().key()


def test_inversion_sequence_empty():
    assert inversion_sequence(build_named("A2"), ()) == []


def test_inversion_sequence_not_reduced():
    a2 = build_named("A2")
    with pytest.raises(NotReducedError) as err:
        inversion_sequence(a2, (1, 1))
    assert err.value.position == 1


@pytest.mark.parametrize("letter", [-1, 3, 5])
@pytest.mark.parametrize("use", [
    lambda rs, w: apply(rs, w, (1, 0)),
    affine.word_to_element,
    inversion_sequence,
    affine.word_size_totals,
    is_reduced,
    lambda rs, w: affine.reduced_step(rs, affine.identity_element(rs), w[-1]),
], ids=["apply", "word_to_element", "inversion_sequence", "word_size_totals", "is_reduced", "reduced_step"])
def test_out_of_range_letter_is_refused(use, letter):
    # -1 must not act as the last reflection, nor 5 as a zero root; (1, 1) is
    # not reduced, so the letters are checked before any step
    a2 = build_named("A2")
    for word in ((1, letter), (1, 1, letter)):
        with pytest.raises(ValueError, match=rf"^letter {letter} out of range 0\.\.2$") as err:
            use(a2, word)
        assert not isinstance(err.value, NotReducedError)


def test_braid_moves_preserve_inversion_multiset():
    rng = random.Random(11)
    for name in ("A2", "C2", "G2"):
        rs = build_named(name)
        ext = _extended_orders(rs)
        found = 0
        while found < 8:
            word = one_letter_at_a_time(rng, rs, 9)
            for p in range(len(word) - 1):
                i, j = word[p], word[p + 1]
                m = ext.get((i, j))
                if m is None or p + m > len(word):
                    continue
                segment = word[p:p + m]
                if segment != tuple(i if k % 2 == 0 else j for k in range(m)):
                    continue
                flipped = word[:p] + tuple(j if k % 2 == 0 else i for k in range(m)) + word[p + m:]
                if affine.word_to_element(rs, word).key() != affine.word_to_element(rs, flipped).key():
                    continue
                lhs = sorted(inversion_sequence(rs, word))
                rhs = sorted(inversion_sequence(rs, flipped))
                assert lhs == rhs
                found += 1
                break


def _extended_orders(rs):
    """m(i, j) for the extended diagram, from products of Cartan pairings."""
    n = rs.rank
    a = rs.cartan_matrix
    hr = rs.highest_root_coeffs
    hrc = rs.highest_root_coroot_coords

    def pair(i, j):
        if i == j:
            return 2
        if i == 0 and j == 0:
            return 2
        if i == 0:
            return -sum(hr[k] * a[k][j - 1] for k in range(n))
        if j == 0:
            return -sum(a[i - 1][k] * hrc[k] for k in range(n))
        return a[i - 1][j - 1]

    orders = {}
    table = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                prod = pair(i, j) * pair(j, i)
                if prod in table:
                    orders[(i, j)] = table[prod]
    return orders


# ---------------------------------------------------------------------------
# size statistics
# ---------------------------------------------------------------------------

def test_size_word_reference_a2():
    a2 = build_named("A2")
    word = (0, 1, 2, 1, 0, 1)
    assert [affine.word_size_totals(a2, word)[i] for i in range(3)] == [4, 4, 2]


def test_size_word_reference_c2():
    c2 = build_named("C2")
    assert affine.word_size_totals(c2, (0, 1, 2, 0, 1))[1] == 6


def test_size_word_empty():
    a2 = build_named("A2")
    assert all(affine.word_size_totals(a2, ())[i] == 0 for i in range(3))


def test_size_lattice_reference_values():
    a2 = build_named("A2")
    assert [size_i_lattice(a2, (0, 2), i) for i in range(3)] == [4, 4, 2]
    c2 = build_named("C2")
    assert size_i_lattice(c2, (-1, 0), 1) == 6
    for rs in (a2, c2):
        zero = (0,) * rs.rank
        assert all(size_i_lattice(rs, zero, i) == 0 for i in range(rs.rank + 1))
    for q in ((1,), (1, 2, 3), (0, 0, 3)):
        with pytest.raises(ValueError):
            affine.size_vector_lattice(a2, q)


def test_size_total_is_sum_of_parts():
    rng = random.Random(5)
    for name in ("A3", "B2", "C3", "G2", "F4"):
        rs = build_named(name)
        for _ in range(25):
            q = tuple(rng.randrange(-4, 5) for _ in range(rs.rank))
            total = sum(size_i_lattice(rs, q, i) for i in range(rs.rank + 1))
            assert total == size_lattice_total(rs, q)



def test_per_row_sizes_assert_their_int64_bound_on_signed_rows():
    # s(m) = m_1^2 + m_2^2 has bound(mass) = mass^2, which first reaches
    # 2**63 at mass = sum |m_i| = 3037000500
    form = affine.SizeForm(((1, 0), (0, 1)), (0, 0), 0)
    below = np.array([[0, 0], [-1518500249, 1518500250]], dtype=np.int64)
    assert form.step(below).tolist() == [0, 1518500249**2 + 1518500250**2]
    past = np.array([[0, 0], [-1518500250, 1518500250]], dtype=np.int64)
    with pytest.raises(AssertionError, match="int64 bound of the row sizes"):
        form.step(past)

def test_sizer_word_equals_lattice():
    # word/lattice agreement on random reduced words
    rng = random.Random(17)
    for name in ("A2", "A3", "B2", "B3", "C2", "C3", "G2", "D4"):
        rs = build_named(name)
        for _ in range(60):
            word = one_letter_at_a_time(rng, rs, 10)
            q = apply(rs, word, (0,) * rs.rank)
            word_sizes = affine.word_size_totals(rs, word[::-1])
            lattice = tuple(size_i_lattice(rs, q, i) for i in range(rs.rank + 1))
            assert word_sizes == lattice


def test_coset_equivariance():
    # w~ g fixes the image of the origin for finite g
    rng = random.Random(23)
    for name in ("A2", "C2", "G2"):
        rs = build_named(name)
        for _ in range(40):
            word = one_letter_at_a_time(rng, rs, 8)
            el = affine.word_to_element(rs, word)
            g = affine.identity_element(rs)
            for _ in range(rng.randrange(6)):
                g = g.compose(affine.letter_element(rs, rng.randrange(1, rs.rank + 1)))
            assert el.compose(g)((0,) * rs.rank) == el((0,) * rs.rank)


# ---------------------------------------------------------------------------
# reducedness
# ---------------------------------------------------------------------------

def test_is_reduced_examples():
    a2 = build_named("A2")
    assert not is_reduced(a2, (1, 1))
    assert is_reduced(a2, (0, 1, 2, 1, 0, 1))
    assert is_reduced(a2, ())


# ---------------------------------------------------------------------------
# alcove reduction and w_b
# ---------------------------------------------------------------------------

def test_alcove_reduce_interior_fixed():
    for name in ("A2", "C2", "G2", "F4"):
        rs = build_named(name)
        u, y = alcove_reduce(rs, rho_over_h(rs))
        assert u.is_identity()
        assert y == rho_over_h(rs)


def test_alcove_reduce_a2_derived():
    a2 = build_named("A2")
    x = tuple(2 * c / Fraction(3) for c in a2.rho_check_coords)
    u, y = alcove_reduce(a2, x)
    assert u(x) == y
    # y strictly satisfies all n+1 alcove inequalities
    vals = [sum(a2.cartan_matrix[j][l] * y[l] for l in range(2)) for j in range(2)]
    assert all(v > 0 for v in vals)
    assert sum(c * v for c, v in zip(a2.highest_root_coeffs, vals)) < 1
    assert u.inverse()(y) == x


def test_alcove_reduce_projection():
    rng = random.Random(31)
    for name in ("A2", "B3", "G2"):
        rs = build_named(name)
        for _ in range(10):
            shift = tuple(rng.randrange(-3, 4) for _ in range(rs.rank))
            x = tuple(q + r for q, r in zip(shift, rho_over_h(rs)))
            u, y = alcove_reduce(rs, x)
            u2, y2 = alcove_reduce(rs, y)
            assert u2.is_identity() and y2 == y


def test_alcove_reduce_wall_error():
    a2 = build_named("A2")
    with pytest.raises(PointOnWallError):
        alcove_reduce(a2, (Fraction(0), Fraction(0)))


def test_compute_w_b():
    a2 = build_named("A2")
    assert compute_w_b(a2, 1).is_identity()
    w2 = compute_w_b(a2, 2)
    assert w2(rho_over_h(a2)) == tuple(2 * c for c in rho_over_h(a2))
    with pytest.raises(ValueError):
        compute_w_b(a2, 3)
    g2 = build_named("G2")
    w5 = compute_w_b(g2, 5)
    assert w5(rho_over_h(g2)) == tuple(5 * c for c in rho_over_h(g2))


@pytest.mark.parametrize("name, b, steps", [
    ("E8", 31, 1240), ("E8", 61, 2480), ("E7", 55, 1197), ("A2", 4001, 5333),
])
def test_alcove_distance_of_dilated_rho(name, b, steps):
    # b rhocheck / h pairs to b ht(alpha) / h > 0 with every positive root
    rs = build_named(name)
    x = tuple(b * c for c in rho_over_h(rs))
    assert affine.alcove_distance(rs, x) == steps
    assert sum(b * r.height // rs.coxeter_number for r in rs.positive_roots) == steps


@pytest.mark.parametrize("name, b", [
    ("E8", 7919), ("E7", 10007), ("D30", 1001), ("A40", 1001), ("A2", 4001),
])
def test_compute_w_b_walk_does_not_grow_with_b(name, b):
    # the walk starts from b rhocheck / h - floor(b rhocheck / h), in the unit
    # box, so it crosses at most |Phi+| + sum |<alpha_i^vee, alpha>| walls
    rs = build_named(name)
    bound = len(rs.positive_roots) + sum(abs(p) for r in rs.positive_roots for p in r.pair_vec)
    with patch.object(affine, "_violated_wall", wraps=affine._violated_wall) as wall:
        w = compute_w_b.__wrapped__(rs, b)
    assert w(rho_over_h(rs)) == tuple(b * c for c in rho_over_h(rs))
    assert wall.call_count <= bound + 1


@pytest.mark.parametrize("name, b, pinned", [
    ("D30", 1001, "4570a0cb03dc6dff"), ("A40", 43, "7325539b9fc3048b"), ("E8", 7919, "7ff4566aeb0f9052"),
])
def test_compute_w_b_at_high_rank_is_pinned(name, b, pinned):
    # the first 16 hex digits of the SHA-256 of the JSON of (m, v), as the
    # walk and the per-letter word_to_element gave them
    w = compute_w_b.__wrapped__(build_named(name), b)
    assert hashlib.sha256(json.dumps([w.m, w.v]).encode()).hexdigest()[:16] == pinned


@pytest.mark.parametrize("name, b", [("C30", 61), ("C40", 81), ("B30", 61), ("A40", 1001), ("E8", 31)])
def test_m_inv_at_high_rank(name, b):
    # det of the coroot Gram matrix of C_n is 2^n, so m^-1 must not need its int64 adjugate
    w = compute_w_b(build_named(name), b)
    n = len(w.m)
    assert linalg.matmul(w.m, w.m_inv) == linalg.identity(n)
    assert w.inverse()(w(rho_over_h(w.rs))) == rho_over_h(w.rs)


def test_alcove_reduce_step_count_guard(monkeypatch):
    # the guard counts the walk from x - floor(x), and floor(x) != 0 here
    g2 = build_named("G2")
    x = tuple(7 * c for c in rho_over_h(g2))
    box = tuple(c - floor(c) for c in x)
    assert box != x
    steps = affine.alcove_distance(g2, box)
    for wrong in (steps - 1, steps + 1):
        monkeypatch.setattr(affine, "alcove_distance", lambda rs, x, wrong=wrong: wrong)
        with pytest.raises(AssertionError, match=f"predicted {wrong}"):
            alcove_reduce(g2, x)


def test_inversion_set_matches_word_sequence():
    rng = random.Random(41)
    for name in ("A2", "C2", "G2"):
        rs = build_named(name)
        for _ in range(25):
            word = one_letter_at_a_time(rng, rs, 9)
            el = affine.word_to_element(rs, word)
            assert inversion_set(el) == frozenset(inversion_sequence(rs, word))


def test_dominant_representative():
    for name in ("A2", "C2"):
        rs = build_named(name)
        assert dominant_representative(rs, (0,) * rs.rank).is_identity()
        q = (1, 1)
        el = dominant_representative(rs, q)
        assert el.inverse()((0,) * rs.rank) == q
        # image of an interior alcove point is strictly dominant
        x = el(tuple(c - qi for c, qi in zip(rho_over_h(rs), q)))
        vals = [sum(rs.cartan_matrix[j][l] * x[l] for l in range(rs.rank)) for j in range(rs.rank)]
        assert all(v > 0 for v in vals)


def test_wb_maximality_small():
    for name, b, count in (("A2", 4, 5), ("C2", 5, 6), ("A2", 1, 1)):
        assert verify.check_conjecture(((name, (b,)),)) == []
        assert len(enumerate_cores(build_named(name), b)) == count


def read_as_region(monkeypatch, rs, b, points):
    """Make ``sommers.enumerate_cores`` give ``points`` as the b-region of ``rs``."""
    coreset = dataclasses.replace(enumerate_cores(rs, b), point_rows=np.array(points, dtype=np.int64))
    monkeypatch.setattr(sommers, "enumerate_cores", lambda rs, b: coreset)


def test_conjecture_reports_a_failing_point_as_the_oracle_does(monkeypatch):
    g2 = build_named("G2")
    points = [*enumerate_cores(g2, 7).points, (2, -2)]
    expected = conjecture_records(g2, 7, points, compute_w_b(g2, 7).inverse()((0, 0)))
    # (2, -2) lies outside the region, and 13 of its inversions outside inv(w_7)
    assert expected == [str(((2, -2), [AffineRoot((-3, -2), k) for k in (6, 7, 8)]))]
    read_as_region(monkeypatch, g2, 7, points)
    assert verify.check_conjecture((("G2", (7,)),)) == [{"type": "G2", "b": 7, "counterexamples": expected}]


def test_conjecture_reports_a_moved_argmax(monkeypatch):
    a2 = build_named("A2")
    wb = compute_w_b(a2, 4)
    q_star, points = wb.inverse()((0, 0)), enumerate_cores(a2, 4).points
    other = next(q for q in points if q != q_star)
    expected = conjecture_records(a2, 4, points, other)
    assert expected == [str((other, "w_b is not the dominant representative"))]
    # w_b t_(q* - other) sends other to 0, so it reads as w_b with q* moved to other
    moved = wb.compose(affine.translation_element(a2, tuple(x - y for x, y in zip(q_star, other))))
    read_as_region(monkeypatch, a2, 4, points)
    monkeypatch.setattr(affine, "compute_w_b", lambda rs, b: moved)
    assert verify.check_conjecture((("A2", (4,)),)) == [{"type": "A2", "b": 4, "counterexamples": expected}]


def test_dominant_sweep_int64_bound():
    a2 = build_named("A2")  # h - 1 = 2 and max|A| = 2: every value within 6 max|v|
    top = (2**63 - 1) // 6
    assert affine.dominant_rows(a2, np.array([[-top, 0]])).tolist() == [[0, top]]
    with pytest.raises(AssertionError, match="int64 bound of the dominant sweep"):
        affine.dominant_rows(a2, np.array([[-top - 1, 0]]))


def test_dominant_sweep_pass_guard():
    # -rhocheck has every positive root negative, so it takes one pass per positive root
    for name in ("A3", "B3", "G2"):
        rs = build_named(name)
        minus_rho = np.full((1, rs.rank), -1)
        assert affine.dominant_rows(rs, minus_rho).tolist() == [[1] * rs.rank]
        fewer = dataclasses.replace(rs, positive_roots=rs.positive_roots[1:])
        with pytest.raises(AssertionError, match=f"took more than {len(rs.positive_roots) - 1} passes"):
            affine.dominant_rows(fewer, minus_rho)


# ---------------------------------------------------------------------------
# well-definedness of size over all reduced words (small scale here;
# the acceptance suite runs the full length-8 sweep)
# ---------------------------------------------------------------------------

def test_size_welldef_small():
    for name in ("A2", "C2", "G2"):
        rs = build_named(name)
        by_element = {}

        def dfs(el, letters):
            vec = affine.word_size_totals(rs, letters)
            key = el.key()
            if key in by_element:
                assert by_element[key][0] == vec, (name, letters)
            else:
                by_element[key] = (vec, el)
            if len(letters) == 6:
                return
            for i in range(rs.rank + 1):
                if el.act_root(affine.affine_simple_root(rs, i)).is_positive():
                    dfs(el.compose(affine.letter_element(rs, i)), letters + (i,))

        dfs(affine.identity_element(rs), ())
        for key, (vec, el) in by_element.items():
            for i in range(1, rs.rank + 1):
                other = by_element.get(affine.letter_element(rs, i).compose(el).key())
                if other is not None:
                    assert other[0] == vec


def elements_shorter_than(rs, length):
    """Keys of the elements of fewer than ``length`` letters, by the
    per-letter route (``act_root`` and ``compose``), not ``reduced_step``."""
    level, seen = [affine.identity_element(rs)], set()
    for _ in range(length):
        seen.update(el.key() for el in level)
        longer = {}
        for el in level:
            for i in range(rs.rank + 1):
                if el.act_root(affine.affine_simple_root(rs, i)).is_positive():
                    nxt = el.compose(affine.letter_element(rs, i))
                    longer.setdefault(nxt.key(), nxt)
        level = list(longer.values())
    return seen


def step_row_keys(m, v, letters):
    """(element key, letter) of each row of a ``reduced_steps`` block."""
    return [((tuple(map(tuple, mr)), tuple(vr)), i) for mr, vr, i in zip(m.tolist(), v.tolist(), letters.tolist())]


def test_welldef_takes_one_reduced_step_per_element_and_letter(monkeypatch):
    """One step row per (element shorter than max_len, letter), however
    many words spell the element."""
    rs, calls = build_named("A2"), []
    real = affine.reduced_steps

    def counted(rs, m, v, q, letters):
        calls.extend(step_row_keys(m, v, letters))
        return real(rs, m, v, q, letters)

    monkeypatch.setattr(affine, "reduced_steps", counted)
    assert verify.check_welldef(types=("A2",), max_len=4) == []
    expected = {(key, i) for key in elements_shorter_than(rs, 4) for i in range(rs.rank + 1)}
    assert sorted(calls) == sorted(expected)


def test_welldef_finds_a_perturbed_reduced_step(monkeypatch):
    rs = build_named("A2")
    el = affine.identity_element(rs)
    for i in (1, 2):
        el = affine.reduced_step(rs, el, i)[1]
    real = affine.reduced_steps

    def perturbed(rs, m, v, q, letters):
        step = real(rs, m, v, q, letters)
        hit = [row == (el.key(), 1) for row in step_row_keys(m, v, letters)]
        return step._replace(k=step.k + np.array(hit, dtype=np.int64))

    monkeypatch.setattr(affine, "reduced_steps", perturbed)
    records = verify.check_welldef(types=("A2",), max_len=4)
    assert any(r.get("word") == [2, 1, 2] for r in records), records


def test_element_serialization():
    a2 = build_named("A2")
    w = AffineWord.parse(a2, "0 1 2 1 0 1")
    assert str(w) == "0 1 2 1 0 1"
