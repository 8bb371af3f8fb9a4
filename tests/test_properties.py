"""Hypothesis property tests for the alcove reduction, w_b, the word
action, the generator steps of reduced words one row and one block at a
time, the word walk of ``verify sizer`` and ``welldef``, the lattice sizes, the
shifted size statistic and its invariance under the automorphisms of the
extended Dynkin diagram, the knapsack block walk, the alcove and region
points, the a-core bijection with a block step each way and its toggles, the
model embeddings with their block steps against the per-point ones, the
block route of ``verify conjecture`` against its per-point oracle, and the
content counts of the ragged abacus block against the tuples'.

They run beside the fixed cases in test_affine.py, test_sommers.py,
test_cores.py, test_models.py and ``verify models``' point grids, over
random types of rank <= 8, random dilations b, random reduced words,
random runner levels and random lattice points.
"""

import dataclasses
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations, product
from math import gcd, prod
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import conjecture_records, inversion_set
from test_affine import elements_shorter_than

from corelat import affine, cores, ehrhart, linalg, models, rootsys, sommers, verify
from corelat.affine import PointOnWallError
from corelat.rootsys import CartanType, build, build_named

TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

#: the ``verify.ALL_FAMILY_NAMES`` types of rank at most 4
SMALL_FAMILY_NAMES = [t for t in verify.ALL_FAMILY_NAMES if CartanType.parse(t).rank <= 4]

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def type_and_b(draw, max_b=300, types=TYPES):
    rs = build_named(draw(st.sampled_from(types)))
    h = rs.coxeter_number
    b = draw(st.integers(1, max_b).filter(lambda b: gcd(b, h) == 1))
    return rs, b


def rho_over_h(rs):
    return tuple(c / rs.coxeter_number for c in rs.rho_check_coords)


def reference_w_b(rs, b):
    """w_b by the per-step route: reflect b rhocheck / h through the
    lowest-index violated wall with Fraction arithmetic and fold
    ``AffineElement.compose`` over ``letter_element``."""
    n, a, hr = rs.rank, rs.cartan_matrix, rs.highest_root_coeffs
    x = tuple(b * c for c in rho_over_h(rs))
    u = affine.identity_element(rs)
    while True:
        vals = [sum(a[j][l] * x[l] for l in range(n)) for j in range(n)]
        if sum(c * v for c, v in zip(hr, vals)) > 1:
            letter = 0
        else:
            letter = next((j + 1 for j in range(n) if vals[j] < 0), None)
        if letter is None:
            return u.inverse()
        x = affine.apply(rs, (letter,), x)
        u = affine.letter_element(rs, letter).compose(u)


@PROPERTY
@given(type_and_b())
def test_w_b_maps_rho_over_h_to_its_dilation(case):
    rs, b = case
    assert affine.compute_w_b(rs, b)(rho_over_h(rs)) == tuple(b * c for c in rho_over_h(rs))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(type_and_b(max_b=12))
def test_w_b_matches_composed_letters(case):
    rs, b = case
    new, old = affine.compute_w_b(rs, b), reference_w_b(rs, b)
    assert (new.m, new.m_inv, new.root_m, new.root_m_inv, new.v) == \
        (old.m, old.m_inv, old.root_m, old.root_m_inv, old.v)


@PROPERTY
@given(type_and_b(), st.data())
def test_w_b_inverses_and_invariant_pairing(case, data):
    rs, b = case
    n = rs.rank
    el = affine.compute_w_b(rs, b)
    eye = linalg.identity(n)
    assert linalg.matmul(el.m, el.m_inv) == eye
    assert linalg.matmul(el.root_m, el.root_m_inv) == eye
    vec = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    alpha, x = data.draw(vec), data.draw(vec)

    def pair(root, pt):  # <root, pt> = root^T A pt
        return sum(r * sum(c * p for c, p in zip(row, pt))
                   for r, row in zip(root, rs.cartan_matrix))

    assert pair(linalg.matvec(el.root_m, alpha), linalg.matvec(el.m, x)) == pair(alpha, x)


@PROPERTY
@given(type_and_b())
def test_w_b_length_is_the_step_count(case):
    rs, b = case
    h = rs.coxeter_number
    steps = sum(b * r.height // h for r in rs.positive_roots)
    assert affine.alcove_distance(rs, tuple(b * c for c in rho_over_h(rs))) == steps
    assert len(inversion_set(affine.compute_w_b(rs, b))) == steps


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TYPES), st.data())
def test_alcove_reduce_length_is_the_step_count(name, data):
    rs = build_named(name)
    denom = data.draw(st.integers(1, 40))
    x = tuple(Fraction(data.draw(st.integers(-6 * denom, 6 * denom)), denom)
              for _ in range(rs.rank))
    try:
        u, y = affine.alcove_reduce(rs, x)
    except PointOnWallError:
        return
    assert u(x) == y
    assert len(inversion_set(u)) == affine.alcove_distance(rs, x)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TYPES), st.data())
def test_alcove_reduce_is_translation_equivariant(name, data):
    """Moving x by a coroot lam moves u by t_-lam alone: the same y, the same
    finite part, v - m lam, and the same walk, counted in wall tests."""
    rs = build_named(name)
    denom = data.draw(st.integers(1, 40))
    x = tuple(Fraction(data.draw(st.integers(-6 * denom, 6 * denom)), denom)
              for _ in range(rs.rank))
    lam = data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * rs.rank))
    moved = tuple(c + k for c, k in zip(x, lam))
    with patch.object(affine, "_violated_wall", wraps=affine._violated_wall) as wall:
        try:
            u, y = affine.alcove_reduce(rs, x)
        except PointOnWallError:
            with pytest.raises(PointOnWallError):
                affine.alcove_reduce(rs, moved)
            return
        calls = wall.call_count
        u2, y2 = affine.alcove_reduce(rs, moved)
    assert y2 == y
    assert u2.m == u.m
    assert u2.v == tuple(v - k for v, k in zip(u.v, linalg.matvec(u.m, lam)))
    assert wall.call_count == 2 * calls


#: the regions on which ``verify conjecture``'s block route meets the per-point oracle
CONJECTURE_CASES = (("A2", 4), ("B2", 5), ("G2", 7), ("A3", 5), ("C3", 7), ("B3", 11), ("D4", 5), ("F4", 7))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CONJECTURE_CASES), st.data())
def test_conjecture_blocks_match_the_per_point_oracle(case, data):
    """``verify conjecture`` on random coroot points within 2 of a region
    point, w_b's argmax q* moved to a random one of them or kept, gives the
    records of ``conjecture_records``: the same failing points, the same
    argmax verdict and the same first three extra inversions.  Many points
    outside the region pass, as the lower interval of w_b is larger."""
    name, b = case
    rs = build_named(name)
    region = sommers.enumerate_cores(rs, b)
    zero, near = (0,) * rs.rank, st.tuples(*[st.integers(-2, 2)] * rs.rank)
    pairs = st.tuples(st.sampled_from(region.points), st.one_of(st.just(zero), near))
    points = sorted({tuple(x + y for x, y in zip(q, d)) for q, d in data.draw(st.lists(pairs, min_size=1, max_size=12))})
    wb = affine.compute_w_b(rs, b)
    true_star = wb.inverse()(zero)
    q_star = data.draw(st.sampled_from([true_star, *points]))
    expected = conjecture_records(rs, b, points, q_star)
    # w_b t_(q* - q_star) sends q_star to 0: it reads as w_b with its argmax at q_star
    moved = wb.compose(affine.translation_element(rs, tuple(x - y for x, y in zip(true_star, q_star))))
    coreset = dataclasses.replace(region, point_rows=np.array(points, dtype=np.int64))
    with patch.object(sommers, "enumerate_cores", lambda rs, b: coreset), \
            patch.object(affine, "compute_w_b", lambda rs, b: moved):
        found = verify.check_conjecture(((name, (b,)),))
    assert found == ([{"type": name, "b": b, "counterexamples": expected}] if expected else [])


def rational_point(data, n, bound=6):
    denom = data.draw(st.integers(1, 40))
    return tuple(Fraction(data.draw(st.integers(-bound * denom, bound * denom)), denom)
                 for _ in range(n))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TYPES), st.data())
def test_word_action_matches_its_element(name, data):
    rs = build_named(name)
    word = data.draw(st.lists(st.integers(0, rs.rank), max_size=12))
    q = rational_point(data, rs.rank)
    assert affine.apply(rs, word, q) == affine.word_to_element(rs, word)(q)


def size_b_by_definition(rs, b, x):
    """(h/2)(|x - b rhocheck/h|^2 - |rhocheck/h|^2), with the norm read from rootsys.norm2."""
    h = rs.coxeter_number
    rho = rs.rho_check_coords
    shifted = tuple(Fraction(xi) - Fraction(b, h) * ri for xi, ri in zip(x, rho))
    return Fraction(h, 2) * (rootsys.norm2(rs, shifted)
                             - rootsys.norm2(rs, tuple(ri / h for ri in rho)))


@PROPERTY
@given(st.sampled_from(TYPES), st.integers(1, 300), st.data())
def test_size_b_matches_its_definition(name, b, data):
    rs = build_named(name)
    x = rational_point(data, rs.rank)
    assert affine.size_b(rs, b, x) == size_b_by_definition(rs, b, x)


def sizes_by_definition(rs, q):
    """size(q) = (h/2)|q|^2 - <rhocheck, q> and size_i(q) = (c_i/2)|q|^2 -
    <omegacheck_i, q> (c_0 = 1, omegacheck_0 = 0), with the norm and the
    pairings read from rootsys.norm2 and rootsys.inner over Fractions."""
    norm2 = rootsys.norm2(rs, q)
    total = (Fraction(rs.coxeter_number, 2) * norm2
             - rootsys.inner(rs, rs.rho_check_coords, q))
    parts = [Fraction(1, 2) * norm2]
    for c, omega in zip(rs.highest_root_coeffs, rs.coweight_coords):
        parts.append(Fraction(c, 2) * norm2 - rootsys.inner(rs, omega, q))
    return total, parts


@PROPERTY
@given(st.sampled_from(TYPES), st.data())
def test_lattice_sizes_match_their_definitions(name, data):
    rs = build_named(name)
    q = tuple(data.draw(st.integers(-8, 8)) for _ in range(rs.rank))
    total, parts = sizes_by_definition(rs, q)
    assert affine.size_lattice_total(rs, q) == total
    assert [affine.size_i_lattice(rs, q, i) for i in range(rs.rank + 1)] == parts


@PROPERTY
@given(st.sampled_from(TYPES), st.data())
def test_size_vector_is_the_definition_from_one_norm(name, data):
    rs = build_named(name)
    q = tuple(data.draw(st.integers(-8, 8)) for _ in range(rs.rank))
    vector = affine.size_vector_lattice(rs, q)
    assert vector == tuple(sizes_by_definition(rs, q)[1])
    assert sum(vector) == affine.size_lattice_total(rs, q)


#: types of every family but E, for the word-side generator steps
WORD_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "F4", "G2"]


def reduced_prefix(data, rs, max_len=10):
    """A random reduced word's element, built by the oracles: a drawn letter
    is kept when ``act_root`` sends its simple root to a positive root, and
    the element grows by ``AffineElement.compose``."""
    prefix = affine.identity_element(rs)
    for i in data.draw(st.lists(st.integers(0, rs.rank), max_size=max_len)):
        if prefix.act_root(affine.affine_simple_root(rs, i)).is_positive():
            prefix = prefix.compose(affine.letter_element(rs, i))
    return prefix


@PROPERTY
@given(st.sampled_from(WORD_TYPES), st.data())
def test_reduced_step_is_the_root_action_and_the_product(name, data):
    rs = build_named(name)
    prefix = reduced_prefix(data, rs)
    for i in range(rs.rank + 1):
        entry, longer = affine.reduced_step(rs, prefix, i)
        assert entry == prefix.act_root(affine.affine_simple_root(rs, i))
        assert (longer is None) == (not entry.is_positive())
        if longer is not None:
            product = prefix.compose(affine.letter_element(rs, i))
            assert (longer.m, longer.m_inv, longer.v) == (product.m, product.m_inv, product.v)
            # the carried translation, and the inverse formed on demand
            assert longer.translation == product.translation
            assert linalg.matvec(longer.m, longer.translation) == longer.v
            assert linalg.matmul(longer.m, longer.m_inv) == linalg.identity(rs.rank)


@PROPERTY
@given(st.sampled_from(WORD_TYPES), st.data())
def test_inversion_sequence_is_the_root_action_letter_by_letter(name, data):
    """``inversion_sequence`` and ``is_reduced`` on letter lists, most of them
    not reduced, against the per-letter oracle: entry j is ``act_root`` of
    letter j's simple root under the prefix so far, which grows by
    ``compose``; the first non-positive entry is where the word stops being
    reduced, and its negative is the hyperplane the letter recrosses."""
    rs = build_named(name)
    word = data.draw(st.lists(st.integers(0, rs.rank), max_size=12))
    prefix, entries = affine.identity_element(rs), []
    for i in word:
        entries.append(prefix.act_root(affine.affine_simple_root(rs, i)))
        if not entries[-1].is_positive():
            break
        prefix = prefix.compose(affine.letter_element(rs, i))
    if all(entry.is_positive() for entry in entries):
        assert affine.inversion_sequence(rs, word) == entries
        assert affine.is_reduced(rs, word)
    else:
        with pytest.raises(affine.NotReducedError) as err:
            affine.inversion_sequence(rs, word)
        assert (err.value.position, err.value.hyperplane) == (len(entries) - 1, -entries[-1])
        assert not affine.is_reduced(rs, word)


@PROPERTY
@given(st.sampled_from(WORD_TYPES), st.data())
def test_left_step_is_the_left_product(name, data):
    rs = build_named(name)
    el = reduced_prefix(data, rs)
    for i in range(rs.rank + 1):
        step, product = affine.left_step(rs, i, el), affine.letter_element(rs, i).compose(el)
        assert (step.m, step.m_inv, step.v) == (product.m, product.m_inv, product.v)
        assert linalg.matmul(step.m, step.m_inv) == linalg.identity(rs.rank)
        assert step.translation == product.translation


def element_rows(prefixes):
    """The (m, v, q) int64 rows of ``reduced_steps`` for a list of elements."""
    return tuple(np.array([getattr(el, f) for el in prefixes], dtype=np.int64).reshape(len(prefixes), *shape)
                 for f, shape in (("m", (prefixes[0].rs.rank,) * 2), ("v", (-1,)), ("translation", (-1,))))


@PROPERTY
@given(st.sampled_from(verify.ALL_FAMILY_NAMES), st.data())
def test_block_step_is_the_root_action_and_the_product_row_by_row(name, data):
    """Each row of one ``reduced_steps`` block, several reduced prefixes
    times every letter, equals the per-element route: ``act_root`` for the
    entry and its sign, ``compose`` for the element s_i and its translation."""
    rs = build_named(name)
    prefixes = [reduced_prefix(data, rs, 6) for _ in range(data.draw(st.integers(1, 3)))]
    rows = [(el, i) for el in prefixes for i in range(rs.rank + 1)]
    step = affine.reduced_steps(rs, *element_rows([el for el, _ in rows]), np.array([i for _, i in rows]))
    for r, (el, i) in enumerate(rows):
        entry = el.act_root(affine.affine_simple_root(rs, i))
        product = el.compose(affine.letter_element(rs, i))
        assert (tuple(step.roots[r].tolist()), int(step.k[r])) == entry
        assert bool(step.positive[r]) == entry.is_positive()
        assert tuple(map(tuple, step.m[r].tolist())) == product.m
        assert tuple(step.v[r].tolist()) == product.v
        assert tuple(step.q[r].tolist()) == product.translation


@pytest.mark.parametrize("name", ["A2", "G2", "E8"])
def test_block_step_asserts_its_int64_bound(name):
    """At the largest entry that the kernel's bound admits the step is exact,
    as Python ints compute it; one more trips the assertion before any product."""
    rs = build_named(name)
    n, bound = rs.rank, affine._step_data(rs).kernel.bound
    top = (linalg.INT64_LIMIT - 1) // bound(0) - 1  # bound(x) is a constant times x + 1
    assert bound(top) < linalg.INT64_LIMIT <= bound(top + 1)
    # top times the identity acts on simple-root coordinates as on coroot ones, so act_root reads it exactly
    prefix = affine._known(affine.AffineElement(rs, tuple(tuple(top * x for x in row) for row in linalg.identity(n)),
                                                (top,) * n), translation=(-top,) * n)
    rows = element_rows([prefix] * (n + 1))
    letters = np.arange(n + 1)
    step = affine.reduced_steps(rs, *rows, letters)
    for i in range(n + 1):
        product = prefix.compose(affine.letter_element(rs, i))
        entry = prefix.act_root(affine.affine_simple_root(rs, i))
        assert (tuple(step.roots[i].tolist()), int(step.k[i])) == entry
        assert (tuple(map(tuple, step.m[i].tolist())), tuple(step.v[i].tolist())) == (product.m, product.v)
    with pytest.raises(AssertionError, match="int64 bound of the reflection rows"):
        affine.reduced_steps(rs, rows[0], rows[1], rows[2] - 1, letters)


@PROPERTY
@given(st.sampled_from(SMALL_FAMILY_NAMES), st.integers(0, 5))
@example("F4", 5)
@example("D4", 5)
def test_word_walk_carries_each_rows_point_and_vector(name, length):
    """On every level of ``verify._word_walk``, one row per element, in the
    order of the least words, each spelling its element: the carried point
    is the reversed least word applied to 0, and the vector is
    ``affine.word_size_totals`` of the least word.  The elements are those of
    ``elements_shorter_than``, which builds them letter by letter."""
    rs = build_named(name)
    n, seen = rs.rank, set()
    for level in islice(verify._word_walk(rs), length + 1):
        words = [tuple(w) for w in level.least.tolist()]
        keys = [(tuple(map(tuple, np.reshape(k[:n * n], (n, n)).tolist())), tuple(k[n * n:])) for k in level.keys.tolist()]
        assert len(level.first) == len(words) and words == sorted(words)
        assert keys == [affine.word_to_element(rs, w).key() for w in words]
        assert level.point.tolist() == [list(affine.apply(rs, w[::-1], (0,) * n)) for w in words]
        assert level.vec.tolist() == [list(affine.word_size_totals(rs, w)) for w in words]
        seen.update(keys)
    assert seen == elements_shorter_than(rs, length + 1)


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "F4", "A3"])
def test_weighted_enumerator_is_the_sum_of_the_definition(name):
    # every b <= 8, coprime to h or not
    rs = build_named(name)
    for b in range(1, 9):
        points = sommers.enumerate_alcove(rs, b, "coweight")
        expected = sum((size_b_by_definition(rs, b, x) for x in points), Fraction(0))
        assert ehrhart.weighted_enumerator(rs, b) == expected


def alcove_by_matvec(rs, b, lattice):
    """The ``iter_alcove_m`` tuples through ``linalg.matvec`` one at a time,
    kept (coroot) when every coordinate is divisible by f, then sorted; a
    refusal is returned as its message."""
    f = rs.index_of_connection
    points = []
    try:
        for m in sommers.iter_alcove_m(rs, b):
            x = linalg.matvec(rs.cartan_adjugate, m)
            if lattice == "coweight":
                points.append(tuple(Fraction(c, f) for c in x))
            elif all(c % f == 0 for c in x):
                points.append(tuple(c // f for c in x))
    except sommers.FeasibilityError as exc:
        return str(exc)
    return sorted(points)


@PROPERTY
@given(st.sampled_from(TYPES), st.integers(0, 20), st.sampled_from(["coroot", "coweight"]))
def test_enumerate_alcove_matches_the_tuple_loop(name, b, lattice):
    rs = build_named(name)
    with sommers.capped(300):
        try:
            found = sommers.enumerate_alcove(rs, b, lattice)
        except sommers.FeasibilityError as exc:
            found = str(exc)
        assert found == alcove_by_matvec(rs, b, lattice)


@PROPERTY
@given(st.sampled_from(SMALL_FAMILY_NAMES), st.integers(1, 12))
@example("F4", 12)
@example("G2", 6)
def test_coroot_mask_keeps_the_pairings_of_the_coroot_points(name, b):
    """At every b, coprime to h or not: the rows of ``alcove_blocks`` that
    ``coroot_mask`` keeps are the pairings A q of the coroot points q of
    ``enumerate_alcove``, and the blocks hold one row per coweight point."""
    rs = build_named(name)
    blocks = list(sommers.alcove_blocks(rs, b))
    kept = np.concatenate([m[sommers.coroot_mask(rs, m)] for m in blocks])
    pairings = sorted(linalg.matvec(rs.cartan_matrix, q) for q in sommers.enumerate_alcove(rs, b, "coroot"))
    assert sorted(map(tuple, kept.tolist())) == pairings
    assert sum(map(len, blocks)) == len(sommers.enumerate_alcove(rs, b, "coweight"))


@st.composite
def knapsacks(draw):
    """Marks (1-6 entries, each 1-6) and a budget from 0 to 40, the budget
    capped where the product oracle would pass 2,000 tuples."""
    marks = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    top = max(b for b in range(41) if prod(b // c + 1 for c in marks) <= 2000)
    return marks, draw(st.integers(0, top))


@PROPERTY
@given(knapsacks(), st.sampled_from([1, 3, sommers.ALCOVE_BLOCK]))
def test_walk_blocks_are_the_filtered_product_within_the_limit(case, limit):
    marks, budget = case
    oracle = [m for m in product(*(range(budget // c + 1) for c in marks))
              if sum(c * x for c, x in zip(marks, m)) <= budget]
    with patch.object(sommers, "ALCOVE_BLOCK", limit):
        blocks = list(sommers._walk(marks, budget, ([0] * len(marks), 0, 1)))
    assert [tuple(row) for block in blocks for row in block.tolist()] == oracle
    assert max(map(len, blocks)) <= limit


@st.composite
def congruences(draw, length):
    """(weights, target, modulus) for a walk of ``length`` coordinates:
    modulus 1-8, weights and target of either sign, up to 3 moduli each way."""
    modulus = draw(st.integers(1, 8))
    entry = st.integers(-3 * modulus, 3 * modulus)
    return draw(st.lists(entry, min_size=length, max_size=length)), draw(entry), modulus


@PROPERTY
@given(knapsacks().flatmap(lambda case: st.tuples(st.just(case), congruences(len(case[0])))),
       st.sampled_from([1, 3, sommers.ALCOVE_BLOCK]))
def test_walk_keeps_the_rows_of_its_congruence(case_and_congruence, limit):
    """The walk of a congruence sum w_i v_i = t mod M yields the rows of the
    filtered product that satisfy it, in lexicographic order, with no block
    past ALCOVE_BLOCK rows; a modulus that no row meets yields no row."""
    (marks, budget), (weights, target, modulus) = case_and_congruence
    oracle = [m for m in product(*(range(budget // c + 1) for c in marks))
              if sum(c * x for c, x in zip(marks, m)) <= budget
              and (sum(w * x for w, x in zip(weights, m)) - target) % modulus == 0]
    with patch.object(sommers, "ALCOVE_BLOCK", limit):
        blocks = list(sommers._walk(marks, budget, (weights, target, modulus)))
    assert [tuple(row) for block in blocks for row in block.tolist()] == oracle
    assert all(len(block) <= limit for block in blocks)


def test_a_prefix_longer_than_a_block_is_split():
    """A1 at b = 10**4 is one range of 10**4 + 1 rows: every block stays
    within ALCOVE_BLOCK, which keeps the enumerator's check of ALCOVE_BLOCK
    rows of mass b (``linalg.QuadraticRows.check_total``) a bound of each
    block sum."""
    blocks = list(sommers.alcove_blocks(build_named("A1"), 10**4))
    assert max(map(len, blocks)) <= sommers.ALCOVE_BLOCK
    assert [m for block in blocks for (m,) in block.tolist()] == list(range(10**4 + 1))


@PROPERTY
@given(type_and_b(max_b=13))
@example((build_named("A4"), 11))
@example((build_named("E6"), 7))
@example((build_named("D5"), 9))
def test_mapped_alcove_points_equal_the_facet_walk(case):
    rs, b = case
    wb_inv = affine.compute_w_b(rs, b).inverse()
    mapped = np.array(sorted(wb_inv(p) for p in sommers.enumerate_alcove(rs, b)), dtype=np.int64)
    assert np.array_equal(sommers._direct_scan(sommers.sommers_region(rs, b)), mapped)
    assert np.array_equal(sommers.enumerate_cores(rs, b).point_rows, mapped)



@PROPERTY
@given(type_and_b(max_b=13))
@example((build_named("B3"), 7))
@example((build_named("C3"), 5))
@example((build_named("F4"), 7))
@example((build_named("G2"), 13))
def test_region_sizes_equal_the_per_point_fractions(case):
    """The per-row integer sizes of ``enumerate_cores`` equal the per-point
    Fraction route, and the JSON prints each size as that Fraction."""
    rs, b = case
    cs = sommers.enumerate_cores(rs, b)
    expected = [affine.size_lattice_total(rs, q) for q in cs.points]
    assert list(cs.sizes) == expected
    assert cs.total_size == sum(expected)
    doc = cs.to_json_dict()
    assert [row["size"] for row in doc["rows"]] == [str(s) for s in expected]
    assert doc["sizes"] == [str(s) for s in sorted(expected)]
    assert doc["max"] == str(max(expected))

@st.composite
def runner_levels(draw, max_level=4):
    """(a, q): a = 2..7 and sum-zero levels q of the a runners of an abacus."""
    a = draw(st.integers(2, 7))
    head = draw(st.lists(st.integers(-max_level, max_level), min_size=a - 1, max_size=a - 1))
    return a, (*head, -sum(head))


@PROPERTY
@given(runner_levels())
def test_from_coroot_and_to_coroot_are_inverse(case):
    a, q = case
    parts = cores.from_coroot(a, q)
    assert cores.is_core(parts, a)
    assert cores.to_coroot(parts, a) == q


@st.composite
def level_blocks(draw):
    """(a, rows): a = 1..7 and a block of 1..40 sum-zero level rows of the
    a-runner abacus.  Each row draws its own level range, so the window
    widths differ within a block, and all-zero rows (the empty partition)
    are mixed in."""
    a = draw(st.integers(1, 7))

    def row(spread):
        head = st.lists(st.integers(-spread, spread), min_size=a - 1, max_size=a - 1)
        return head.map(lambda h: (*h, -sum(h)))
    rows = st.one_of(st.just((0,) * a), st.integers(0, 6).flatmap(row))
    return a, draw(st.lists(rows, min_size=1, max_size=40))


def from_coroot_by_positions(a, q):
    """The per-position loop that ``cores.from_coroot`` replaced, kept as
    its reference: walk the beads from a max(q) - 1 down to a (min(q) - 1)
    and emit p + i at each black bead with p + i > 0."""
    parts, i = [], 0
    for p in range(a * max(q) - 1, a * (min(q) - 1) - 1, -1):
        if p // a < q[p % a]:
            i += 1
            if p + i > 0:
                parts.append(p + i)
    return tuple(parts)


@PROPERTY
@given(level_blocks())
# the first row is the narrowest, and a zero row sits between wide ones
@example((3, [(0, 0, 0), (0, 2, -2), (0, 0, 0), (-5, 1, 4)]))
@example((4, [(1, 0, 0, -1), (-3, 3, -3, 3)]))
def test_a_block_of_levels_gives_each_row_its_core(case):
    a, rows = case
    block = cores.abacus_block(a, rows).partitions()
    assert block == cores.abacus_block(a, np.array(rows, dtype=np.int64)).partitions()
    assert len(block) == len(rows)
    for q, parts in zip(rows, block):
        assert parts == cores.from_coroot(a, q) == from_coroot_by_positions(a, q)
        assert cores.is_core(parts, a)
        assert cores.to_coroot(parts, a) == q


def content_counts_by_boxes(parts, a):
    """The content classes (s - r) mod a counted one box at a time."""
    counts = [0] * a
    for r, length in enumerate(parts, start=1):
        for s in range(1, length + 1):
            counts[(s - r) % a] += 1
    return counts


#: 81 rows whose widest window, 5 (2 * 40 + 1) positions, fits 40 rows in an
#: abacus step, and whose 8,120 parts take three content steps of
#: ABACUS_CELLS // 5 = 3,276 parts
MANY_STEPS = (5, [(k, 0, -k, 0, 0) for k in range(-40, 41)])


@PROPERTY
@given(level_blocks())
@example((3, []))
@example((4, [(1, 0, 0, -1)]))
@example(MANY_STEPS)
def test_ragged_content_counts_equal_the_tuple_counts(case):
    a, rows = case
    levels = np.array(rows, dtype=np.int64).reshape(len(rows), a)
    block = cores.abacus_block(a, levels)
    tuples = block.partitions()
    assert len(block.rows) == len(tuples) == len(rows)
    counts = cores.content_counts(block, a)
    assert counts.shape == (len(rows), a)
    assert counts.tolist() == [list(cores.content_counts(parts, a)) for parts in tuples] == \
        [content_counts_by_boxes(parts, a) for parts in tuples]


def test_the_many_step_block_takes_many_steps():
    a, rows = MANY_STEPS
    with patch.object(cores, "_abacus_step", wraps=cores._abacus_step) as step:
        block = cores.abacus_block(a, np.array(rows, dtype=np.int64))
    assert step.call_count == 3 and len(block.lengths) == 8120 > 2 * cores.ABACUS_CELLS // a


@PROPERTY
@given(level_blocks())
@example((3, []))
@example((4, [(0, 0, 0, 0)]))
@example((4, [(1, 0, 0, -1)]))
@example(MANY_STEPS)
def test_coroot_block_gives_back_the_levels_of_abacus_block(case):
    a, rows = case
    levels = np.array(rows, dtype=np.int64).reshape(len(rows), a)
    back = cores.coroot_block(cores.abacus_block(a, levels), a)
    assert back.dtype == np.int64 and back.shape == (len(rows), a)
    assert back.tolist() == levels.tolist()


def to_coroot_by_beta_set(parts, a):
    """The per-partition loop that ``cores.coroot_block`` replaced, kept as
    its reference: the highest beta-set position on each runner, or the top
    of the tail below -k when the runner holds no part."""
    k, highest = len(parts), {}
    for p in (length - r for r, length in enumerate(parts, start=1)):  # strictly decreasing
        highest.setdefault(p % a, p)
    return [1 + highest.get(j, -k - 1 - (-k - 1 - j) % a) // a for j in range(a)]


@pytest.mark.parametrize("a", [2, 3, 4, 5, 6])
def test_coroot_block_equals_to_coroot_on_every_core(a):
    every = cores.all_cores(a, 40)
    levels = cores.coroot_block(cores.PartitionBlock.of(every), a).tolist()
    assert levels == [list(cores.to_coroot(parts, a)) for parts in every]
    assert levels == [to_coroot_by_beta_set(parts, a) for parts in every]


PARTITION_LISTS = st.lists(st.lists(st.integers(1, 20), max_size=10).map(lambda p: tuple(sorted(p, reverse=True))),
                           max_size=20)


@PROPERTY
@given(PARTITION_LISTS)
@example([])
@example([()])
def test_partition_block_of_flattens_the_tuples(partitions):
    block = cores.PartitionBlock.of(partitions)
    assert block.lengths.dtype == block.rows.dtype == np.int64
    assert block.lengths.tolist() == [length for parts in partitions for length in parts]
    assert block.rows.tolist() == [len(parts) for parts in partitions]
    assert block.partitions() == partitions


@PROPERTY
@given(PARTITION_LISTS, st.integers(1, 7))
@example([(), (1,), (2,), (2, 1), (3, 1), (3, 1, 1), (4, 2, 1, 1), (5, 2, 1, 1, 1)], 5)
@example([(1,), (2, 1), (3, 1, 1), (3, 2, 1), (4, 1, 1, 1), (4, 3, 2, 1)], 4)
def test_coroot_block_sums_to_zero_on_cores_only(partitions, a):
    # a non-core has a white bead below the highest black one of some runner
    levels = cores.coroot_block(cores.PartitionBlock.of(partitions), a)
    assert levels.tolist() == [to_coroot_by_beta_set(parts, a) for parts in partitions]
    on_cores = [total == 0 for total in levels.sum(axis=1).tolist()]
    assert on_cores == [cores.is_core(p, a) for p in partitions]
    assert (levels.sum(axis=1) >= 0).all()
    # on an a-core, conjugation negates and reverses the levels
    antisymmetric = (levels == -levels[:, ::-1]).all(axis=1).tolist()
    assert [sym for sym, core in zip(antisymmetric, on_cores) if core] == \
        [p == cores.conjugate(p) for p, core in zip(partitions, on_cores) if core]


def test_the_partitions_of_a_many_step_region_are_its_simultaneous_cores():
    # 2,530 points: abacus_block row blocks, read in steps of ABACUS_CELLS positions
    cs = sommers.enumerate_cores(build_named("A4"), 21)
    with patch.object(cores, "_abacus_step", wraps=cores._abacus_step) as step:
        rows = list(cs.rows())
    assert step.call_count > 1 and len(rows) == len(cs) == 2530
    for q, size, parts in rows:
        assert cores.is_core(parts, 5) and cores.is_core(parts, 21)
        assert cores.to_coroot(parts, 5) == models.type_a_ambient_from_coords(q)
        assert sum(parts) == size


@PROPERTY
@given(runner_levels(), st.data())
def test_toggling_a_content_class_is_the_simple_reflection(case, data):
    # read through the type-A coordinates, toggle i is the letter s_i
    a, q = case
    i = data.draw(st.integers(0, a - 1))
    rs = build_named(f"A{a - 1}")
    moved = affine.apply(rs, (i,), models.type_a_coords_from_ambient(q))
    toggled = cores.toggle_action(cores.from_coroot(a, q), a, i)
    assert cores.to_coroot(toggled, a) == models.type_a_ambient_from_coords(moved)


MODEL_TYPES = ([f"B{n}" for n in range(2, 7)] + [f"C{n}" for n in range(2, 7)]
               + ["D4", "D5", "D6", "G2"])


@PROPERTY
@given(st.sampled_from(MODEL_TYPES), st.data())
def test_model_embedding_is_an_equivariant_size_preserving_bijection(name, data):
    t = CartanType.parse(name)
    rs = build(t)
    k = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=t.rank, max_size=t.rank)))
    assert models.from_ambient(t, models.to_ambient(t, k)) == k
    image = models.embed(t, k).image
    assert sum(image) == 0
    if t.family != "G":
        assert image == tuple(-x for x in reversed(image))
    for i in range(t.rank + 1):
        moved = models.embed(t, affine.apply(rs, (i,), k)).image
        assert models.act_model_generator(t, i, image) == moved
    assert list(models.model_size_vector(t, k)) == \
        [affine.size_i_lattice(rs, k, i) for i in range(t.rank + 1)]
    assert sum(models.model_size_vector(t, k)) == affine.size_lattice_total(rs, k)


@PROPERTY
@given(st.sampled_from(MODEL_TYPES), st.data())
def test_model_block_steps_match_their_per_point_references(name, data):
    t = CartanType.parse(name)
    rs = build(t)
    points = data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * t.rank), min_size=1, max_size=8))
    x = np.array(points, dtype=np.int64)
    images = [models.embed(t, k).image for k in points]
    for i in range(t.rank + 1):
        assert models.generator_step(t, i)(np.array(images)).tolist() == \
            [list(models.act_model_generator(t, i, image)) for image in images]
        assert affine.letter_element(rs, i).step(x).tolist() == [list(affine.apply(rs, (i,), k)) for k in points]
    lattice = [affine.size_vector_lattice(rs, k) for k in points]
    d, s = affine.size_vector_numerators(rs, x)
    assert [tuple(Fraction(v, d) for v in row) for row in s.tolist()] == lattice
    d, s = models.size_numerators(t, x)
    assert [tuple(Fraction(v, d) for v in row) for row in s.tolist()] == \
        [(*sizes, affine.size_lattice_total(rs, k)) for k, sizes in zip(points, lattice)]
    modulus = len(images[0])
    block = cores.abacus_block(modulus, images)
    brute = [[sum(1 for r, length in enumerate(p, start=1) for c in range(1, length + 1)
                  if (c - r) % modulus == j) for j in range(modulus)] for p in block.partitions()]
    assert cores.content_counts(block, modulus).tolist() == brute


@PROPERTY
@given(st.sampled_from(MODEL_TYPES), st.data())
def test_model_size_numerators_count_the_ragged_block_as_the_tuples(name, data):
    # the ragged route against the one it replaced: partition tuples, counted one by one
    t = CartanType.parse(name)
    points = data.draw(st.lists(st.tuples(*[st.integers(-30, 30)] * t.rank), max_size=60))
    x = np.array(points, dtype=np.int64).reshape(len(points), t.rank)
    rows = models.size_rows(t)
    modulus = len(rows[0])
    parts = cores.abacus_block(modulus, models.level_step(t)(x)).partitions()
    counts = np.array([cores.content_counts(p, modulus) for p in parts], dtype=np.int64).reshape(len(parts), modulus)
    rows.append([sum(col) for col in zip(*rows)])
    d, s = models.size_numerators(t, x)
    assert d == 2 and s.tolist() == linalg.AffineRows(rows, [0] * len(rows))(counts).tolist()


def extended_cartan(rs):
    """E[i][j] = <alphacheck_j, alpha_i> for i, j = 0..n, with alpha_0 = -theta
    + delta: row 0 is -theta's pairing vector, column 0 pairs each simple
    root with -thetacheck (from the highest root's coroot coordinates)."""
    theta = max(rs.positive_roots, key=lambda r: r.height)
    hrc = rs.highest_root_coroot_coords
    col0 = [-sum(c * x for c, x in zip(hrc, row)) for row in rs.cartan_matrix]
    return ((2, *(-p for p in theta.pair_vec)),
            *((c, *row) for c, row in zip(col0, rs.cartan_matrix)))


@lru_cache(maxsize=None)
def diagram_automorphisms(name):
    """Every permutation sigma of 0..n with E[sigma i][sigma j] = E[i][j]."""
    e = extended_cartan(build_named(name))
    nodes = range(len(e))
    return tuple(sigma for sigma in permutations(nodes)
                 if all(e[sigma[i]][sigma[j]] == e[i][j] for i in nodes for j in nodes))


@pytest.mark.parametrize("name, order", [
    ("A1", 2), ("A3", 8), ("A4", 10), ("B3", 2), ("B4", 2), ("C3", 2), ("C4", 2),
    ("D4", 24), ("D5", 8), ("E6", 6), ("F4", 1), ("G2", 1),
])
def test_extended_diagram_automorphism_counts(name, order):
    assert len(diagram_automorphisms(name)) == order


def moved_sizes(rs, b, autos):
    """(s(m), s(sigma m)) for each alcove tuple m, extended by m_0 = b - sum
    c_i m_i, and each permutation sigma in ``autos``, s the integer form of
    ``affine.scaled_size_b``; sigma m must again be an alcove tuple."""
    _, s = affine.scaled_size_b(rs, b)
    marks = (1, *rs.highest_root_coeffs)
    for m in sommers.iter_alcove_m(rs, b):
        ext = (b - sum(c * x for c, x in zip(marks[1:], m)), *m)
        size = s(m)
        for sigma in autos:
            moved = [0] * len(ext)
            for i, x in enumerate(ext):
                moved[sigma[i]] = x
            assert min(moved) >= 0 and sum(c * x for c, x in zip(marks, moved)) == b
            yield size, s(moved[1:])


RANK_6_TYPES = [t for t in TYPES if build_named(t).rank <= 6]


@PROPERTY
@given(st.sampled_from(RANK_6_TYPES), st.integers(0, 12))
def test_size_is_invariant_under_the_extended_diagram_automorphisms(name, b):
    # Omega, the fundamental group, is among these automorphisms
    rs = build_named(name)
    for size, moved in moved_sizes(rs, b, diagram_automorphisms(name)):
        assert moved == size


def test_a_permutation_that_is_no_automorphism_moves_some_size():
    # the extended A3 diagram is a 4-cycle: swapping two adjacent nodes alone
    # keeps every mark (all 1) but is no symmetry of it
    rs, swap = build_named("A3"), (1, 0, 2, 3)
    assert swap not in diagram_automorphisms("A3")
    assert any(moved != size for size, moved in moved_sizes(rs, 5, [swap]))
