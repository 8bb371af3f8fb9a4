import importlib
import inspect
import pkgutil
import threading
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import corelat
from corelat import affine, cores, ehrhart, linalg, models, rootsys, sommers, verify
from corelat.affine import size_b
from corelat.rootsys import CartanType, build, build_named
from corelat.sommers import (
    FeasibilityError,
    capped,
    contains,
    enumerate_alcove,
    enumerate_cores,
    haiman_count,
    max_size,
    simultaneous_selfconjugate,
    sommers_region,
)


def a_coords(parts, a):
    return models.type_a_coords_from_ambient(cores.to_coroot(parts, a))


# ---------------------------------------------------------------------------
# the region and membership
# ---------------------------------------------------------------------------

def test_region_b1_is_alcove():
    for name in ("A2", "C2", "G2"):
        rs = build_named(name)
        sr = sommers_region(rs, 1)
        assert sr.t_b == 0 and sr.r_b == 1
        assert contains(sr, (0,) * rs.rank)


def test_region_requires_coprime():
    with pytest.raises(ValueError):
        sommers_region(build_named("A2"), 3)
    with pytest.raises(ValueError):
        sommers_region(build_named("A2"), 0)


def test_contains_reference():
    a2 = build_named("A2")
    sr = sommers_region(a2, 4)
    assert contains(sr, a_coords((3, 1, 1), 3))
    assert not contains(sr, a_coords((5, 3, 1, 1), 3))


@pytest.mark.parametrize("a,b", [(3, 4), (3, 5), (4, 5)])
def test_region_membership_is_hook_condition(a, b):
    """q is in the b-region of A_{a-1} iff its core is also a b-core."""
    rs = build(CartanType("A", a - 1))
    sr = sommers_region(rs, b)
    bound = (a * a - 1) * (b * b - 1) // 24
    for parts in cores.all_cores(a, bound + 5):
        member = contains(sr, a_coords(parts, a))
        assert member == cores.is_core(parts, b)


# ---------------------------------------------------------------------------
# alcove enumeration
# ---------------------------------------------------------------------------

def test_alcove_b1():
    for name in ("A2", "B3", "G2", "F4"):
        rs = build_named(name)
        assert enumerate_alcove(rs, 1, "coroot") == [(0,) * rs.rank]


def test_alcove_counts_reference():
    a2 = build_named("A2")
    assert len(enumerate_alcove(a2, 4, "coroot")) == 5
    g2 = build_named("G2")
    assert len(enumerate_alcove(g2, 5, "coroot")) == 5


@pytest.mark.parametrize("name,b", [
    ("A2", 4), ("A2", 5), ("A3", 5), ("B2", 3), ("B3", 5), ("C3", 5),
    ("D4", 5), ("G2", 5), ("G2", 7), ("F4", 5), ("E6", 5),
])
def test_haiman_and_coweight_ratio(name, b):
    rs = build_named(name)
    predicted = haiman_count(rs, b)
    assert len(enumerate_alcove(rs, b, "coroot")) == predicted
    assert len(enumerate_alcove(rs, b, "coweight")) == rs.index_of_connection * predicted


@pytest.mark.parametrize("name,b", [("A2", 5), ("D4", 5), ("G2", 7), ("E6", 5)])
def test_alcove_rows_are_the_points_over_f(name, b):
    # the one integer form: through adj(A) the walk's rows are the coweight
    # points' numerators over f, and the rows coroot_mask keeps the coroot points
    rs, f = build_named(name), build_named(name).index_of_connection
    rows = np.concatenate(list(sommers.alcove_blocks(rs, b)))
    mask = np.concatenate([sommers.coroot_mask(rs, m) for m in sommers.alcove_blocks(rs, b)])
    x = (rows @ np.array(rs.cartan_adjugate, dtype=np.int64).T).tolist()
    assert rows.dtype == np.int64 and mask.dtype == bool
    assert sorted(tuple(Fraction(c, f) for c in row) for row in x) == enumerate_alcove(rs, b, "coweight")
    assert sorted(tuple(c // f for c in row) for row, kept in zip(x, mask) if kept) == enumerate_alcove(rs, b)
    assert int(mask.sum()) == haiman_count(rs, b)


def test_coweight_inventory_b_and_c():
    """The 2n+2 coweight points of the 3-fold alcove, by family."""
    for n in (2, 3, 4):
        rs = build(CartanType("B", n))
        pts = set(enumerate_alcove(rs, 3, "coweight"))
        w = [None] + [tuple(map(Fraction, c)) for c in rs.coweight_coords]
        expected = {tuple(Fraction(0) for _ in range(n))}
        expected |= {tuple(k * x for x in w[1]) for k in (1, 2, 3)}
        for j in range(2, n + 1):
            expected.add(w[j])
            expected.add(linalg.vec_add(w[1], w[j]))
        assert pts == expected

        rs = build(CartanType("C", n))
        pts = set(enumerate_alcove(rs, 3, "coweight"))
        w = [None] + [tuple(map(Fraction, c)) for c in rs.coweight_coords]
        expected = {tuple(Fraction(0) for _ in range(n))}
        expected |= {tuple(k * x for x in w[n]) for k in (1, 2, 3)}
        for j in range(1, n):
            expected.add(w[j])
            expected.add(linalg.vec_add(w[n], w[j]))
        assert pts == expected


def test_exponent_dilations_have_no_interior_coweights():
    for name in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = build_named(name)
        marks = rs.highest_root_coeffs
        for e in set(rs.exponents):
            for m in sommers.iter_alcove_m(rs, e):
                interior = all(x > 0 for x in m) and sum(c * x for c, x in zip(marks, m)) < e
                assert not interior


# ---------------------------------------------------------------------------
# core enumeration (both routes)
# ---------------------------------------------------------------------------

def test_enumerate_cores_counts():
    a2 = build_named("A2")
    cs = enumerate_cores(a2, 5)
    assert len(cs) == 7
    c2 = build_named("C2")
    cs = enumerate_cores(c2, 5)
    assert len(cs) == 6 and cs.mean_size == 5
    assert enumerate_cores(a2, 1).points == ((0, 0),)
    # rank 1: the facet walk runs over a single slack
    a1 = build_named("A1")
    for b, count in ((1, 1), (3, 2), (5, 3), (7, 4)):
        cs = enumerate_cores(a1, b)
        assert len(cs) == count


def test_enumerate_cores_matches_simultaneous_cores():
    """In type A the region points are exactly the simultaneous cores."""
    for a, b in ((3, 4), (3, 5), (4, 5)):
        rs = build(CartanType("A", a - 1))
        cs = enumerate_cores(rs, b)
        from_region = sorted(
            cores.from_coroot(a, models.type_a_ambient_from_coords(q)) for q in cs.points)
        bound = (a * a - 1) * (b * b - 1) // 24
        brute = sorted(p for p in cores.all_cores(a, bound)
                       if cores.is_core(p, b))
        assert from_region == brute
        assert len(cs) * (a + b) == comb(a + b, b)


def test_enumerate_cores_cap():
    with capped(100), pytest.raises(FeasibilityError):
        enumerate_cores(build_named("A3"), 101)


def test_capped_sets_the_cap_for_its_block_only():
    assert sommers._CAP.get() == sommers.DEFAULT_CAP
    with capped(7):
        assert sommers._CAP.get() == 7
        assert len(enumerate_cores(build_named("A2"), 5)) == 7
    assert sommers._CAP.get() == sommers.DEFAULT_CAP


def test_capped_restores_the_cap_after_a_refusal():
    with pytest.raises(FeasibilityError, match="exceeds cap 6$"):
        with capped(6):
            enumerate_cores(build_named("A2"), 5)
    assert sommers._CAP.get() == sommers.DEFAULT_CAP
    assert len(enumerate_cores(build_named("A2"), 5)) == 7


def test_nested_capped_blocks_restore_the_outer_cap():
    with capped(50):
        with capped(3):
            assert sommers._CAP.get() == 3
            with pytest.raises(FeasibilityError, match="exceeds cap 3$"):
                enumerate_cores(build_named("A2"), 5)
        assert sommers._CAP.get() == 50
        assert len(enumerate_cores(build_named("A2"), 5)) == 7
    assert sommers._CAP.get() == sommers.DEFAULT_CAP


def test_a_capped_block_is_not_seen_in_another_thread():
    seen = []

    def other():
        seen.append(sommers._CAP.get())
        seen.append(len(enumerate_cores(build_named("A2"), 5)))

    with capped(1):
        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert sommers._CAP.get() == 1
    assert seen == [sommers.DEFAULT_CAP, 7]


def public_signatures():
    """(label, parameters) of every public callable of the package: the
    module-level functions and classes, and the public methods of each
    class, labelled by the module that defines them."""
    modules = [importlib.import_module(f"corelat.{m.name}")
               for m in pkgutil.iter_modules(corelat.__path__)]
    for module in modules:
        for name, obj in vars(module).items():
            owner = getattr(obj, "__module__", None) or ""
            if name.startswith("_") or not owner.startswith("corelat"):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                            if not attr.startswith("_") and callable(value)]
            for label, member in members:
                try:
                    yield f"{owner}.{label}", inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue


def test_only_capped_takes_a_cap():
    # the cap is one setting per block, never a parameter of the work it guards
    taking = {label for label, params in public_signatures() if "cap" in params}
    assert taking == {"corelat.sommers.capped"}


def test_every_optional_parameter_is_listed():
    """A ratchet on options: the public parameters with a default are the
    CLI's argv and sink, ``enumerate_alcove``'s lattice, the scoping
    keywords of ``verify.run`` and ``verify.scoped_matrix``, and each suite
    keyword that a ``verify.KEYWORD_FLAGS`` flag sets.  A new one needs an
    edit here."""
    optional = {f"{label}:{name}" for label, params in public_signatures()
                for name, p in params.items() if p.default is not p.empty}
    suites = {f"corelat.verify.{check}:{name}" for check in vars(verify) if check.startswith("check_")
              for name in inspect.signature(getattr(verify, check)).parameters if name in verify.KEYWORD_FLAGS}
    assert optional == {
        "corelat.cli.main:argv", "corelat.cli.to_json:sink", "corelat.sommers.enumerate_alcove:lattice",
        "corelat.verify.run:types", "corelat.verify.run:bs", "corelat.verify.run:count",
        "corelat.verify.run:length", "corelat.verify.scoped_matrix:types", "corelat.verify.scoped_matrix:bs",
    } | suites


@pytest.mark.parametrize("b", [0, 3])
@pytest.mark.parametrize("refuse", [sommers_region, haiman_count, affine.compute_w_b, enumerate_cores])
def test_every_entry_point_refuses_a_b_not_coprime_to_h(refuse, b):
    message = f"A2: b = {b} must be a positive integer with gcd(b, h) = 1, h = 3"
    with pytest.raises(ValueError) as info:
        refuse(build_named("A2"), b)
    assert str(info.value) == message


def test_selfconjugate_refuses_a_b_not_coprime_to_2n():
    with pytest.raises(ValueError) as info:
        simultaneous_selfconjugate(2, 4)
    assert str(info.value) == "C2: b = 4 must be a positive integer with gcd(b, h) = 1, h = 4"


def test_alcove_guard_boundary():
    # A2, b = 5: m1 + m2 <= 5 has 21 tuples and f = 3, so cap 7 is the
    # smallest cap that admits them all
    rs = build_named("A2")
    with capped(7):
        assert len(enumerate_alcove(rs, 5)) == 7
        coweights = enumerate_alcove(rs, 5, "coweight")
        assert ehrhart.weighted_enumerator(rs, 5) == sum(size_b(rs, 5, x) for x in coweights)
    with capped(6):
        with pytest.raises(FeasibilityError, match="cap \\* f = 6 \\* 3 = 18"):
            enumerate_alcove(rs, 5)
        # b = 5 is coprime to h = 3: the enumerator refuses on the predicted count
        with pytest.raises(FeasibilityError, match="predicted count 7 for A2, b=5 exceeds cap 6"):
            ehrhart.weighted_enumerator(rs, 5)
    # exactly cap * f tuples pass (b = 4: 15 = 5 * 3); one more is refused (b = 3: 10 = 3 * 3 + 1)
    with capped(5):
        assert len(enumerate_alcove(rs, 4, "coweight")) == 15
    for run in (lambda: enumerate_alcove(rs, 3),
                lambda: ehrhart.weighted_enumerator(rs, 3)):
        with capped(3), pytest.raises(FeasibilityError, match="= 9$"):
            run()


def test_region_vertices_and_hull(fraction_inverse):
    """w_b^{-1} carries the dilated-alcove vertex set onto the region's
    vertices; every region point lies in their rational convex hull."""
    for name, b in (("A2", 4), ("C2", 5), ("G2", 7), ("B3", 5)):
        rs = build_named(name)
        sr = sommers_region(rs, b)
        verts = sommers.region_vertices(rs, b)
        n = rs.rank
        # closure membership of every vertex; each is a true vertex of the
        # inequality system (at least n active constraints)
        for v in verts:
            active = 0
            for root in sr.height_low_roots:
                val = sum(vi * pi for vi, pi in zip(v, root.pair_vec))
                assert val >= -sr.t_b
                active += val == -sr.t_b
            for root in sr.height_high_roots:
                val = sum(vi * pi for vi, pi in zip(v, root.pair_vec))
                assert val <= sr.t_b + 1
                active += val == sr.t_b + 1
            assert active >= n
        # barycentric coordinates of every enumerated point are >= 0
        mat = linalg.freeze([[Fraction(1)] * (n + 1)] + [[v[i] for v in verts] for i in range(n)])
        inv = fraction_inverse(mat)
        for q in enumerate_cores(rs, b).points:
            lam = linalg.matvec(inv, (Fraction(1),) + tuple(map(Fraction, q)))
            assert all(x >= 0 for x in lam) and sum(lam) == 1


# ---------------------------------------------------------------------------
# the shifted size statistic
# ---------------------------------------------------------------------------

def test_size_b_reference():
    a2 = build_named("A2")
    rho_norm = rootsys.norm2(a2, a2.rho_check_coords)
    target = tuple(Fraction(4 * c, 3) for c in a2.rho_check_coords)
    assert size_b(a2, 4, target) == -rho_norm / 6
    assert size_b(a2, 4, (0, 0)) == 5


def test_size_b_is_size_at_b1():
    import random
    rng = random.Random(2)
    for name in ("A2", "C3", "G2"):
        rs = build_named(name)
        for _ in range(30):
            q = tuple(rng.randrange(-4, 5) for _ in range(rs.rank))
            assert size_b(rs, 1, q) == affine.size_lattice_total(rs, q)


@pytest.mark.parametrize("name,b", [
    ("A2", 4), ("A2", 5), ("B2", 3), ("C2", 5), ("G2", 5), ("G2", 7), ("F4", 5),
])
def test_multiset_transfer(name, b):
    rs = build_named(name)
    cs = enumerate_cores(rs, b)
    alcove = enumerate_alcove(rs, b, "coroot")
    assert sorted(cs.sizes) == sorted(size_b(rs, b, q) for q in alcove)


# ---------------------------------------------------------------------------
# maximum size
# ---------------------------------------------------------------------------

def test_max_size_reference():
    a2 = build_named("A2")
    value, argmax = max_size(enumerate_cores(a2, 4))
    assert value == 5
    assert argmax == affine.compute_w_b(a2, 4).inverse()((0, 0))
    assert max_size(enumerate_cores(a2, 1))[0] == 0
    g2 = build_named("G2")
    assert max_size(enumerate_cores(g2, 5))[0] == 28


def test_max_size_matches_largest_simultaneous_core():
    # the largest (3,4)-core has (3^2-1)(4^2-1)/24 = 5 boxes
    value, _ = max_size(enumerate_cores(build_named("A2"), 4))
    assert value == Fraction((9 - 1) * (16 - 1), 24)


# ---------------------------------------------------------------------------
# self-conjugate simultaneous cores
# ---------------------------------------------------------------------------

def brute_self_conjugate_simultaneous(a, b):
    bound = (a * a - 1) * (b * b - 1) // 24
    out = []
    for parts in cores.self_conjugate_partitions_up_to(bound):
        if cores.is_core(parts, a) and cores.is_core(parts, b):
            out.append(parts)
    return sorted(out)


def test_simultaneous_selfconjugate_counts():
    rep = simultaneous_selfconjugate(2, 5)
    assert rep.count == 6
    assert sorted(c for _, c in rep.pairs) == brute_self_conjugate_simultaneous(4, 5)
    rep = simultaneous_selfconjugate(2, 1)
    assert [c for _, c in rep.pairs] == [()]
    rep = simultaneous_selfconjugate(2, 3)
    for _, core in rep.pairs:
        assert cores.first_hook_of_length(core, 4) is None
        assert cores.first_hook_of_length(core, 3) is None
    with pytest.raises(ValueError):
        simultaneous_selfconjugate(2, 2)


@pytest.mark.parametrize("name, b", [("A4", 11), ("C3", 11)])
def test_the_library_views_and_the_document_share_one_row_path(monkeypatch, name, b):
    """``rows()``, ``to_json_dict()`` and the ``document()`` rows each make
    one ``cores.abacus_block`` per row block and no ``cores.from_coroot``."""
    coreset = enumerate_cores(build_named(name), b)
    monkeypatch.setattr(sommers, "ALCOVE_BLOCK", 7)
    calls = {"abacus_block": 0, "from_coroot": 0}
    for fn in calls:
        real = getattr(cores, fn)

        def counted(a, levels, real=real, fn=fn):
            calls[fn] += 1
            return real(a, levels)
        monkeypatch.setattr(cores, fn, counted)
    views = {"rows": lambda: list(coreset.rows()), "to_json_dict": coreset.to_json_dict,
             "document": lambda: list(coreset.document()["rows"])}
    for view, read in views.items():
        calls.update(abacus_block=0, from_coroot=0)
        read()
        assert calls == {"abacus_block": -(-len(coreset) // 7), "from_coroot": 0}, view


def replace_partitions(monkeypatch, change):
    """Make ``cores.abacus_block`` give the partitions of ``change`` on its
    list of partition tuples."""
    abacus_block = cores.abacus_block
    monkeypatch.setattr(cores, "abacus_block",
                        lambda a, levels: cores.PartitionBlock.of(change(abacus_block(a, levels).partitions())))


@pytest.mark.parametrize("image, failure", [
    ((3, 1, 1), "is not a 5-core"),  # self-conjugate, with a 5-hook
    ((2,), "is not self-conjugate"),  # a (4, 5)-core
    ((4, 2, 1, 1), "has a hook of length 4 at (1, 2)"),  # a self-conjugate 5-core
])
def test_selfconjugate_certificate_names_the_point(monkeypatch, image, failure):
    """The b-abacus levels catch a non-b-core and a b-core that is not
    self-conjugate.  The 2n-abacus levels catch a self-conjugate b-core that
    is not a 2n-core, as they are not its point's model image; only then
    does the hook scan run, on that one partition, to name its 2n-hook."""
    replace_partitions(monkeypatch, lambda found: found[:2] + [image] + found[3:])
    point = enumerate_cores(build_named("C2"), 5).points[2]
    with pytest.raises(AssertionError) as info:
        simultaneous_selfconjugate(2, 5)
    assert str(info.value).startswith(f"image {image} of {point} {failure}")


def test_selfconjugate_certificate_catches_swapped_partitions(monkeypatch):
    """Two swapped partitions are each a self-conjugate (4, 5)-core, so only
    the 2n-abacus levels, read back against the model images, catch them."""
    def two_swapped(found):
        found[1], found[4] = found[4], found[1]
        return found
    coreset = enumerate_cores(build_named("C2"), 5)
    found = two_swapped(cores.abacus_block(4, coreset._levels()).partitions())
    for parts in found:
        assert cores.is_core(parts, 4) and cores.is_core(parts, 5) and cores.conjugate(parts) == parts
    replace_partitions(monkeypatch, two_swapped)
    with pytest.raises(AssertionError) as info:
        simultaneous_selfconjugate(2, 5)
    assert str(info.value).startswith(f"image {found[1]} of {coreset.points[1]} has 4-abacus levels ")


def test_a_passing_selfconjugate_certificate_scans_no_hook(monkeypatch):
    """One coroot_block per modulus, b and 2n, and no hook scan."""
    calls = []
    for name in ("first_hook_of_length", "coroot_block"):
        real = getattr(cores, name)
        monkeypatch.setattr(cores, name,
                            lambda parts, a, real=real, name=name: calls.append((name, a)) or real(parts, a))
    report = simultaneous_selfconjugate(3, 11)
    assert report.count == comb(3 + 5, 3)
    assert sorted(calls) == [("coroot_block", 6), ("coroot_block", 11)]


def test_facet_walk_checks_e7_b11(monkeypatch):
    """E7 at b = 11 (352 points) is checked too: a facet walk that loses a
    point makes enumerate_cores raise."""
    rs = build_named("E7")
    assert len(enumerate_cores(rs, 11)) == haiman_count(rs, 11) == 352
    sommers._region.cache_clear()
    scan = sommers._direct_scan
    monkeypatch.setattr(sommers, "_direct_scan", lambda sr: scan(sr)[:-1])
    with pytest.raises(AssertionError, match="direct inequality scan disagrees"):
        enumerate_cores(rs, 11)


@pytest.mark.parametrize("name, b", [("A4", 11), ("C3", 7), ("E6", 7), ("G2", 13)])
def test_facet_walk_reads_no_dilation_element(monkeypatch, name, b):
    """The direct route needs neither w_b nor the alcove points."""
    rs = build_named(name)
    points = enumerate_cores(rs, b).point_rows

    def refuse(*args):
        raise RuntimeError("the direct route read w_b or the alcove walk")
    monkeypatch.setattr(affine, "compute_w_b", refuse)
    monkeypatch.setattr(sommers, "iter_alcove_m", refuse)
    monkeypatch.setattr(sommers, "alcove_blocks", refuse)
    assert np.array_equal(sommers._direct_scan(sommers.sommers_region(rs, b)), points)


@pytest.mark.parametrize("name, b", [("A4", 11), ("C3", 7), ("E6", 7), ("F4", 13)])
def test_each_route_is_one_integral_solve(monkeypatch, name, b):
    """The alcove route maps the walk's blocks through w_b^{-1} adj(A) / f
    in one step, as the facet walk maps its own, and each sorts once."""
    rs = build_named(name)
    wb_inv = affine.compute_w_b(rs, b).inverse()
    oracle = np.array(sorted(wb_inv(p) for p in enumerate_alcove(rs, b)), dtype=np.int64)
    solve, calls = sommers._integral_solve, []
    monkeypatch.setattr(sommers, "_integral_solve", lambda *args: calls.append(args) or solve(*args))
    assert np.array_equal(enumerate_cores(rs, b).point_rows, oracle)
    assert len(calls) == 2


def counted_walk_rows(monkeypatch) -> list:
    """The length of each block that ``sommers._walk`` yields from now on."""
    walk, rows = sommers._walk, []

    def counted(*args):
        for block in walk(*args):
            rows.append(len(block))
            yield block
    monkeypatch.setattr(sommers, "_walk", counted)
    return rows


@pytest.mark.parametrize("name, b, per_point", [
    ("A4", 41, 2), ("B4", 9, 2), ("C3", 11, 2), ("D5", 11, 2), ("E6", 13, 2), ("E7", 19, 2),
    ("E8", 31, 2), ("D4", 11, 4), ("D6", 13, 4)])
def test_each_route_walks_one_row_per_point(monkeypatch, name, b, per_point):
    """Each route's walk keeps one congruence of its solve, so it emits one
    row per point where P/Q is cyclic (f rows before), and two in D4 and D6,
    whose P/Q = (Z/2)^2 no one coordinate's congruence separates."""
    rows = counted_walk_rows(monkeypatch)
    cs = enumerate_cores(build_named(name), b)
    assert sum(rows) == per_point * len(cs)


@pytest.mark.parametrize("name, b, per_point", [
    ("A4", 11, 1), ("B4", 9, 1), ("C3", 11, 1), ("D5", 11, 1), ("E6", 13, 1), ("E7", 11, 1),
    ("G2", 13, 1), ("D4", 11, 2), ("D6", 13, 2)])
def test_coroot_blocks_walk_one_row_per_point(monkeypatch, name, b, per_point):
    """``verify transfer`` reads the alcove's coroot points from one
    congruent solve: with its region made, the suite solves once, for
    ``enumerate_alcove``'s points, ``haiman_count`` of them, from a walk of
    one row per point (two in D4 and D6)."""
    rs = build_named(name)
    oracle = np.array(enumerate_alcove(rs, b), dtype=np.int64)
    enumerate_cores(rs, b)
    solve, solved = sommers._congruent_solve, []
    monkeypatch.setattr(sommers, "_congruent_solve", lambda *args: solved.append(solve(*args)) or solved[-1])
    rows = counted_walk_rows(monkeypatch)
    assert verify.check_transfer([(name, (b,))]) == []
    (points,) = solved
    assert np.array_equal(points, oracle) and len(points) == haiman_count(rs, b)
    assert sum(rows) == per_point * len(points)


def test_transfer_walks_one_row_per_coroot_point(monkeypatch):
    """With its regions made, ``verify transfer`` walks 931 rows over its
    default matrix: one per coroot point, 665 in all, and a second for each
    of the 266 of D4 (the alcove has 1,848 coweight rows)."""
    for t, bs in verify.DEFAULT_MATRIX:
        for b in bs:
            enumerate_cores(build_named(t), b)
    rows = counted_walk_rows(monkeypatch)
    assert verify.check_transfer() == []
    assert sum(rows) == 931


@pytest.mark.parametrize("name, b", [("A4", 11), ("E7", 11), ("D4", 7)])
def test_enumerate_cores_refuses_before_its_walks(monkeypatch, name, b):
    """Neither route passes through the row guard of ``alcove_blocks``, so
    the one refusal is the up-front predicted count: one point past the cap
    is refused before either walk starts."""
    rs = build_named(name)
    count = haiman_count(rs, b)

    def refuse(*args):
        raise RuntimeError("a walk started")
    monkeypatch.setattr(sommers, "_walk", refuse)
    with capped(count - 1), pytest.raises(
            FeasibilityError, match=f"^predicted count {count} for {name}, b={b} exceeds cap {count - 1}$"):
        enumerate_cores(rs, b)


def test_enumerate_cores_holds_few_copies_of_its_points():
    """The alcove route keeps no sorted intermediate array, and each route
    frees its kept blocks before it sorts: A4 at b = 41 (29,799 points)
    peaks below 4.75 times the bytes of the points."""
    rs = build_named("A4")
    enumerate_cores(rs, 41)
    sommers._region.cache_clear()
    tracemalloc.start()
    try:
        cs = enumerate_cores(rs, 41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.75 * cs.point_rows.nbytes


def test_json_report():
    doc = enumerate_cores(build_named("C2"), 5).to_json_dict()
    assert doc["count"] == 6 and doc["mean"] == "5" and doc["max"] == "15"
    assert len(doc["sizes"]) == 6
