import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from corelat import affine, cores, models, rootsys, verify
from corelat.models import (
    CONJUGATE,
    act_model_generator,
    embed,
    from_ambient,
    generator_dictionary,
    model_size_vector,
    self_conjugate_cores,
    to_ambient,
)
from corelat.rootsys import CartanType, build

TYPES = {
    "B2": 5, "B3": 3, "C2": 5, "C3": 3, "D4": 2, "G2": 5,
}


def lattice_points(t, radius, limit=None, seed=0):
    pts = list(itertools.product(range(-radius, radius + 1), repeat=t.rank))
    if limit is not None and len(pts) > limit:
        pts = random.Random(seed).sample(pts, limit)
    return pts


def durfee_side(parts) -> int:
    return sum(1 for i, p in enumerate(parts, start=1) if p >= i)


# ---------------------------------------------------------------------------
# embedding basics
# ---------------------------------------------------------------------------

def test_embed_reference_c2():
    t = CartanType("C", 2)
    emb = embed(t, (-1, 0))
    assert to_ambient(t, (-1, 0)) == (-1, 1)
    assert emb.image == (-1, 1, -1, 1)
    assert emb.core() == (4, 3, 2, 1)


def test_embed_zero():
    for name in TYPES:
        t = CartanType.parse(name)
        emb = embed(t, (0,) * t.rank)
        assert set(emb.image) == {0}
        assert emb.core() == ()


def test_embed_reference_b2():
    t = CartanType("B", 2)
    emb = embed(t, from_ambient(t, (1, 1)))
    assert emb.image == (1, 1, -1, -1)
    assert sum(emb.image) == 0


def test_embed_ambient_parity_errors():
    b2, d4, g2 = CartanType("B", 2), CartanType("D", 4), CartanType("G", 2)
    with pytest.raises(ValueError):
        embed(b2, from_ambient(b2, (1, 0)))
    with pytest.raises(ValueError):
        embed(d4, from_ambient(d4, (1, 0, 0, 0)))
    with pytest.raises(ValueError):
        embed(g2, from_ambient(g2, (1, 0, 1)))


def test_ambient_roundtrip():
    for name, radius in TYPES.items():
        t = CartanType.parse(name)
        for k in lattice_points(t, min(radius, 3), limit=200):
            assert from_ambient(t, to_ambient(t, k)) == k


@pytest.mark.parametrize("name", ["B2", "B3", "C2", "D4", "G2"])
def test_from_ambient_accepts_exactly_the_lattice(name):
    """Every ambient vector of [-2, 2]^d: outside the lattice (an odd sum in
    B and D, a nonzero sum in G2, never in C) it is refused, naming x; inside
    it round-trips through ``to_ambient``."""
    t = CartanType.parse(name)
    for x in itertools.product(range(-2, 3), repeat=3 if t.family == "G" else t.rank):
        if {"B": sum(x) % 2, "C": 0, "D": sum(x) % 2, "G": sum(x)}[t.family]:
            with pytest.raises(ValueError, match=re.escape(str(x))):
                from_ambient(t, x)
        else:
            assert to_ambient(t, from_ambient(t, x)) == x


@pytest.mark.parametrize("name, modulus", [("B2", 4), ("B3", 6), ("C2", 4), ("C3", 6), ("D4", 8), ("G2", 3)])
def test_the_modulus_is_2n_in_b_c_d_and_3_in_g2(name, modulus):
    t = CartanType.parse(name)
    assert embed(t, (1,) + (0,) * (t.rank - 1)).modulus == modulus


def test_image_antisymmetric_and_selfconjugate():
    for name in ("B2", "C2", "C3", "D4"):
        t = CartanType.parse(name)
        for k in lattice_points(t, 2, limit=100):
            emb = embed(t, k)
            assert emb.image == tuple(-y for y in reversed(emb.image))
            parts = emb.core()
            assert parts == cores.conjugate(parts)


# ---------------------------------------------------------------------------
# generator dictionaries
# ---------------------------------------------------------------------------

def test_dictionary_contents():
    assert generator_dictionary(CartanType("C", 2)) == {0: (0,), 1: (1, 3), 2: (2,)}
    b2 = generator_dictionary(CartanType("B", 2))
    assert b2[0] == (0, 1, 3, 0) and b2[2] == (2,)
    d4 = generator_dictionary(CartanType("D", 4))
    assert d4[1] == (1, 7) and d4[3] == (3, 5) and d4[4] == (4, 3, 5, 4)
    g2 = generator_dictionary(CartanType("G", 2))
    assert g2 == {0: (0,), 1: CONJUGATE, 2: (1,)}


@pytest.mark.parametrize("name", sorted(TYPES))
def test_equivariance(name):
    """iota(g(x)) equals the dictionary word acting on iota(x), for every
    generator g and a grid of lattice points; also through the core side."""
    t = CartanType.parse(name)
    rs = build(t)
    for k in lattice_points(t, TYPES[name], limit=250, seed=1):
        emb = embed(t, k)
        core = emb.core()
        for i in range(t.rank + 1):
            moved = embed(t, affine.apply(rs, (i,), k)).image
            assert moved == act_model_generator(t, i, emb.image)
            # core-side route: toggles (or conjugation) on the partition
            word = generator_dictionary(t)[i]
            if word == CONJUGATE:
                parts = cores.conjugate(core)
            else:
                parts = core
                for letter in reversed(word):
                    parts = cores.toggle_action(parts, emb.modulus, letter)
            assert cores.to_coroot(parts, emb.modulus) == moved


@pytest.mark.parametrize("name", sorted(TYPES))
def test_size_correspondence(name):
    t = CartanType.parse(name)
    rs = build(t)
    for k in lattice_points(t, TYPES[name], limit=250, seed=2):
        sizes = model_size_vector(t, k)
        for i in range(t.rank + 1):
            assert sizes[i] == affine.size_i_lattice(rs, k, i)
        assert sum(sizes) == affine.size_lattice_total(rs, k)


def test_size_reference_values():
    t = CartanType("C", 2)
    assert model_size_vector(t, (-1, 0))[1] == 6
    g2 = CartanType("G", 2)
    rs = build(g2)
    # every 3-core with <= 30 boxes, through the G2 model
    for parts in cores.all_cores(3, 30):
        k = from_ambient(g2, cores.to_coroot(parts, 3))
        sizes = model_size_vector(g2, k)
        for i in range(3):
            assert sizes[i] == affine.size_i_lattice(rs, k, i)
        lam = cores.content_counts(parts, 3)
        assert sum(sizes) == sum(parts) + 3 * lam[2]


@pytest.mark.parametrize("name", sorted(n for n in TYPES if n[0] in "BCD"))
def test_size_total_closed_forms(name):
    """The total size on the core: the box count in type C, and
    (boxes - lambda_0 + lambda_n)/2 in B, (boxes - lambda_0 - lambda_n)/2 in D."""
    t = CartanType.parse(name)
    n = t.rank
    for k in lattice_points(t, TYPES[name], limit=250, seed=4):
        emb = embed(t, k)
        parts = emb.core()
        boxes, lam = sum(parts), cores.content_counts(parts, emb.modulus)
        total = sum(model_size_vector(t, k))
        if t.family == "C":
            assert total == boxes
        elif t.family == "B":
            assert total == Fraction(boxes - lam[0] + lam[n], 2)
        else:
            assert total == Fraction(boxes - lam[0] - lam[n], 2)


def test_isometry_scaling():
    rng = random.Random(9)
    for name, factor in (("C2", 1), ("C3", 1), ("G2", 1), ("B2", 2), ("B3", 2), ("D4", 2)):
        t = CartanType.parse(name)
        rs = build(t)
        for _ in range(40):
            kx = tuple(rng.randrange(-4, 5) for _ in range(t.rank))
            ky = tuple(rng.randrange(-4, 5) for _ in range(t.rank))
            ax, ay = embed(t, kx).image, embed(t, ky).image
            dot = sum(u * v for u, v in zip(ax, ay))
            assert dot == factor * rootsys.inner(rs, kx, ky)


def test_durfee_parity_model():
    for name in ("B2", "B3", "D4"):
        t = CartanType.parse(name)
        for k in lattice_points(t, 2, limit=150, seed=3):
            amb = to_ambient(t, k)
            parts = embed(t, k).core()
            assert sum(abs(x) for x in amb) % 2 == 0
            assert durfee_side(parts) % 2 == 0


def test_even_durfee_cores_are_hit():
    """Every self-conjugate 2n-core with even diagonal and <= 40 boxes is the
    image of a B_n lattice point."""
    n = 2
    t = CartanType("B", n)
    images = set()
    for k in lattice_points(t, 6):
        parts = embed(t, k).core()
        if sum(parts) <= 40:
            images.add(parts)
    for parts in cores.all_cores(2 * n, 40):
        if parts == cores.conjugate(parts) and durfee_side(parts) % 2 == 0:
            assert parts in images


def test_self_conjugate_cores_listing():
    pairs = self_conjugate_cores(2, 0)
    assert pairs == [((0, 0), ())]
    pairs = self_conjugate_cores(2, 10)
    parts = [c for _, c in pairs]
    assert (4, 3, 2, 1) in parts
    assert all(p == cores.conjugate(p) for p in parts)
    for k, core in pairs:
        assert embed(CartanType("C", 2), k).core() == core


def test_unsupported_model_families():
    with pytest.raises(models.UnsupportedModelError):
        embed(CartanType("A", 3), (0, 0, 0))
    with pytest.raises(models.UnsupportedModelError):
        generator_dictionary(CartanType("F", 4))


# ---------------------------------------------------------------------------
# the models and ip_content suites find wrong inputs
# ---------------------------------------------------------------------------
# Each pin holds what the per-point loops of both suites returned under
# the same perturbation: the number of records and the first 16 hex digits
# of the SHA-256 of their JSON, so the block route returns the same records
# in the same order.

def digest(records):
    return len(records), hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]


def wrong_dictionary(monkeypatch, words):
    """``models.generator_dictionary`` with the word of (type, generator)
    replaced as ``words`` says."""
    real = models.generator_dictionary

    def perturbed(t):
        return {i: words.get((str(t), i), word) for i, word in real(t).items()}

    monkeypatch.setattr(models, "generator_dictionary", perturbed)


def wrong_d_size(monkeypatch):
    """2 size_{n-1} of type D without its -lambda_n: the generic B/D case."""
    real = models.size_rows

    def perturbed(t):
        rows = real(t)
        if t.family == "D":
            rows[t.rank - 1][t.rank] = 0
        return rows

    monkeypatch.setattr(models, "size_rows", perturbed)


def test_models_suite_finds_a_wrong_dictionary_letter(monkeypatch):
    wrong_dictionary(monkeypatch, {("B3", 2): (2, 3)})
    records = verify.check_models()
    assert digest(records) == (1326, "fb06eb90c268db15")
    assert records[0] == {"type": "B3", "point": [-5, -5, -5], "generator": 2}


def test_models_suite_finds_a_wrong_size_entry(monkeypatch):
    wrong_d_size(monkeypatch)
    records = verify.check_models()
    assert digest(records) == (1990, "136a07f285e6406c")
    assert records[:2] == [{"type": "D4", "point": [0, -3, -1, 0], "size_index": 3},
                           {"type": "D4", "point": [0, -3, -1, 0], "total": True}]


def test_models_suite_orders_the_records_of_a_point(monkeypatch):
    wrong_dictionary(monkeypatch, {("B3", 2): (2, 3), ("D4", 1): (1, 6)})
    wrong_d_size(monkeypatch)
    records = verify.check_models()
    assert digest(records) == (4308, "46e697a6b3169d4e")
    assert [r for r in records if r["point"] == [0, -3, -1, 0]] == [
        {"type": "D4", "point": [0, -3, -1, 0], "generator": 1},
        {"type": "D4", "point": [0, -3, -1, 0], "size_index": 3},
        {"type": "D4", "point": [0, -3, -1, 0], "total": True}]


def test_ip_content_suite_finds_a_wrong_letter(monkeypatch):
    # s_1 and s_2 trade places on the lattice side, in a fresh letter cache
    real = affine._reflections

    def swapped(rs):
        r = real(rs)
        return (r[0], r[2], r[1], *r[3:])

    monkeypatch.setattr(affine, "_reflections", swapped)
    monkeypatch.setattr(affine, "_letter_elements", lru_cache(affine._letter_elements.__wrapped__))
    records = verify.check_ip_content()
    assert digest(records) == (3512, "7df8b7e235c83098")
    assert records[:2] == [{"a": 3, "partition": [1], "letter": 1},
                           {"a": 3, "partition": [1], "letter": 2}]


def test_ip_content_suite_finds_a_wrong_content_class(monkeypatch):
    # contents read as (r - s) mod a, the mirror of the package's convention
    real = cores.content_counts
    monkeypatch.setattr(cores, "content_counts",
                        lambda parts, a: real(parts, a)[..., [-c % a for c in range(a)]])
    records = verify.check_ip_content()
    assert digest(records) == (1684, "fa8b52b1f8f65a93")
    assert records[:2] == [{"a": 3, "partition": [1, 1]}, {"a": 3, "partition": [2]}]
