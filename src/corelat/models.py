"""Combinatorial models: embeddings of B/C/D/G2 coroot lattices into type A.

Each supported type embeds its coroot lattice into the coroot lattice of an
affine symmetric group (2n strands for B_n, C_n, D_n; 3 strands for G_2), so
cores model its lattice points:

* C_n  <-> self-conjugate 2n-cores (the embedding is an isometry);
* B_n, D_n <-> self-conjugate 2n-cores with an even number of diagonal
  boxes (the embedding doubles the form);
* G_2  <-> 3-cores (the lattices literally coincide).

A point's core, ``EmbeddedPoint.core()``, is a plain partition tuple, and
``model_size_vector`` reads the point's size_i off its content classes.
Both maps to runner levels, the model image and the type-A ambient tuple,
are linear, and each generator acts affinely, so ``level_step`` and
``generator_step`` move a whole int64 block of points in one checked step;
``size_numerators`` then turns it into cores with one ``cores.abacus_block``,
a ragged int64 block with no partition tuple, and counts their content
classes on that block.

Ambient coordinates: for B/C/D the source point with simple-coroot
coordinates k becomes the integer vector x (the classical e_i coordinates,
with the type-C sqrt(2) factor absorbed), and the image is the antisymmetric
2n-tuple (x_1, ..., x_n, -x_n, ..., -x_1).  ``embed`` takes simple-coroot
coordinates; ambient ones go through ``from_ambient``, which solves
``to_ambient`` exactly and so accepts only lattice points: an even
coordinate sum in B_n and D_n, a zero sum in G_2.  A model is stated once,
by its maps: a point's modulus is the width of its image, and G_2 is
singled out only where a model is defined (``to_ambient``, ``embed``,
``generator_dictionary`` and ``size_rows``).  The type-A maps are
differences and partial sums of the coordinates.

Generator dictionary (verified exhaustively by the equivariance tests; note
that the G_2 numbering follows this package's Cartan matrix, where alpha_1
is the short simple root):

* C_n: s_0 -> s_0^A, s_i -> s_i^A s_{2n-i}^A (1 <= i < n), s_n -> s_n^A
* B_n: as C_n except s_0 -> s_0^A s_1^A s_{2n-1}^A s_0^A
* D_n: as B_n for i <= n-1, and s_n -> s_n^A s_{n-1}^A s_{n+1}^A s_n^A
* G_2: s_0 -> s_0^A, s_1 -> partition conjugation, s_2 -> s_1^A
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import sub

import numpy as np

from . import cores, linalg
from .rootsys import CartanType

#: marker for the G_2 generator that acts by partition conjugation
CONJUGATE = "conjugate"

MODEL_FAMILIES = ("B", "C", "D", "G")


class UnsupportedModelError(ValueError):
    pass


def _require_model(t: CartanType) -> None:
    if t.family not in MODEL_FAMILIES:
        raise UnsupportedModelError(f"no type-A combinatorial model for {t}")


def to_ambient(t: CartanType, k) -> tuple[int, ...]:
    """Simple-coroot coordinates -> integer ambient coordinates."""
    _require_model(t)
    n = t.rank
    k = tuple(k)
    if len(k) != n:
        raise ValueError(f"expected {n} coordinates, got {len(k)}")
    if t.family == "G":
        k1, k2 = k
        return (k2 - k1, 2 * k1 - k2, -k1)
    x = list(_differences((0,) + k))
    if t.family == "B":
        x[n - 1] += k[n - 1]
    elif t.family == "D":
        x[n - 2] += k[n - 1]
    return tuple(x)


def from_ambient(t: CartanType, x) -> tuple[int, ...]:
    """Ambient coordinates -> simple-coroot coordinates: the k with
    ``to_ambient(t, k) == x``, by ``linalg.adjugate`` on the first n rows of
    its matrix (``_affine_step``; rows 0-1, det -1, in G_2).  ValueError
    unless the divisions are exact and k maps back to x: the lattice
    condition, an even coordinate sum in B_n and D_n, a zero sum in G_2
    (C_n takes every integer vector)."""
    mat, x = _affine_step(partial(to_ambient, t), t.rank).mat.tolist(), tuple(x)
    if len(x) != len(mat):
        raise ValueError(f"expected {len(mat)} ambient coordinates, got {len(x)}")
    det, adj = linalg.adjugate(mat[:t.rank])
    scaled = linalg.matvec(adj, x[:t.rank])
    k = tuple(v // det for v in scaled)
    if any(v % det for v in scaled) or to_ambient(t, k) != x:
        raise ValueError(f"{x} is not an ambient point of the {t} coroot lattice")
    return k


@dataclass(frozen=True)
class EmbeddedPoint:
    source_type: CartanType
    source_coords: tuple[int, ...]
    image: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return len(self.image)

    def core(self) -> cores.Partition:
        """The ``modulus``-core whose runner levels are the image."""
        return cores.from_coroot(self.modulus, self.image)


def embed(t: CartanType, k) -> EmbeddedPoint:
    """Embed a coroot-lattice point into the ambient type-A coroot lattice."""
    x = to_ambient(t, k)
    if t.family == "G":
        image = x
    else:
        image = x + tuple(-xi for xi in reversed(x))
    assert sum(image) == 0
    return EmbeddedPoint(t, tuple(k), image)


def generator_dictionary(t: CartanType) -> dict[int, tuple[int, ...] | str]:
    """Map each source generator to a type-A word (or CONJUGATE for G_2 s_1).

    Words are applied the same way as all other words: rightmost letter first.
    """
    _require_model(t)
    n = t.rank
    if t.family == "G":
        return {0: (0,), 1: CONJUGATE, 2: (1,)}
    two_n = 2 * n
    dictionary: dict[int, tuple[int, ...] | str] = {
        i: (i, two_n - i) for i in range(1, n)
    }
    dictionary[n] = (n,)
    if t.family == "C":
        dictionary[0] = (0,)
    else:
        dictionary[0] = (0, 1, two_n - 1, 0)
    if t.family == "D":
        dictionary[n] = (n, n - 1, n + 1, n)
    return dictionary


def act_type_a(letters, q) -> tuple[int, ...]:
    """Affine symmetric group action on sum-zero tuples, rightmost letter first.

    s_i swaps entries i, i+1 (1-indexed); s_0 maps (q_1, ..., q_a) to
    (q_a + 1, q_2, ..., q_{a-1}, q_1 - 1).
    """
    x = list(q)
    for i in reversed(tuple(letters)):
        if i == 0:
            x[0], x[-1] = x[-1] + 1, x[0] - 1
        else:
            x[i - 1], x[i] = x[i], x[i - 1]
    return tuple(x)


def act_model_generator(t: CartanType, i: int, image) -> tuple[int, ...]:
    """Apply the dictionary image of source generator i to an ambient point."""
    word = generator_dictionary(t)[i]
    if word == CONJUGATE:
        return cores.conjugate_coroot(image)
    return act_type_a(word, image)


def generator_step(t: CartanType, i: int) -> linalg.AffineRows:
    """``act_model_generator`` of generator i as the checked int64 step on the
    rows of an int64 array of model images, read off the action at 0 and the
    unit vectors: every dictionary word is affine, the G_2 conjugation linear."""
    return _affine_step(partial(act_model_generator, t, i), len(embed(t, (0,) * t.rank).image))


def model_size_vector(t: CartanType, k) -> tuple[Fraction, ...]:
    """(size_0, ..., size_n) of a lattice point read off the content classes
    of its core: ``size_numerators`` on a block of one point."""
    d, s = size_numerators(t, np.array([k], dtype=np.int64))
    return tuple(Fraction(x, d) for x in s[0, :-1].tolist())


def size_numerators(t: CartanType, x: np.ndarray) -> tuple[int, np.ndarray]:
    """(2, s) with s[k] = 2 (size_0, ..., size_n, size) of the row x_k of the
    int64 array x of simple-coroot coordinates, read off the content classes
    of its core: ``level_step``, ``cores.abacus_block`` (the cores as one
    ragged int64 block, no tuple per core), ``cores.content_counts`` and the
    ``size_rows`` with their sum appended, each on the whole block."""
    rows = size_rows(t)
    modulus = len(rows[0])
    counts = cores.content_counts(cores.abacus_block(modulus, level_step(t)(x)), modulus)
    rows.append([sum(col) for col in zip(*rows)])
    return 2, linalg.AffineRows(rows, [0] * len(rows))(counts)


def size_rows(t: CartanType) -> list[list[int]]:
    """The model's case formulas: row i holds the coefficients of 2 size_i in
    the box counts lambda_j of content j of the image core, and each size_i
    equals ``affine.size_i_lattice`` of the source system (checked exhaustively
    by the tests).  The total size is the sum of the entries (sum c_i = h and
    sum omega_i^vee = rho^vee); on the core it is the box count in type C,
    (boxes - lambda_0 + lambda_n)/2 in type B, (boxes - lambda_0 - lambda_n)/2
    in type D and boxes + 3 lambda_2 in G_2."""
    _require_model(t)
    n = t.rank
    if t.family == "G":
        return [[2, 0, 0], [0, 0, 6], [0, 2, 2]]
    two_n, d = 2 * n, 2 if t.family == "C" else 1
    rows = [[0] * two_n for _ in range(n + 1)]
    rows[0][0], rows[n][n] = d, 2
    for i in range(1, n):
        rows[i][i] = rows[i][two_n - i] = d
    if t.family != "C":
        rows[1][0] = -1
    if t.family == "D":
        rows[n - 1][n], rows[n][n] = -1, 1
    return rows


def level_step(t: CartanType) -> linalg.AffineRows:
    """The checked int64 step from rows of simple-coroot coordinates to the
    runner levels of their cores: the ambient sum-zero tuple in type A
    (``type_a_ambient_from_coords``), the model image (``embed``) in the
    model families."""
    image = type_a_ambient_from_coords if t.family == "A" else lambda k: embed(t, k).image
    return _affine_step(image, t.rank)


def _affine_step(f, dim: int) -> linalg.AffineRows:
    """The checked int64 step of an affine map f: shift f(0), columns f(e_i) - f(0)."""
    shift = f((0,) * dim)
    columns = [tuple(map(sub, f(tuple(int(i == j) for j in range(dim))), shift)) for i in range(dim)]
    return linalg.AffineRows(tuple(zip(*columns)), shift)


def self_conjugate_cores(n: int, bound: int) -> list[tuple[tuple[int, ...], cores.Partition]]:
    """All self-conjugate 2n-cores with at most ``bound`` boxes, paired with
    their preimages in the C_n coroot lattice (simple-coroot coordinates)."""
    t = CartanType("C", n)
    out = []
    for parts in cores.all_cores(2 * n, bound):
        if parts != cores.conjugate(parts):
            continue
        image = cores.to_coroot(parts, 2 * n)
        assert image == tuple(-y for y in reversed(image)), "self-conjugate core image must be antisymmetric"
        k = from_ambient(t, image[:n])
        assert embed(t, k).image == image
        out.append((k, parts))
    return out


def _differences(seq) -> tuple[int, ...]:
    """(seq[1] - seq[0], seq[2] - seq[1], ...): inverse to the partial sums."""
    return tuple(map(sub, seq[1:], seq))


def type_a_coords_from_ambient(q) -> tuple[int, ...]:
    """Type A_{a-1}: ambient sum-zero a-tuple -> simple-coroot coordinates."""
    if sum(q) != 0:
        raise ValueError(f"{q} must sum to zero")
    return tuple(accumulate(q[:-1]))


def type_a_ambient_from_coords(k) -> tuple[int, ...]:
    """Type A_{a-1}: simple-coroot coordinates -> ambient sum-zero a-tuple."""
    return _differences((0, *k, 0))
