"""Affine Weyl groups: words, elements, inversion sequences, size statistics.

Action conventions:

* All actions are left actions.  A word ``s_{i_1} s_{i_2} ... s_{i_l}``
  is the composition that applies ``s_{i_l}`` first (letters act in
  decreasing position order, i.e. the word is read right to left when
  acting on a point).
* Letter 0 is the affine reflection ``s_0 : x -> x - (<hr, x> - 1) hr_check``
  where ``hr`` is the highest root; letters 1..n are the finite simple
  reflections.
* The inversion sequence of a word ``a_1 ... a_l`` has j-th entry
  ``(a_1 ... a_{j-1})(alpha_{a_j})`` with ``alpha_0 = -hr + delta``; a word
  is reduced iff every entry is a positive affine root.
* A generator is the sparse integer map s_i = I - c p^T plus a shift.
  ``reduced_steps`` extends a block of reduced words, each by its own
  letter on the right, with u = m c alone, which gives both the
  inversion-sequence entry and the longer word's element: one checked
  int64 step (``linalg.ReflectionRows``) on rows of (m, v, q).
  ``reduced_step`` is its one-row view, and the word side folds it:
  ``inversion_sequence`` walks one word letter by letter from the
  identity, and ``word_size_totals`` sums its entries per letter.
  ``word_to_element`` folds a word's letters into one element's rows by
  products on the left, and ``left_step`` is that fold's one-letter view.
* ``size_i`` of a coset is computed from a reduced word of the *inverse*
  element: ``(2 / |alpha_i|^2) * sum of delta-coefficients at letter i``.
  On the lattice side ``size_vector_lattice`` gives every size_i of a
  point from one integer coroot norm.
* On the lattice side the total size and its shifted form ``size_b`` (size
  is ``size_b`` at b = 1) are one integer form, ``scaled_size_b``, over 2hf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, NamedTuple

import numpy as np

from . import linalg, rootsys
from .rootsys import RootSystemData


class AffineRoot(NamedTuple):
    """``root + k*delta`` with ``root`` as coefficients over the simple roots."""

    root: tuple[int, ...]
    k: int

    def is_positive(self) -> bool:
        if self.k != 0:
            return self.k > 0
        return any(c > 0 for c in self.root)

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(tuple(-c for c in self.root), -self.k)


class NotReducedError(ValueError):
    def __init__(self, position: int, hyperplane: AffineRoot):
        self.position = position
        self.hyperplane = hyperplane
        super().__init__(
            f"word is not reduced: letter at position {position} recrosses "
            f"the hyperplane of {hyperplane.root} + {hyperplane.k}*delta"
        )


class PointOnWallError(ValueError):
    def __init__(self, hyperplane: AffineRoot):
        self.hyperplane = hyperplane
        super().__init__(
            f"point lies on affine hyperplane {hyperplane.root} + {hyperplane.k}*delta"
        )


@dataclass(frozen=True)
class AffineWord:
    rs: RootSystemData
    letters: tuple[int, ...]

    def __post_init__(self):
        _letters(self.rs, self.letters)

    @classmethod
    def parse(cls, rs: RootSystemData, text: str) -> "AffineWord":
        return cls(rs, tuple(int(tok) for tok in text.split()))

    def __str__(self):
        return " ".join(str(i) for i in self.letters)


def _letters(rs: RootSystemData, word) -> tuple[int, ...]:
    """The letters of an AffineWord or a letter sequence, each checked to lie in 0..n."""
    letters = word.letters if isinstance(word, AffineWord) else tuple(word)
    for i in letters:
        if not 0 <= i <= rs.rank:
            raise ValueError(f"letter {i} out of range 0..{rs.rank}")
    return letters


@dataclass(frozen=True)
class AffineElement:
    """An affine Weyl group element as the affine map x -> m @ x + v.

    ``m`` acts on simple-coroot coordinates.  The semidirect decomposition
    w * t_q has ``w = m`` and ``q = m^-1 v``; the word steps carry q along,
    and m^-1 is formed in integers only when something reads it.
    """

    rs: RootSystemData
    m: tuple[tuple[int, ...], ...]
    v: tuple[int, ...]

    @cached_property
    def m_inv(self) -> tuple[tuple[int, ...], ...]:
        """m^-1 = G^-1 m^T G, as m preserves the coroot Gram G = S A, S =
        diag(``coroot_scales``): with G^-1 = adj(A) S^-1 / f, the transpose of
        (G m S^-1) adj(A)^T over f, by two checked int64 steps
        (``linalg.AffineRows``), every division exact.  adj(A) stays small at
        any rank, where adj(G) would not (det G = 2^n in C_n)."""
        rs, zero = self.rs, (0,) * self.rs.rank
        gram_m = linalg.AffineRows(tuple(zip(*self.m)), zero)(np.array(rs.gram_coroot, dtype=np.int64))
        moved, rem = np.divmod(gram_m, rs.coroot_scales)
        inv, rem_f = np.divmod(linalg.AffineRows(rs.cartan_adjugate, zero)(moved).T, rs.index_of_connection)
        assert not rem.any() and not rem_f.any(), f"{self.m} does not preserve the coroot Gram matrix"
        return linalg.freeze(inv.tolist())

    @cached_property
    def root_m(self) -> tuple[tuple[int, ...], ...]:
        """The finite part ``m`` acting on simple-root coordinates."""
        return _on_roots(self.rs, self.m)

    @cached_property
    def root_m_inv(self) -> tuple[tuple[int, ...], ...]:
        return _on_roots(self.rs, self.m_inv)

    def key(self):
        """Hashable identity that omits the root system (for dict grouping)."""
        return (self.m, self.v)

    def __call__(self, x):
        return linalg.vec_add(linalg.matvec(self.m, x), self.v)

    def compose(self, other: "AffineElement") -> "AffineElement":
        """self ∘ other (apply ``other`` first)."""
        return AffineElement(self.rs, linalg.matmul(self.m, other.m),
                             linalg.vec_add(linalg.matvec(self.m, other.v), self.v))

    def inverse(self) -> "AffineElement":
        """x -> m^-1 x - q, whose inverse is m and translation is -v."""
        return _known(AffineElement(self.rs, self.m_inv, tuple(-x for x in self.translation)),
                      m_inv=self.m, translation=tuple(-x for x in self.v))

    @cached_property
    def translation(self) -> tuple[int, ...]:
        """q in the semidirect decomposition self = w * t_q."""
        return linalg.matvec(self.m_inv, self.v)

    @cached_property
    def step(self) -> linalg.AffineRows:
        """x -> m x + v as the checked int64 step on the rows of an int64 array."""
        return linalg.AffineRows(self.m, self.v)

    def act_root(self, ar: AffineRoot) -> AffineRoot:
        """w~ . (alpha + k delta) = w(alpha) + (k - <alpha, q>) delta."""
        new_root = linalg.matvec(self.root_m, ar.root)
        shift = rootsys.pairing(self.rs, self.translation, ar.root)
        return AffineRoot(new_root, ar.k - shift)

    def is_identity(self) -> bool:
        return self.m == linalg.identity(self.rs.rank) and not any(self.v)


def _on_roots(rs: RootSystemData, mat) -> tuple[tuple[int, ...], ...]:
    """A finite map on simple-coroot coordinates, moved to simple-root
    coordinates: S mat S^-1, S = diag(2 / |alpha_i|^2) (``coroot_scales``), as
    alpha_i^vee = (2 / |alpha_i|^2) alpha_i.  The entries are integers for
    Weyl group elements, so the division is exact."""
    s = rs.coroot_scales
    return tuple(tuple(si * x // sj for x, sj in zip(row, s)) for row, si in zip(mat, s))


def _known(el: AffineElement, **values) -> AffineElement:
    """``el`` with the cached properties it is given (``m_inv``, ``translation``) already set."""
    vars(el).update(values)
    return el


def identity_element(rs: RootSystemData) -> AffineElement:
    return translation_element(rs, (0,) * rs.rank)


def translation_element(rs: RootSystemData, q) -> AffineElement:
    eye, q = linalg.identity(rs.rank), tuple(q)
    return _known(AffineElement(rs, eye, q), m_inv=eye, translation=q)


class _Reflection(NamedTuple):
    """A generator s_i as sparse rank-one data, each field a tuple of the
    (index, value) pairs of a vector's nonzero entries.

    On simple-coroot coordinates s_i is x -> x - (<p, x> - shift) c, and
    rp holds the simple-root pairings <c, alpha_k>, so the step moves the
    pairings of x by -(<p, x> - shift) rp.
    """

    c: tuple[tuple[int, int], ...]
    p: tuple[tuple[int, int], ...]
    rp: tuple[tuple[int, int], ...]
    shift: int


def _sparse(vec) -> tuple[tuple[int, int], ...]:
    return tuple((l, x) for l, x in enumerate(vec) if x)


@lru_cache(maxsize=None)
def _reflections(rs: RootSystemData) -> tuple[_Reflection, ...]:
    """s_0, s_1, ..., s_n as sparse reflection data.

    s_0 reflects in <x, hr> = 1: p = hr^T A (the highest root's pairing
    vector), c = hr_check, rp = A hr_check (alpha -> <alpha, hr_check>).
    s_i has p = row i of A, rp = column i of A and c = e_i.
    """
    n = rs.rank
    a = rs.cartan_matrix
    hrc = rs.highest_root_coroot_coords
    out = [_Reflection(
        _sparse(hrc),
        _sparse(rs.positive_roots[-1].pair_vec),
        _sparse(sum(a[j][i] * hrc[i] for i in range(n)) for j in range(n)),
        1,
    )]
    for i in range(n):
        e_i = ((i, 1),)
        out.append(_Reflection(e_i, _sparse(a[i]), _sparse(a[j][i] for j in range(n)), 0))
    return tuple(out)


def _reflect_point(x: list, r: _Reflection) -> None:
    """x <- s(x) in place: x - (<p, x> - shift) c, for int or Fraction coordinates."""
    t = sum(y * x[l] for l, y in r.p) - r.shift
    for l, y in r.c:
        x[l] -= t * y


def word_to_element(rs: RootSystemData, letters: Iterable[int]) -> AffineElement:
    """The element s_{a_1} s_{a_2} ... s_{a_l} spelled by the letters a_1 ... a_l:
    the identity's rows, left-multiplied in place by each letter from the
    right end (``_left_multiply``), made into one element at the end."""
    m, v = [list(row) for row in linalg.identity(rs.rank)], [0] * rs.rank
    for i in reversed(_letters(rs, letters)):
        _left_multiply(rs, i, m, v)
    return AffineElement(rs, linalg.freeze(m), tuple(v))


def left_step(rs: RootSystemData, i: int, el: AffineElement) -> AffineElement:
    """s_i el: the one-letter view of the fold of ``word_to_element``."""
    m, v = [list(row) for row in el.m], list(el.v)
    _left_multiply(rs, i, m, v)
    return AffineElement(rs, linalg.freeze(m), tuple(v))


def _left_multiply(rs: RootSystemData, i: int, m: list, v: list) -> None:
    """The rows m and shift v of an element, left-multiplied in place by
    s_i = I - c p^T with its shift: m - c (p^T m) changes only the rows in
    the support of c."""
    r = _reflections(rs)[i]
    w = [0] * rs.rank
    for l, x in r.p:
        w = [wk + x * mk for wk, mk in zip(w, m[l])]
    for l, y in r.c:
        m[l] = [mk - y * wk for mk, wk in zip(m[l], w)]
    _reflect_point(v, r)


@lru_cache(maxsize=None)
def _letter_elements(rs: RootSystemData) -> tuple[AffineElement, ...]:
    """The generators s_0, s_1, ..., s_n as affine elements: s_i times the identity."""
    return tuple(left_step(rs, i, identity_element(rs)) for i in range(rs.rank + 1))


def letter_element(rs: RootSystemData, i: int) -> AffineElement:
    return _letter_elements(rs)[i]


def apply(rs: RootSystemData, w, q):
    """Left action on a point in simple-coroot coordinates.

    ``w`` may be an AffineElement, an AffineWord, or a letter sequence;
    letters of a word act in decreasing position order (rightmost first).
    """
    if isinstance(w, AffineElement):
        return w(q)
    refl = _reflections(rs)
    x = list(q)
    for i in reversed(_letters(rs, w)):
        _reflect_point(x, refl[i])
    return tuple(x)


def affine_simple_root(rs: RootSystemData, i: int) -> AffineRoot:
    """alpha_i for i >= 1; alpha_0 = -highest_root + delta."""
    if i == 0:
        return AffineRoot(tuple(-c for c in rs.highest_root_coeffs), 1)
    return AffineRoot(tuple(int(l == i - 1) for l in range(rs.rank)), 0)


class StepRows(NamedTuple):
    """What ``reduced_steps`` gives for a block of rows: each row's inversion
    entry, as simple-root coefficients ``roots`` and delta part ``k``,
    whether that entry is positive, and the element prefix s_i as the int64
    rows (m, v, q).  Where the entry is positive that element is the longer
    word's; elsewhere it is shorter and only the entry is used."""

    roots: np.ndarray
    k: np.ndarray
    positive: np.ndarray
    m: np.ndarray
    v: np.ndarray
    q: np.ndarray


class _StepData(NamedTuple):
    """``_reflections`` as the int64 tables of ``reduced_steps``, indexed by letter."""

    kernel: linalg.ReflectionRows
    sign: np.ndarray  # -1 for letter 0, 1 for the others
    num: np.ndarray  # sign times (2 / |alpha_j|^2 for each j)
    den: np.ndarray  # 1 for letter 0, 2 / |alpha_i|^2 for letter i


@lru_cache(maxsize=None)
def _step_data(rs: RootSystemData) -> _StepData:
    n, refl, scales = rs.rank, _reflections(rs), rs.coroot_scales

    def dense(field):
        rows = np.zeros((n + 1, n), dtype=np.int64)
        for i, r in enumerate(refl):
            for l, x in getattr(r, field):
                rows[i, l] = x
        return rows

    sign = np.array([-1] + [1] * n, dtype=np.int64)
    return _StepData(linalg.ReflectionRows(dense("c"), dense("p"), [r.shift for r in refl], max(scales)),
                     sign, sign[:, None] * np.array(scales, dtype=np.int64),
                     np.array((1, *scales), dtype=np.int64))


def reduced_steps(rs: RootSystemData, m: np.ndarray, v: np.ndarray, q: np.ndarray,
                  letters: np.ndarray) -> StepRows:
    """The reduced step of every row of a block, each with its own letter:
    row r is the element x -> m[r] x + v[r] with translation q[r], which a
    reduced word spells, and letters[r] the letter that extends that word.

    With s_i = I - c p^T and u = m c, the entry is prefix(alpha_i): as
    alpha_i^vee = c, its root is S u / s_i for i >= 1 and -S u for i = 0
    (alpha_0 = -hr + delta, hr long), S = diag(2 / |alpha_j|^2); its delta
    part is -<p, q> for i >= 1 and 1 + <p, q> for i = 0.  The longer word
    is reduced iff the entry is positive.  The element prefix s_i and its
    translation come from the same u, in one checked kernel step
    (``linalg.ReflectionRows``) over the block, whose bound counts in the
    entry's factor S."""
    data = _step_data(rs)
    u, dot, m, v, q = data.kernel(m, v, q, letters)
    roots = u * data.num[letters] // data.den[letters][:, None]
    k = data.kernel.shift[letters] - data.sign[letters] * dot
    positive = (k > 0) | ((k == 0) & (roots > 0).any(axis=1))
    return StepRows(roots, k, positive, m, v, q)


def identity_rows(rs: RootSystemData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, v, q) rows of one identity element, for ``reduced_steps``."""
    zeros = np.zeros((1, rs.rank), dtype=np.int64)
    return np.eye(rs.rank, dtype=np.int64)[None], zeros, zeros


def reduced_step(rs: RootSystemData, prefix: AffineElement, i: int):
    """(entry, element) for letter i after a reduced word spelling ``prefix``:
    the entry is prefix(alpha_i), the next inversion-sequence entry, and the
    element is prefix s_i when the entry is positive (the longer word is
    reduced) and None otherwise.  A one-row view of ``reduced_steps``."""
    _letters(rs, (i,))
    step = reduced_steps(rs, np.array([prefix.m], dtype=np.int64), np.array([prefix.v], dtype=np.int64),
                         np.array([prefix.translation], dtype=np.int64), np.array([i]))
    entry = AffineRoot(tuple(step.roots[0].tolist()), int(step.k[0]))
    if not step.positive[0]:
        return entry, None
    m = tuple(map(tuple, step.m[0].tolist()))
    return entry, _known(AffineElement(rs, m, tuple(step.v[0].tolist())), translation=tuple(step.q[0].tolist()))


def inversion_sequence(rs: RootSystemData, word) -> list[AffineRoot]:
    """Inversion sequence of a reduced word; raises NotReducedError otherwise.
    ``reduced_step`` folded over the letters from the identity."""
    prefix, entries = identity_element(rs), []
    for j, i in enumerate(_letters(rs, word)):
        entry, prefix = reduced_step(rs, prefix, i)
        if prefix is None:
            raise NotReducedError(j, -entry)
        entries.append(entry)
    return entries


def is_reduced(rs: RootSystemData, word) -> bool:
    try:
        inversion_sequence(rs, word)
    except NotReducedError:
        return False
    return True


def scale_letter_totals(rs: RootSystemData, totals) -> tuple[int, ...]:
    """(size_0, ..., size_n) from the per-letter sums of the delta-coefficients
    of an inversion sequence: letter i's sum times 2 / |alpha_i|^2, which is
    1 for alpha_0 and the long simple roots and r for the short ones."""
    return (totals[0],) + tuple(s * t for s, t in zip(rs.coroot_scales, totals[1:]))


def word_size_totals(rs: RootSystemData, word) -> tuple[int, ...]:
    """(size_0, ..., size_n) of the element whose inverse the word spells, as
    integers: the delta-coefficients of its inversion sequence summed per
    letter, then scaled by ``scale_letter_totals``."""
    letters = _letters(rs, word)
    totals = [0] * (rs.rank + 1)
    for i, entry in zip(letters, inversion_sequence(rs, letters)):
        totals[i] += entry.k
    return scale_letter_totals(rs, totals)


def size_vector_lattice(rs: RootSystemData, q) -> tuple[Fraction, ...]:
    """(size_0(q), ..., size_n(q)) with size_i(q) = <(c_i / 2) q - omegacheck_i, q>,
    c_0 = 1 and omegacheck_0 = 0: the reference of ``size_vector_numerators``."""
    norm, mat = _size_vector_form(rs)
    return tuple(Fraction(x, 2) for x in linalg.matvec(mat, (norm(q), *q)))


def size_vector_numerators(rs: RootSystemData, x: np.ndarray) -> tuple[int, np.ndarray]:
    """(2, s) with size_i(x_k) = s[k, i] / 2 for each row x_k of the int64 array
    x of coroot points: ``_size_vector_form`` as two checked steps."""
    norm, mat = _size_vector_form(rs)
    return 2, linalg.AffineRows(mat, (0,) * len(mat))(np.column_stack([norm.step(x), x]))


@lru_cache(maxsize=None)
def _size_vector_form(rs: RootSystemData) -> tuple["SizeForm", tuple[tuple[int, ...], ...]]:
    """(|q|^2, M) with 2 size(q) = M (|q|^2, q): the norm of the integer coroot
    Gram, and M with rows e_0 and c_i e_0 - 2 s_i e_i, <omegacheck_i, q> = s_i q_i."""
    n = rs.rank
    mat = ((1,) + (0,) * n,) + tuple(
        (c,) + tuple(-2 * s * (j == i) for j in range(n))
        for i, (c, s) in enumerate(zip(rs.highest_root_coeffs, rs.coroot_scales)))
    return SizeForm(rs.gram_coroot, (0,) * n, 0), mat


def size_i_lattice(rs: RootSystemData, q, i: int) -> Fraction:
    """size_i(q), entry i of ``size_vector_lattice``."""
    return size_vector_lattice(rs, q)[i]


def size_lattice_total(rs: RootSystemData, q) -> Fraction:
    """size(q) = <(h/2) q - rhocheck, q>, which is ``size_b`` at b = 1."""
    return size_b(rs, 1, q)


@dataclass(frozen=True)
class SizeForm:
    """An integer form s(m) = m^T Q m - L^T m + c (``scaled_size_b``, the norm
    of ``size_vector_lattice``).  Called on a tuple of Python ints it is the
    reference; ``step`` is the checked int64 kernel step
    ``linalg.QuadraticRows`` of the same coefficients, for int64 rows."""

    quad: tuple[tuple[int, ...], ...]
    lin: tuple[int, ...]
    const: int

    def __call__(self, m) -> int:
        rows, coeffs = self.quad, self.lin
        nz = [(i, x) for i, (x, _) in enumerate(zip(m, rows, strict=True)) if x]
        quad = lin = 0
        for i, x in nz:
            row = rows[i]
            quad += x * sum([row[j] * y for j, y in nz])
            lin += coeffs[i] * x
        return quad - lin + self.const

    @cached_property
    def step(self) -> linalg.QuadraticRows:
        return linalg.QuadraticRows(self.quad, self.lin, self.const)


@lru_cache(maxsize=None)
def scaled_size_b(rs: RootSystemData, b: int) -> tuple[int, SizeForm]:
    """(d, s) with size_b(x) = s(A x) / d, d = 2 h f, and s the integer form
    s(m) = h^2 m^T G m - 2 h b (G 1)^T m + (b^2 - 1) 1^T G 1 of the simple-root
    pairings m, where G = ``rootsys.coweight_gram`` and 1 is rhocheck in
    coweight coordinates."""
    h = rs.coxeter_number
    g = rootsys.coweight_gram(rs)
    g1 = [sum(row) for row in g]
    form = SizeForm(tuple(tuple(h * h * x for x in row) for row in g),
                    tuple(2 * h * b * x for x in g1), (b * b - 1) * sum(g1))
    return 2 * h * rs.index_of_connection, form


def size_numerators(rs: RootSystemData, x: np.ndarray) -> tuple[int, np.ndarray]:
    """(d, s) with size(x_k) = s_k / d for each row x_k of the int64 array x
    of coroot points: the pairings m = x A^T (``linalg.AffineRows``), then
    the per-row form ``SizeForm.step`` of ``scaled_size_b`` at b = 1."""
    d, form = scaled_size_b(rs, 1)
    return d, form.step(linalg.AffineRows(rs.cartan_matrix, [0] * rs.rank)(x))


def size_b(rs: RootSystemData, b: int, x) -> Fraction:
    """(h/2) (|x - b rho/h|^2 - |rho/h|^2), the dilated-alcove avatar of size,
    for integer or rational x: the form ``scaled_size_b`` over its d."""
    d, s = scaled_size_b(rs, b)
    return Fraction(s(linalg.matvec(rs.cartan_matrix, x)), d)


# ---------------------------------------------------------------------------
# Alcove reduction and the dilation element w_b
# ---------------------------------------------------------------------------

def _scaled(x) -> tuple[int, list[int]]:
    """(L, L x) for the least common denominator L of the rational vector x."""
    x = [Fraction(c) for c in x]
    scale = lcm(*(c.denominator for c in x))
    return scale, [c.numerator * (scale // c.denominator) for c in x]


def alcove_distance(rs: RootSystemData, x) -> int:
    """Number of affine hyperplanes <., alpha> = k separating x from the fundamental alcove.

    With p = <x, alpha> off the walls, they are k = 1, ..., floor(p) for
    p > 0 and k = 0, -1, ..., ceil(p) for p < 0.  This is the length of the
    element ``alcove_reduce`` returns; its reflection walk, from x - floor(x),
    takes this distance of that point.  For b rhocheck / h it is the sum
    over alpha > 0 of floor(b ht(alpha) / h).
    """
    scale, pt = _scaled(x)
    total = 0
    for root in rs.positive_roots:
        p = sum(k * c for k, c in zip(pt, root.pair_vec) if k)
        total += p // scale if p > 0 else -p // scale + 1
    return total


def _violated_wall(rs: RootSystemData, vals, scale: int) -> tuple[int, int] | None:
    """Lowest-index violated wall (0 = the affine wall) of the fundamental alcove.

    ``vals`` are the scaled pairings scale * <x, alpha_j>.  Returns the
    letter and t = scale * (<x, p> - shift) of its reflection, or None when
    x is inside; raises PointOnWallError when x lies on a bounding wall.
    """
    hr = rs.highest_root_coeffs
    hr_val = sum(c * v for c, v in zip(hr, vals))
    if hr_val == scale:
        raise PointOnWallError(AffineRoot(tuple(-c for c in hr), 1))
    if hr_val > scale:
        return 0, hr_val - scale
    for j, v in enumerate(vals):
        if v == 0:
            raise PointOnWallError(affine_simple_root(rs, j + 1))
        if v < 0:
            return j + 1, v
    return None


def _to_dominant(rs: RootSystemData, vals: list) -> list[int]:
    """Letters of the finite simple reflections that take a vector with
    simple-root pairings ``vals`` into the dominant chamber, in the order
    applied (always the lowest-index negative pairing); updates ``vals``
    along the sparse pairings ``rp`` of each reflection."""
    refl = _reflections(rs)
    applied = []
    while (j := next((j for j, v in enumerate(vals) if v < 0), None)) is not None:
        t = vals[j]
        for k, y in refl[j + 1].rp:
            vals[k] -= t * y
        applied.append(j + 1)
    return applied


def dominant_rows(rs: RootSystemData, v: np.ndarray) -> np.ndarray:
    """The simple-root pairings of the dominant W-conjugate of each row's
    vector, from the int64 rows ``v`` of its pairings: ``_to_dominant`` in
    sweeps over the block.  A sweep takes each row with a negative entry,
    at its lowest-index one j, to v - v_j A[:, j].

    Each sweep makes one more positive root pair positively with every row
    it moves, so the sweeps end within |Phi+| passes.  Every entry a sweep
    forms is a pairing with a root, within (h - 1) max|v|, and an update
    forms it from a product with an entry of A, so every value is within
    (h - 1) max|v| (1 + max|A|); that bound is asserted once, up front."""
    a = np.array(rs.cartan_matrix, dtype=np.int64)
    assert (rs.coxeter_number - 1) * linalg.peak(v) * (1 + linalg.peak(a)) < linalg.INT64_LIMIT, \
        "int64 bound of the dominant sweep"
    v, passes = v.copy(), len(rs.positive_roots)
    for _ in range(passes):
        rows = np.flatnonzero((v < 0).any(axis=1))
        if not len(rows):
            break
        j = (v[rows] < 0).argmax(axis=1)
        v[rows] -= v[rows, j][:, None] * a[:, j].T
    assert (v >= 0).all(), f"the dominant sweep in {rs.cartan_type} took more than {passes} passes"
    return v


def alcove_reduce(rs: RootSystemData, x):
    """Map x into the open fundamental alcove.

    Returns (u, y) with y = u(x) strictly inside the alcove.  As
    W_aff = W ⋉ Q^vee, the coroot floor(x) (the floors of x's simple-coroot
    coordinates) is taken out first, and u is the translation by -floor(x)
    followed by the applied simple affine reflections.  The walk starts in
    the unit box: at each step the lowest-index violated wall is reflected
    (0 = the affine wall), and each step crosses one separating hyperplane,
    so it takes exactly ``alcove_distance`` of x - floor(x) steps, at most
    |Phi+| + the sum over alpha > 0 and i of |<alpha_i^vee, alpha>|,
    however far x lies from the alcove.

    The point is kept as the integer vector L x, and a reflection updates
    its simple-root pairings along one sparse column of A (A hr_check for
    s_0).  The same update without the affine shift moves the pairings of
    w(rhocheck), w the finite part of u.  As rhocheck is regular, w is then
    spelled by the reflections that bring w(rhocheck) back to the dominant
    chamber, and u = t_v w with v = y - w(x).
    """
    scale, start = _scaled(x)
    pt = [k % scale for k in start]
    vals = [sum(c * k for c, k in zip(row, pt)) for row in rs.cartan_matrix]
    rho_vals = [1] * rs.rank
    hr = rs.highest_root_coeffs
    refl = _reflections(rs)
    steps = alcove_distance(rs, [Fraction(k, scale) for k in pt])
    taken = 0
    while (wall := _violated_wall(rs, vals, scale)) is not None and taken < steps:
        letter, t = wall
        t_rho = rho_vals[letter - 1] if letter else sum(c * v for c, v in zip(hr, rho_vals))
        r = refl[letter]
        for l, y in r.c:
            pt[l] -= t * y
        for k, y in r.rp:
            vals[k] -= t * y
            rho_vals[k] -= t_rho * y
        taken += 1
    if wall is not None or taken != steps:
        raise AssertionError(
            f"alcove reduction in {rs.cartan_type} took {taken} reflections"
            f"{' without reaching the alcove' if wall else ''}, predicted {steps}")
    w = word_to_element(rs, _to_dominant(rs, rho_vals))
    scaled_v = [k - sum(c * k0 for c, k0 in zip(row, start)) for k, row in zip(pt, w.m)]
    if any(k % scale for k in scaled_v):
        raise AssertionError(f"alcove reduction in {rs.cartan_type}: y - w(x) is not a coroot")
    u = replace(w, v=tuple(k // scale for k in scaled_v))
    return u, tuple(Fraction(k, scale) for k in pt)


@lru_cache(maxsize=None)
def compute_w_b(rs: RootSystemData, b: int) -> AffineElement:
    """The unique element with w_b(rhocheck / h) = b rhocheck / h.

    It maps the b-th simplex region onto the b-fold dilated alcove; computed
    as the inverse of the alcove reduction applied to b rhocheck / h, whose
    walk starts from b rhocheck / h - floor(b rhocheck / h), so its cost
    does not grow with b (the element's length, ``alcove_distance``, does).
    """
    rootsys.check_dilation(rs, b)
    h = rs.coxeter_number
    target = tuple(Fraction(b) * c / h for c in rs.rho_check_coords)
    u, y = alcove_reduce(rs, target)
    expected = tuple(c / h for c in rs.rho_check_coords)
    if y != expected:
        raise AssertionError(f"alcove reduction of b*rho/h missed rho/h for {rs.cartan_type}, b={b}")
    return u.inverse()
