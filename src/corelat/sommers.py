"""The b-dilation simplex region, its lattice points, and their sizes.

For b coprime to the Coxeter number h, write b = t_b*h + r_b with
0 < r_b < h.  The region is cut out by

    <x, alpha> >= -t_b      for all positive roots of height r_b, and
    <x, alpha> <= t_b + 1   for all positive roots of height h - r_b.

Its coroot-lattice points generalize simultaneous (a, b)-cores: in type
A_{a-1} they are exactly the (a, b)-cores under the abacus bijection.
A ``CoreSet`` holds its points in one form, the sorted int64 rows, and
maps them to runner levels in one ``models.level_step`` (the type-A ambient
tuples, or the type-C model images).  ``corelat cores`` writes its rows
from column blocks of ``ALCOVE_BLOCK`` points (``CoreSet.row_blocks``): the
int64 rows, the size texts and one ``cores.abacus_block`` of partitions
each, with no Python object per point.  The library views, ``CoreSet.rows()``
and ``CoreSet.to_json_dict()``, read the records of the same blocks, and
``simultaneous_selfconjugate`` makes one ``cores.abacus_block`` of all
points and reads it back on one ``cores.coroot_block`` per modulus, b and 2n.

``enumerate_cores`` computes the point set two independent ways — by
mapping the alcove walk's blocks through w_b^{-1} adj(A) / f, and by
walking the region in the slack coordinates of its own n + 1 inequalities
— and requires the two to agree.  One knapsack block walk (``_walk``)
serves both simplices: int64 blocks built one coordinate per level, with
no Python tuple per point, that keep the rows of one linear congruence,
its one bound asserted where it starts.  Each route is one checked step of
the int64 kernel ``linalg.AffineRows`` (``_integral_solve``) from a walk's
rows to sorted points, its walk held to the congruence of one coordinate
(``_congruent_solve``): one row per point where P/Q is cyclic, two in
D_{2k}, not the f coweight rows per point.  The package reads the alcove
through two entries only.  ``alcove_blocks`` streams every coweight
row, the walk at modulus 1: the weighted enumerator, ``verify haiman``
(with ``coroot_mask``, which marks the rows m whose adj(A) m / f is a
coroot point) and the tuple views ``enumerate_alcove`` and
``iter_alcove_m``, which have no package caller, read it.
``_congruent_solve`` gives sorted integral points through a map: both
region routes and ``verify transfer``, whose coroot points are the solve
of adj(A) over f.  The points' sizes are one per-row integer form
(``affine.size_numerators``), kept on the ``CoreSet`` as numerators over
2 h f.

Each region is made once per process: ``enumerate_cores`` refuses on its
predicted count first, on every call, and then reads the cache
``_region``, which runs both routes and their checks on a miss.  A cached
``CoreSet`` holds only its int64 arrays, and they are read-only.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import chain
from math import gcd, prod
from typing import Iterable, Iterator

import numpy as np

from . import affine, cores, linalg, models, rootsys
from .rootsys import CartanType, Root, RootSystemData

#: outside a ``capped`` block, refuse enumerations predicted to exceed this
DEFAULT_CAP = 10**6
_CAP = ContextVar("corelat_cap", default=DEFAULT_CAP)
#: rows per int64 block read from a walk: bounds the memory of a block
#: and, with the per-row bound, the int64 block sums; also the points per
#: block of ``CoreSet.row_blocks``
ALCOVE_BLOCK = 2**11


class FeasibilityError(ValueError):
    pass


@contextmanager
def capped(cap: int):
    """Run the enclosed block, in this thread only, under feasibility cap ``cap``."""
    token = _CAP.set(cap)
    try:
        yield
    finally:
        _CAP.reset(token)


@dataclass(frozen=True)
class SommersRegion:
    rs: RootSystemData
    b: int
    t_b: int
    r_b: int
    height_low_roots: tuple[Root, ...]
    height_high_roots: tuple[Root, ...]


def sommers_region(rs: RootSystemData, b: int) -> SommersRegion:
    rootsys.check_dilation(rs, b)
    h = rs.coxeter_number
    t_b, r_b = divmod(b, h)
    return SommersRegion(
        rs, b, t_b, r_b,
        tuple(rootsys.roots_of_height(rs, r_b)),
        tuple(rootsys.roots_of_height(rs, h - r_b)),
    )


def contains(sr: SommersRegion, q) -> bool:
    rs = sr.rs
    return all(rootsys.pairing(rs, q, r) >= -sr.t_b for r in sr.height_low_roots) and \
        all(rootsys.pairing(rs, q, r) <= sr.t_b + 1 for r in sr.height_high_roots)


def haiman_count(rs: RootSystemData, b: int) -> int:
    """|b-dilated alcove intersect coroot lattice| = prod(b + e_j) / |W|."""
    rootsys.check_dilation(rs, b)
    num = prod(b + e for e in rs.exponents)
    count, rem = divmod(num, rs.weyl_order)
    assert rem == 0, "count formula must be an integer"
    return count


def capped_haiman_count(rs: RootSystemData, b: int) -> int:
    """``haiman_count``, refused up front with FeasibilityError above the cap."""
    predicted, cap = haiman_count(rs, b), _CAP.get()
    if predicted > cap:
        raise FeasibilityError(
            f"predicted count {predicted} for {rs.cartan_type}, b={b} exceeds cap {cap}")
    return predicted


def alcove_vertices(rs: RootSystemData) -> list[tuple[Fraction, ...]]:
    """Vertices of the fundamental alcove: 0 and omegacheck_i / c_i."""
    n = rs.rank
    verts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        c = rs.highest_root_coeffs[i]
        verts.append(tuple(Fraction(x, 1) / c for x in rs.coweight_coords[i]))
    return verts


def _walk(marks, budget: int, congruence) -> Iterator[np.ndarray]:
    """The v >= 0 with sum marks_i v_i <= budget (a knapsack simplex) and
    sum w_i v_i = t mod M, for ``congruence`` = (w, t, M), in lexicographic
    order, one coordinate per level, in int64 blocks of at most
    ``ALCOVE_BLOCK`` rows cut anywhere.  Modulus 1 keeps every row.

    Every level but the last keeps its whole range, as does the last when
    every w_i and t are 0 mod M (at modulus 1, say).  Otherwise the last
    level reads each prefix's residue off its columns of nonzero weight and
    emits only the v = v_0 mod M / g, g = gcd(w_last, M), v_0 from the
    inverse of w_last / g mod M / g; a prefix with no solution emits nothing.  No value passes
    max(ALCOVE_BLOCK, M) * (budget + M)."""
    weights, target, modulus = congruence
    assert max(ALCOVE_BLOCK, modulus) * (budget + modulus) < linalg.INT64_LIMIT, "int64 bound of the walk"
    weights, target, last = [w % modulus for w in weights], target % modulus, len(marks) - 1
    prefix = [(k, w) for k, w in enumerate(weights[:last]) if w]
    every = not any(weights) and target == 0
    g = gcd(weights[last], modulus)
    stride = modulus // g
    inverse = pow(weights[last] // g, -1, stride)

    def expand(rows, rem, level):
        if level == len(marks):
            yield rows
            return
        c, top = marks[level], rem // marks[level]
        if level < last or every:
            least, step, counts = None, 1, top + 1
        else:
            # the least v with w_last v = t - (the prefix's residue) mod M, or top + 1 if none
            need = (target - sum(w * rows[:, k] for k, w in prefix)) % modulus
            least, step = np.where(need % g == 0, need // g * inverse % stride, top + 1), stride
            counts = (top - least) // step + 1
        ends = counts.cumsum()
        starts, total = ends - counts, int(ends[-1])
        # row i of the level, in prefix p's range, is v = least[p] + step (i - starts[p])
        offset = starts if least is None else step * starts - least
        for lo in range(0, total, ALCOVE_BLOCK):
            hi = min(lo + ALCOVE_BLOCK, total)
            first, stop = ends.searchsorted(lo, side="right"), starts.searchsorted(hi)
            parent = np.arange(first, stop).repeat(
                np.minimum(ends[first:stop], hi) - np.maximum(starts[first:stop], lo))
            v = np.arange(step * lo, step * hi, step) - offset[parent]
            rows_v = np.concatenate((rows[parent], v[:, None]), axis=1)
            yield from expand(rows_v, rem[parent] - c * v, level + 1)
    return expand(np.zeros((1, 0), dtype=np.int64), np.array([budget], dtype=np.int64), 0)


def alcove_blocks(rs: RootSystemData, b: int) -> Iterator[np.ndarray]:
    """Dominant m with m_i = <q, alpha_i> >= 0 and sum c_i m_i <= b, the
    coweight points of the b-dilated alcove (f per coroot point when
    gcd(b, h) = 1), as the ``_walk`` blocks at modulus 1.  FeasibilityError is raised
    before the block that passes cap * f rows, the cap read at the start."""
    cap, f, rows = _CAP.get(), rs.index_of_connection, 0
    for block in _walk(rs.highest_root_coeffs, b, ([0] * rs.rank, 0, 1)):
        if (rows := rows + len(block)) > cap * f:
            raise FeasibilityError(f"coweight points of the dilated alcove of {rs.cartan_type}, "
                                   f"b={b} exceed cap * f = {cap} * {f} = {cap * f}")
        yield block


def iter_alcove_m(rs: RootSystemData, b: int) -> Iterator[tuple[int, ...]]:
    """The rows of ``alcove_blocks`` as tuples of Python ints, with the same
    refusal: a view for tests and tracing; the package reads the blocks."""
    return chain.from_iterable(map(_tuples, alcove_blocks(rs, b)))


def _integral_solve(blocks: Iterable[np.ndarray], mat, shift, det: int) -> np.ndarray:
    """The integral points (M s + v) / det over the rows s of the int64
    ``blocks``, as the rows of an int64 array in lexicographic order: one
    checked kernel step ``linalg.AffineRows`` per block.  The kept blocks
    are freed by the one concatenate, so the sort holds two copies."""
    step = linalg.AffineRows(mat, shift)
    rows = np.concatenate([x[(x % det == 0).all(axis=1)] // det for x in map(step, blocks)])
    return rows[np.lexsort(rows.T[::-1])]


def _congruent_solve(marks, budget: int, mat, shift, det: int) -> np.ndarray:
    """``_integral_solve`` of the ``_walk`` of (marks, budget) through
    (mat, shift) over det, the walk held to one coordinate's congruence of
    the integral points (M s + shift) / det.

    Coordinate i of an integral point has sum_j mat[i][j] s_j = -shift[i]
    mod det.  The (i, j) with the least gcd(mat[i][j], det) gives the walk
    that congruence, column j walked last, so its last level steps by det
    over that gcd.  Ties go to the last column: where every gcd is det
    (f = 1) the walk keeps its own order.  The congruence is a pre-filter:
    ``_integral_solve`` keeps only the rows divisible by det."""
    i, j = min(((i, j) for j in reversed(range(len(marks))) for i in range(len(mat))),
               key=lambda ij: gcd(mat[ij[0]][ij[1]], det))
    order = [k for k in range(len(marks)) if k != j] + [j]
    mat = [[row[k] for k in order] for row in mat]
    blocks = _walk([marks[k] for k in order], budget, (mat[i], -shift[i], det))
    return _integral_solve(blocks, mat, shift, det)


def _tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The rows as tuples of Python ints, built from the columns: no list per row."""
    return list(zip(*rows.T.tolist()))


def coroot_mask(rs: RootSystemData, m: np.ndarray) -> np.ndarray:
    """Which rows m of an ``alcove_blocks`` block are coroot points: those
    with adj(A) m divisible by f, one ``linalg.AffineRows`` step.  A kept
    row is the point adj(A) m / f, and m its pairings with the simple roots."""
    adj = linalg.AffineRows(rs.cartan_adjugate, [0] * rs.rank)
    return (adj(m) % rs.index_of_connection == 0).all(axis=1)


def enumerate_alcove(rs: RootSystemData, b: int, lattice: str = "coroot") -> list[tuple]:
    """Lattice points of the b-dilated fundamental alcove, in simple-coroot
    coordinates, sorted lexicographically, for tests and tracing; no package
    path calls it.  The blocks of ``alcove_blocks`` go through adj(A) in one
    ``_integral_solve`` step: "coroot" points are the rows divisible by f, as
    tuples of ints; "coweight" points are every row, as Fractions over f."""
    if b < 0:
        raise ValueError("dilation factor must be nonnegative")
    if lattice not in ("coroot", "coweight"):
        raise ValueError(f"unknown lattice {lattice!r}")
    f = rs.index_of_connection
    rows = _tuples(_integral_solve(alcove_blocks(rs, b), rs.cartan_adjugate, [0] * rs.rank,
                                   f if lattice == "coroot" else 1))
    return rows if lattice == "coroot" else [tuple(Fraction(x, f) for x in row) for row in rows]


@dataclass(frozen=True, eq=False)
class CoreSet:
    """The coroot points of a b-region, sorted, with their sizes: the points
    are the rows of the int64 array ``point_rows``, and the size of row k is
    the integer ``numerators[k]`` over ``denominator`` = 2 h f, the per-row
    form of ``affine.scaled_size_b`` (``affine.size_numerators``).  The
    totals, the maximum and the JSON read these integers; ``sizes`` gives
    the same values as Fractions, and ``points`` the rows as tuples."""

    rs: RootSystemData
    b: int
    point_rows: np.ndarray  # int64, one row per point
    denominator: int
    numerators: np.ndarray  # int64, one per point

    def __len__(self):
        return len(self.point_rows)

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_tuples(self.point_rows))

    @property
    def sizes(self) -> tuple[Fraction, ...]:
        d = self.denominator
        return tuple(Fraction(s, d) for s in self.numerators.tolist())

    @property
    def total_size(self) -> Fraction:
        return Fraction(sum(self.numerators.tolist()), self.denominator)

    @property
    def mean_size(self) -> Fraction:
        return self.total_size / len(self)

    def rows(self) -> Iterator[tuple[tuple[int, ...], Fraction, tuple[int, ...] | None]]:
        """(coords, size, partition or None) per region point, in point order.

        The partition is given in the families whose core's box count is
        the size: the (n+1)-core of the abacus bijection in type A_n, and
        the self-conjugate 2n-core of the isometric model in type C_n.
        The rows are the records of ``row_blocks``, as in the document.
        """
        records = chain.from_iterable(map(_block_records, self.row_blocks()))
        return ((record["coords"], size, record.get("partition")) for record, size in zip(records, self.sizes))

    def _levels(self) -> np.ndarray | None:
        """The runner levels of all points, one ``models.level_step``, in
        types A and C: the type-A ambient tuples or the type-C model images."""
        t = self.rs.cartan_type
        return models.level_step(t)(self.point_rows) if t.family in ("A", "C") else None

    def _size_texts(self) -> list[str]:
        """str of each size as a Fraction, from one gcd over the numerators:
        made per call, so a cached region holds only its int64 arrays."""
        g = np.gcd(self.numerators, self.denominator)
        return [f"{p}/{q}" if q != 1 else str(p)
                for p, q in zip((self.numerators // g).tolist(), (self.denominator // g).tolist())]

    def row_blocks(self) -> Iterator[dict]:
        """The rows of the ``corelat cores`` document as column blocks of
        ``ALCOVE_BLOCK`` points each: the record keys ``"coords"``,
        ``"size"`` and in types A and C ``"partition"``, mapped to their
        columns, which ``cli.to_json`` writes as the records.

        A block's ``coords`` is its int64 slice of ``point_rows``, its
        ``size`` its slice of the size texts and its ``partition`` one
        ``cores.abacus_block`` on its slice of the runner levels: no Python
        object per point.  The levels (``_levels``) are checked whole by
        ``cores.check_levels`` here, before the first block, so no block
        raises once a writer has begun."""
        return self._row_blocks(self._size_texts())

    def _row_blocks(self, texts: list[str]) -> Iterator[dict]:
        """``row_blocks`` with its size column cut from ``texts``, the
        ``_size_texts`` that ``document`` has made for its summary."""
        k, levels = ALCOVE_BLOCK, self._levels()
        if levels is not None:
            cores.check_levels(levels.shape[1], levels)

        def block(lo: int) -> dict:
            columns = {"coords": self.point_rows[lo:lo + k], "size": texts[lo:lo + k]}
            if levels is not None:
                columns["partition"] = cores.abacus_block(levels.shape[1], levels[lo:lo + k])
            return columns
        return map(block, range(0, len(self), k))

    def document(self) -> dict:
        """The ``corelat cores`` document with its ``rows`` as ``row_blocks``,
        an iterator of column blocks that ``cli.to_json`` writes as one list
        of records.

        The summary sorts the integer numerators over 2 h f; ``max`` and
        ``argmax`` are ``max_size``'s closed form and w_b^{-1}(0).  Every
        check runs here, before a block is made: AssertionError unless the
        numerators' maximum and one maximizer agree with them."""
        value, argmax = max_size(self)
        texts = self._size_texts()
        return {
            "type": str(self.rs.cartan_type),
            "b": self.b,
            "count": len(self),
            "sizes": [texts[i] for i in np.argsort(self.numerators, kind="stable").tolist()],
            "mean": str(self.mean_size),
            "max": str(value),
            "argmax": list(argmax),
            "direct_checked": True,  # enumerate_cores checks every region or raises
            "rows": self._row_blocks(texts),
        }

    def to_json_dict(self) -> dict:
        """The ``corelat cores`` document with its ``row_blocks`` written
        out as one list of dicts."""
        doc = self.document()
        doc["rows"] = list(chain.from_iterable(map(_block_records, doc["rows"])))
        return doc


def _block_records(block: dict) -> Iterator[dict]:
    """The record of each row of one ``CoreSet.row_blocks`` block: its
    coords and partition as tuples and its size text."""
    columns = {"coords": _tuples(block["coords"]), "size": block["size"]}
    if "partition" in block:
        columns["partition"] = block["partition"].partitions()
    return (dict(zip(columns, row)) for row in zip(*columns.values()))


def region_vertices(rs: RootSystemData, b: int) -> list[tuple[Fraction, ...]]:
    """Vertices of the b-region: the inverse dilation element applied to b*(alcove vertices)."""
    wb_inv = affine.compute_w_b(rs, b).inverse()
    return [wb_inv(tuple(b * c for c in v)) for v in alcove_vertices(rs)]


def _direct_scan(sr: SommersRegion) -> np.ndarray:
    """The region's coroot points as sorted int64 rows, by a walk in the
    slack coordinates of its own inequalities; reads neither w_b nor the alcove.

    Facet j has slack s_j = <x, N_j> + o_j >= 0, with (N_j, o_j) = (pair_vec,
    t_b) for a height-r_b root and (-pair_vec, t_b + 1) for a height-(h - r_b)
    root.  The adjugate of these rows inverts s = F (x, 1); its last row over
    its gcd is the positive relation sum mu_j N_j = 0, so sum mu_j s_j =
    sum mu_j o_j is the budget.  Facet k with mu_k = 1 (the image of the
    affine wall) is dropped: the others walk like the alcove's marks, held
    to one coordinate's congruence (``_congruent_solve``)."""
    facets = ([r.pair_vec + (sr.t_b,) for r in sr.height_low_roots]
              + [tuple(-p for p in r.pair_vec) + (sr.t_b + 1,) for r in sr.height_high_roots])
    det, adj = linalg.adjugate(facets)
    *solve, relation = adj
    g = gcd(*relation)
    marks, budget = [c // g for c in relation], det // g
    assert min(marks) > 0 and 1 in marks, f"facet relation {marks} of {sr.rs.cartan_type}, b={sr.b}"
    k = marks.index(1)
    # x = solve (s_rest, s_k) / det with s_k = budget - sum_{j != k} mu_j s_j
    rest = [j for j in range(len(marks)) if j != k]
    mat = [[row[j] - row[k] * marks[j] for j in rest] for row in solve]
    shift = [row[k] * budget for row in solve]
    return _congruent_solve([marks[j] for j in rest], budget, mat, shift, det)


def enumerate_cores(rs: RootSystemData, b: int) -> CoreSet:
    """The coroot-lattice points of the b-region, with their sizes.

    Computed by mapping the alcove's walk through w_b^{-1} adj(A) / f (one
    ``_congruent_solve``; w_b^{-1} is unimodular, so a row is kept exactly
    when adj(A) m is a coroot point), and checked against the walk of the
    region's own inequalities (``_direct_scan``); a disagreement raises
    AssertionError.  Each walk is held to one coordinate's congruence, so
    it emits one row per point (two in D_{2k}) where the alcove has f
    coweight rows per point, and the up-front ``capped_haiman_count``
    bounds both: it is the one refusal.  The sizes are one step over the
    mapped points' int64 array (``affine.size_numerators``).

    The refusal comes first, on every call; after it, each (rs, b) is
    computed and checked once per process (``_region``), so a cached
    region is refused under a cap exactly as a fresh one would be.  Its
    ``point_rows`` and ``numerators`` are read-only.
    """
    capped_haiman_count(rs, b)
    return _region(rs, b)


@cache
def _region(rs: RootSystemData, b: int) -> CoreSet:
    """``enumerate_cores`` past its refusal: both routes and their checks,
    run once per (rs, b) in a process.  A failed check raises and caches
    nothing.  ``_direct_scan`` is read off the module at each call."""
    predicted = haiman_count(rs, b)
    wb_inv, f = affine.compute_w_b(rs, b).inverse(), rs.index_of_connection
    points = _congruent_solve(rs.highest_root_coeffs, b, linalg.matmul(wb_inv.m, rs.cartan_adjugate),
                              [f * x for x in wb_inv.v], f)
    if len(points) != predicted:
        raise AssertionError(
            f"{rs.cartan_type}, b={b}: found {len(points)} alcove points, expected {predicted}")
    scanned = _direct_scan(sommers_region(rs, b))
    if not np.array_equal(scanned, points):
        raise AssertionError(
            f"{rs.cartan_type}, b={b}: direct inequality scan disagrees with the "
            f"mapped alcove points ({len(scanned)} vs {len(points)})")
    denominator, numerators = affine.size_numerators(rs, points)
    points.flags.writeable = numerators.flags.writeable = False
    return CoreSet(rs, b, points, denominator, numerators)


def max_size(coreset: CoreSet):
    """(max size, argmax) over the lattice points of one b-region.

    The closed form (r g / h) * n (b^2 - 1)(h + 1) / 24 and the predicted
    argmax w_b^{-1}(0), the shift of w_b^{-1}, are verified against an
    exhaustive scan of the size numerators, including uniqueness of the
    maximizer.
    """
    rs, b = coreset.rs, coreset.b
    value = (Fraction(rs.ratio_r * rs.dual_coxeter_number, rs.coxeter_number)
             * Fraction(rs.rank * (b * b - 1) * (rs.coxeter_number + 1), 24))
    argmax = affine.compute_w_b(rs, b).inverse().v
    nums = coreset.numerators
    top = int(nums.max())
    scan_max = Fraction(top, coreset.denominator)
    winners = [tuple(row) for row in coreset.point_rows[nums == top].tolist()]
    if scan_max != value or winners != [argmax]:
        raise AssertionError(
            f"{rs.cartan_type}, b={b}: maximum-size scan disagrees with the closed form "
            f"(scan {scan_max} at {winners}, formula {value} at {argmax})")
    return value, argmax


@dataclass(frozen=True)
class SelfConjugateReport:
    n: int
    b: int
    pairs: list  # (coroot point, partition)

    @property
    def count(self) -> int:
        return len(self.pairs)


def simultaneous_selfconjugate(n: int, b: int) -> SelfConjugateReport:
    """Map the C_n b-region points to partitions and certify each is a
    self-conjugate (2n, b)-core of its own point, on one ``cores.coroot_block``
    per modulus.  At b, a row sums to zero exactly on a b-core, self-conjugate
    exactly when the row is antisymmetric (``cores.conjugate_coroot``).  At 2n,
    each row must be its partition's model image (``CoreSet._levels``), which
    sums to zero.  The partitions are one ``cores.abacus_block`` of those
    images.  Only a failing row gets a hook scan, for its message."""
    coreset = enumerate_cores(rootsys.build(CartanType("C", n)), b)
    made = coreset._levels()
    block = cores.abacus_block(2 * n, made)
    pairs = list(zip(coreset.points, block.partitions()))
    levels, images = cores.coroot_block(block, b), cores.coroot_block(block, 2 * n)
    sums, skew = levels.sum(axis=1), (levels != -levels[:, ::-1]).any(axis=1)
    bad = np.flatnonzero((sums != 0) | skew | (images != made).any(axis=1))
    if bad.size:
        q, parts = pairs[k := bad[0]]
        cell = None if sums[k] or skew[k] else cores.first_hook_of_length(parts, 2 * n)
        raise AssertionError(f"image {parts} of {q} " + (
            f"is not a {b}-core" if sums[k] else "is not self-conjugate" if skew[k]
            else f"has a hook of length {2 * n} at {cell}" if cell else
            f"has {2 * n}-abacus levels {tuple(images[k].tolist())}, not its point's {tuple(made[k].tolist())}"))
    return SelfConjugateReport(n, b, pairs)
