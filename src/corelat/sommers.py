"""The b-dilation simplex region, its lattice points, and their sizes.

For b coprime to the Coxeter number h, write b = t_b*h + r_b with
0 < r_b < h.  The region is cut out by

    <x, alpha> >= -t_b      for all positive roots of height r_b, and
    <x, alpha> <= t_b + 1   for all positive roots of height h - r_b.

Its coroot-lattice points generalize simultaneous (a, b)-cores: in type
A_{a-1} they are exactly the (a, b)-cores under the abacus bijection.
Their cores are plain partition tuples: ``CoreSet.rows()`` builds them with
``cores.from_coroot`` in type A and with the model's ``EmbeddedPoint.core()``
in type C, which ``simultaneous_selfconjugate`` also uses.

``enumerate_cores`` computes the point set two independent ways — by
mapping the dilated-alcove points through the inverse dilation element,
and by scanning the integer bounding box of the region's vertices — and
requires the two to agree.  The per-point arithmetic of both routes (the
alcove's coroot mask, the map through w_b^-1 and the box scan) runs on
numpy int64 arrays, each product under an asserted bound that keeps it
exact.  The size statistics themselves (``size_lattice_total`` per region
point, and the shifted ``size_b``) live in ``affine``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, islice
from math import ceil, floor, prod
from typing import Iterator

import numpy as np

from . import affine, cores, models, rootsys
from .rootsys import CartanType, Root, RootSystemData

#: outside a ``capped`` block, refuse enumerations predicted to exceed this
DEFAULT_CAP = 10**6
_CAP = ContextVar("corelat_cap", default=DEFAULT_CAP)
#: skip the direct bounding-box scan when its box holds more candidate points
DEFAULT_BOX_CAP = 3 * 10**7
#: rows per int64 block read from the alcove walk: bounds the memory of a
#: block and, with the per-row bound, the int64 block sums
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


def _extend(walk, c: int):
    """Each (prefix, budget) of ``walk`` followed by every next coordinate v
    with c * v <= budget, in increasing v, with the budget left over."""
    return ((p + (v,), r - c * v) for p, r in walk for v in range(r // c + 1))


def iter_alcove_m(rs: RootSystemData, b: int) -> Iterator[tuple[int, ...]]:
    """Dominant tuples m with m_i = <q, alpha_i> >= 0 and sum c_i m_i <= b,
    in lexicographic order.

    These index the coweight-lattice points of the b-dilated alcove, f per
    coroot point when gcd(b, h) = 1.  FeasibilityError is raised on
    reaching a tuple past cap * f, the cap read when the walk starts.
    """
    *prefix_marks, last = rs.highest_root_coeffs
    walk = [((), b)]
    for c in prefix_marks:
        walk = _extend(walk, c)
    tuples = (p + (v,) for p, r in walk for v in range(r // last + 1))
    cap, f = _CAP.get(), rs.index_of_connection
    yield from islice(tuples, cap * f)
    if next(tuples, None) is not None:
        raise FeasibilityError(f"coweight points of the dilated alcove of {rs.cartan_type}, b={b} "
                               f"exceed cap * f = {cap} * {f} = {cap * f}")


def alcove_blocks(rs: RootSystemData, b: int) -> Iterator[np.ndarray]:
    """The ``iter_alcove_m`` tuples, in order, as int64 arrays of at most
    ``ALCOVE_BLOCK`` rows each; a refusal of the walk passes through."""
    walk = iter_alcove_m(rs, b)
    while (block := np.fromiter(chain.from_iterable(islice(walk, ALCOVE_BLOCK)),
                                dtype=np.int64)).size:
        yield block.reshape(-1, rs.rank)


def _sorted_tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a 2-d int64 array as tuples of Python ints, sorted lexicographically."""
    return list(map(tuple, rows[np.lexsort(rows.T[::-1])].tolist()))


def enumerate_alcove(rs: RootSystemData, b: int, lattice: str = "coroot") -> list[tuple]:
    """Lattice points of the b-dilated fundamental alcove, in simple-coroot
    coordinates, sorted lexicographically.

    ``lattice`` is "coroot" or "coweight".  Coweight points may have
    rational coordinates; coroot points are the subset with integer ones,
    recognized via the adjugate of the Cartan matrix.  The tuples m of
    ``iter_alcove_m`` go through the adjugate block by block
    (``alcove_blocks``) as int64 products, exact under the asserted bound
    n * max|adj| * b < 2**62 (sum m_i <= b), and one mask per block keeps
    the rows divisible by f.
    """
    if b < 0:
        raise ValueError("dilation factor must be nonnegative")
    if lattice not in ("coroot", "coweight"):
        raise ValueError(f"unknown lattice {lattice!r}")
    n = rs.rank
    adj = np.array(rs.cartan_adjugate, dtype=np.int64)
    det = rs.index_of_connection
    assert n * int(np.abs(adj).max()) * b < 2**62, "int64 bound of the alcove product"
    kept = []
    for m in alcove_blocks(rs, b):
        scaled = m @ adj.T
        if lattice == "coroot":
            scaled = scaled[(scaled % det == 0).all(axis=1)] // det
        kept.append(scaled)
    rows = _sorted_tuples(np.concatenate(kept))
    if lattice == "coroot":
        return rows
    return [tuple(Fraction(x, det) for x in row) for row in rows]


@dataclass(frozen=True)
class CoreSet:
    rs: RootSystemData
    b: int
    points: tuple[tuple[int, ...], ...]
    sizes: tuple[Fraction, ...]
    direct_checked: bool

    def __len__(self):
        return len(self.points)

    @cached_property
    def _scaled_sizes(self) -> tuple[int, tuple[int, ...]]:
        """(d, numerators): each size is its integer numerator over d = 2 h f."""
        d = affine.scaled_size_b(self.rs, 1)[0]
        return d, tuple(s.numerator * (d // s.denominator) for s in self.sizes)

    @property
    def total_size(self) -> Fraction:
        d, nums = self._scaled_sizes
        return Fraction(sum(nums), d)

    @property
    def mean_size(self) -> Fraction:
        return self.total_size / len(self.points)

    def rows(self) -> Iterator[tuple[tuple[int, ...], Fraction, tuple[int, ...] | None]]:
        """(coords, size, partition or None) per region point, in point order.

        The partition is given in the families whose core's box count is
        the size: the (n+1)-core of the abacus bijection in type A_n, and
        the self-conjugate 2n-core of the isometric model in type C_n.
        """
        t = self.rs.cartan_type
        for q, s in zip(self.points, self.sizes):
            if t.family == "A":
                part = cores.from_coroot(t.rank + 1, models.type_a_ambient_from_coords(q))
            elif t.family == "C":
                part = models.embed(t, q).core()
            else:
                part = None
            yield q, s, part

    def to_json_dict(self) -> dict:
        """The ``corelat cores`` document: the summary and one row per point.

        The summary sorts and maximizes the integer numerators over 2 h f."""
        d, nums = self._scaled_sizes
        value, argmax = max(zip(nums, self.points))
        texts = [str(s) for s in self.sizes]
        rows = []
        for (q, _, part), text in zip(self.rows(), texts):
            row = {"coords": list(q), "size": text}
            if part is not None:
                row["partition"] = list(part)
            rows.append(row)
        return {
            "type": str(self.rs.cartan_type),
            "b": self.b,
            "count": len(self.points),
            "sizes": [texts[i] for i in sorted(range(len(nums)), key=nums.__getitem__)],
            "mean": str(self.mean_size),
            "max": str(Fraction(value, d)),
            "argmax": list(argmax),
            "direct_checked": self.direct_checked,
            "rows": rows,
        }


def region_vertices(rs: RootSystemData, b: int) -> list[tuple[Fraction, ...]]:
    """Vertices of the b-region: the inverse dilation element applied to b*(alcove vertices)."""
    wb_inv = affine.compute_w_b(rs, b).inverse()
    return [wb_inv(tuple(b * c for c in v)) for v in alcove_vertices(rs)]


def _direct_scan(sr: SommersRegion) -> list[tuple[int, ...]] | None:
    """Scan the integer bounding box of the region's vertices, filter by the
    defining inequalities; None when the box holds over ``DEFAULT_BOX_CAP`` points."""
    rs = sr.rs
    n = rs.rank
    verts = region_vertices(rs, sr.b)
    lo = [min(floor(v[i]) for v in verts) - 1 for i in range(n)]
    hi = [max(ceil(v[i]) for v in verts) + 1 for i in range(n)]
    sides = [h - l + 1 for l, h in zip(lo, hi)]
    if prod(sides) > DEFAULT_BOX_CAP:
        return None
    # int64 is exact here: coordinates and pairing values are tiny integers
    assert all(abs(x) < 2**20 for x in lo + hi)
    low_mat = np.array([r.pair_vec for r in sr.height_low_roots], dtype=np.int64).T
    high_mat = np.array([r.pair_vec for r in sr.height_high_roots], dtype=np.int64).T
    tail = (np.indices(sides[1:], dtype=np.int64).reshape(n - 1, prod(sides[1:])).T
            + np.array(lo[1:], dtype=np.int64))
    # the pairings of (x0, tail) are x0 * (first row) + tail @ (other rows):
    # the tail is multiplied once and each slab x0 only moves the bounds
    tail_low, tail_high = tail @ low_mat[1:], tail @ high_mat[1:]
    found = []
    for x0 in range(lo[0], hi[0] + 1):
        mask = ((tail_low >= -sr.t_b - x0 * low_mat[0]).all(axis=1)
                & (tail_high <= sr.t_b + 1 - x0 * high_mat[0]).all(axis=1))
        kept = tail[mask]
        found.append(np.concatenate([np.full((len(kept), 1), x0, dtype=np.int64), kept], axis=1))
    return _sorted_tuples(np.concatenate(found))


def enumerate_cores(rs: RootSystemData, b: int) -> CoreSet:
    """The coroot-lattice points of the b-region, with their sizes.

    Computed by mapping the dilated-alcove points through the inverse
    dilation element, and cross-checked against a direct inequality scan
    whenever the scan's bounding box holds at most ``DEFAULT_BOX_CAP``
    points; ``direct_checked`` records whether the scan ran.  The map is
    one int64 product x -> M x + v, exact under the asserted bound
    n * max|M| * max|x| + max|v| < 2**62.
    """
    predicted = capped_haiman_count(rs, b)
    sr = sommers_region(rs, b)
    wb_inv = affine.compute_w_b(rs, b).inverse()
    alcove = np.array(enumerate_alcove(rs, b, "coroot"), dtype=np.int64).reshape(-1, rs.rank)
    m, v = np.array(wb_inv.m, dtype=np.int64), np.array(wb_inv.v, dtype=np.int64)
    assert (rs.rank * int(np.abs(m).max()) * int(np.abs(alcove).max(initial=0))
            + int(np.abs(v).max()) < 2**62), "int64 bound of the map through w_b^-1"
    mapped = _sorted_tuples(alcove @ m.T + v)
    if len(mapped) != predicted:
        raise AssertionError(
            f"{rs.cartan_type}, b={b}: found {len(mapped)} alcove points, expected {predicted}")
    scanned = _direct_scan(sr)
    if scanned is not None and scanned != mapped:
        raise AssertionError(
            f"{rs.cartan_type}, b={b}: direct inequality scan disagrees with the "
            f"mapped alcove points ({len(scanned)} vs {len(mapped)})")
    sizes = tuple(affine.size_lattice_total(rs, q) for q in mapped)
    return CoreSet(rs, b, tuple(mapped), sizes, scanned is not None)


def max_size(rs: RootSystemData, b: int, coreset: CoreSet | None = None):
    """(max size, argmax) over the b-region lattice points.

    The closed form (r g / h) * n (b^2 - 1)(h + 1) / 24 and the predicted
    argmax w_b^{-1}(0) are verified against an exhaustive scan, including
    uniqueness of the maximizer.
    """
    if coreset is None:
        coreset = enumerate_cores(rs, b)
    value = (Fraction(rs.ratio_r * rs.dual_coxeter_number, rs.coxeter_number)
             * Fraction(rs.rank * (b * b - 1) * (rs.coxeter_number + 1), 24))
    argmax = affine.compute_w_b(rs, b).inverse()(tuple(0 for _ in range(rs.rank)))
    scan_max = max(coreset.sizes)
    winners = [q for q, s in zip(coreset.points, coreset.sizes) if s == scan_max]
    if scan_max != value or winners != [tuple(argmax)]:
        raise AssertionError(
            f"{rs.cartan_type}, b={b}: maximum-size scan disagrees with the closed form "
            f"(scan {scan_max} at {winners}, formula {value} at {tuple(argmax)})")
    return value, tuple(argmax)


@dataclass
class SelfConjugateReport:
    n: int
    b: int
    pairs: list  # (coroot point, partition)

    @property
    def count(self) -> int:
        return len(self.pairs)


def simultaneous_selfconjugate(n: int, b: int) -> SelfConjugateReport:
    """Map the C_n b-region points to partitions and certify each one is a
    self-conjugate (2n, b)-core by a hook scan; the count must match."""
    t = CartanType("C", n)
    rs = rootsys.build(t)
    coreset = enumerate_cores(rs, b)
    pairs = []
    for q in coreset.points:
        parts = models.embed(t, q).core()
        if parts != cores.conjugate(parts):
            raise AssertionError(f"image of {q} is not self-conjugate: {parts}")
        for modulus in (2 * n, b):
            cell = cores.first_hook_of_length(parts, modulus)
            if cell is not None:
                raise AssertionError(
                    f"image {parts} of {q} has a hook of length {modulus} at {cell}")
        pairs.append((q, parts))
    return SelfConjugateReport(n, b, pairs)
