"""Irreducible crystallographic root systems built from Cartan matrices.

Conventions used throughout the package:

* The Cartan matrix is ``A[i][j] = <alpha_i, alphacheck_j>`` (row indexed
  by a simple root, column by a simple coroot).
* The inner product on the ambient space is normalized so that the highest
  root has squared length 2; ``r`` denotes the squared-length ratio of a
  long root to a short root.
* Lattice points are stored as integer coordinate vectors in the
  simple-coroot basis.  All inner products are evaluated through the
  integer Gram matrix ``gram_coroot[i][j] = <alphacheck_i, alphacheck_j>``,
  which is D^-1 A with D = diag(|alpha_i|^2 / 2), so no irrational ambient
  coordinates ever appear and integer inputs give integer sums.
* Positive roots are generated by reflection closure from the simple roots
  and sorted by (height, coefficient vector).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import NamedTuple

from . import linalg

#: allowed ranks per family: (min, max); None means unbounded above
CARTAN_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class CartanTypeError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        bounds = CARTAN_BOUNDS.get(self.family)
        if bounds is None:
            raise CartanTypeError(f"unknown family {self.family!r}; expected one of A-G")
        lo, hi = bounds
        if self.rank < lo:
            raise CartanTypeError(f"{self.family}{self.rank}: family {self.family} requires rank >= {lo}")
        if hi is not None and self.rank > hi:
            raise CartanTypeError(f"{self.family}{self.rank}: family {self.family} requires rank <= {hi}")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", text.strip())
        if not m:
            raise CartanTypeError(f"cannot parse Cartan type from {text!r} (expected e.g. 'C3')")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self):
        return f"{self.family}{self.rank}"


class Root(NamedTuple):
    """A positive root, as integer coefficients over the simple roots.

    ``pair_vec[i] = <alphacheck_i, root>``; pairing a coroot-lattice point
    ``q`` (integer simple-coroot coordinates) with this root is the integer
    dot product ``q . pair_vec``.
    """

    coeffs: tuple[int, ...]
    height: int
    is_long: bool
    pair_vec: tuple[int, ...]


def _dynkin_edges(t: CartanType) -> list[tuple[int, int]]:
    n = t.rank
    if t.family == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if t.family == "E":
        return [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2] + [(1, 3)]
    return [(i, i + 1) for i in range(n - 1)]


def cartan_matrix(t: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with A[i][j] = <alpha_i, alphacheck_j> (Bourbaki numbering)."""
    n = t.rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i, j in _dynkin_edges(t):
        a[i][j] = a[j][i] = -1
    if t.family == "B":
        a[n - 2][n - 1] = -2  # alpha_{n-1} long, alpha_n short
    elif t.family == "C":
        a[n - 1][n - 2] = -2  # alpha_n long, the rest short
    elif t.family == "F":
        a[1][2] = -2  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
    elif t.family == "G":
        a[1][0] = -3  # alpha_1 short, alpha_2 long
    return linalg.freeze(a)


def _symmetrizer(a) -> tuple[Fraction, ...]:
    """d_i = |alpha_i|^2 / 2, normalized so long roots have d = 1.

    Solves A[i][j] d_j = A[j][i] d_i over the (connected) Dynkin graph.
    """
    n = len(a)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and a[i][j] and d[j] is None:
                d[j] = d[i] * a[j][i] / a[i][j]
                stack.append(j)
    if any(x is None for x in d):
        raise CartanTypeError("Dynkin diagram is not connected")
    top = max(d)
    return tuple(x / top for x in d)


def _closure_pair_vecs(a, n) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Positive roots mapped to their pairing vectors, in (height, coefficients) order.

    Closes the simple roots under 'add a simple root when the result is a
    root': alpha + alpha_j is a root iff p - <alpha, alphacheck_j> > 0,
    where p is the number of steps the root string through alpha extends in
    the -alpha_j direction.  Building layer by layer makes p computable from
    the roots already found; a negative pairing needs no walk, as p >= 0.
    The pairing vector of alpha + alpha_j is that of alpha plus row j of A.
    """
    found = {tuple(int(i == j) for j in range(n)): tuple(a[i]) for i in range(n)}
    layer = list(found)
    while layer:
        nxt = []
        for alpha in layer:
            pair_vec = found[alpha]
            for j in range(n):
                if pair_vec[j] >= 0:
                    p = 0
                    down = list(alpha)
                    while down[j] > 0:
                        down[j] -= 1
                        if tuple(down) not in found:
                            break
                        p += 1
                    if p <= pair_vec[j]:
                        continue
                cand = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]
                if cand not in found:
                    found[cand] = tuple(x + y for x, y in zip(pair_vec, a[j]))
                    nxt.append(cand)
        layer = nxt
    return dict(sorted(found.items(), key=lambda item: (sum(item[0]), item[0])))


@dataclass(frozen=True)
class RootSystemData:
    """An irreducible root system with every invariant the package needs.

    ``dual_coxeter_number`` is 1 + the height of the highest short root (h
    when every root is long).  That gives B3 -> 4 and C3 -> 5, the textbook
    dual Coxeter numbers of the dual types, and it is the g of the strange
    formula r g n (h + 1) / 12 that ``verify strange`` checks.
    """

    cartan_type: CartanType
    cartan_matrix: tuple[tuple[int, ...], ...]
    gram_coroot: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    highest_root_coeffs: tuple[int, ...]
    coxeter_number: int
    dual_coxeter_number: int
    exponents: tuple[int, ...]
    index_of_connection: int
    ratio_r: int
    period_c: int
    rho_check_coords: tuple[Fraction, ...]
    coweight_coords: tuple[tuple[Fraction, ...], ...]
    # derived helpers
    simple_d: tuple[Fraction, ...]
    cartan_adjugate: tuple[tuple[int, ...], ...]  # f * A^-1
    highest_root_coroot_coords: tuple[int, ...]
    weyl_order: int

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    def __repr__(self):
        return f"RootSystemData({self.cartan_type})"

    def __hash__(self):
        # Only the cached ``build`` constructs this class, so the type
        # identifies the system, and a cache lookup keyed on a system costs
        # O(1) rather than a pass over every root.
        return hash(self.cartan_type)


@lru_cache(maxsize=None)
def build(t: CartanType) -> RootSystemData:
    """Construct the root system of type ``t`` with all numerical invariants."""
    n = t.rank
    a = cartan_matrix(t)
    d = _symmetrizer(a)
    # 2 / |alpha_i|^2 = 1 / d_i is 1 for long and r for short simple roots
    scale = [x.denominator for x in d]
    assert all(x.numerator == 1 for x in d)
    gram = linalg.freeze(tuple(scale[i] * a[i][j] for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            assert gram[i][j] == gram[j][i], "coroot Gram matrix must be symmetric"
    r = max(scale)
    r_d = [r // k for k in scale]

    roots = []
    for coeffs, pair_vec in _closure_pair_vecs(a, n).items():
        # r |alpha|^2 = r sum_i c_i d_i <alphacheck_i, alpha>, an integer
        r_norm2 = sum(c * s * p for c, s, p in zip(coeffs, r_d, pair_vec) if c)
        roots.append(Root(coeffs, sum(coeffs), r_norm2 == 2 * r, pair_vec))

    h = 1 + roots[-1].height
    if len(roots) != n * h // 2:
        raise AssertionError(f"{t}: {len(roots)} positive roots, expected n*h/2 = {n * h // 2}")
    top = [root for root in roots if root.height == h - 1]
    if len(top) != 1:
        raise AssertionError(f"{t}: highest root is not unique")
    highest = top[0]
    if not highest.is_long:
        raise AssertionError(f"{t}: highest root is not normalized to length^2 = 2")

    dual_cox = 1 + max((root.height for root in roots if not root.is_long), default=h - 1)

    # exponents from the height staircase: conjugate the partition
    # (|Phi_1| >= |Phi_2| >= ...).
    mults = [0] * h
    for root in roots:
        mults[root.height] += 1
    exponents = tuple(sorted(sum(1 for i in range(1, h) if mults[i] >= j)
                             for j in range(1, mults[1] + 1)))
    assert len(exponents) == n

    f, adj = linalg.adjugate(a)
    # a Z-matrix (off-diagonal <= 0) with A^-1 >= 0 is an M-matrix: det A = f > 0
    assert min(map(min, adj)) >= 0, f"{t}: the Cartan matrix inverse has a negative entry"
    coweights = tuple(tuple(Fraction(adj[k][i], f) for k in range(n)) for i in range(n))
    rho = tuple(Fraction(sum(row), f) for row in adj)
    hr_coroot = tuple(c // k for c, k in zip(highest.coeffs, scale))
    marks = highest.coeffs

    return RootSystemData(
        cartan_type=t,
        cartan_matrix=a,
        gram_coroot=gram,
        positive_roots=tuple(roots),
        highest_root_coeffs=marks,
        coxeter_number=h,
        dual_coxeter_number=dual_cox,
        exponents=exponents,
        index_of_connection=f,
        ratio_r=r,
        period_c=lcm(*marks),
        rho_check_coords=rho,
        coweight_coords=coweights,
        simple_d=d,
        cartan_adjugate=adj,
        highest_root_coroot_coords=hr_coroot,
        weyl_order=factorial(n) * prod(marks) * f,
    )


def build_named(name: str) -> RootSystemData:
    return build(CartanType.parse(name))


def check_dilation(rs: RootSystemData, b: int) -> None:
    """Raise ValueError unless b is a positive integer coprime to h, the
    condition under which the b-region and its simultaneous cores exist."""
    h = rs.coxeter_number
    if b < 1 or gcd(b, h) != 1:
        raise ValueError(
            f"{rs.cartan_type}: b = {b} must be a positive integer with gcd(b, h) = 1, h = {h}")


def roots_of_height(rs: RootSystemData, i: int) -> list[Root]:
    """Positive roots of height exactly ``i`` (empty list when out of range)."""
    return [r for r in rs.positive_roots if r.height == i]


def pairing(rs: RootSystemData, q, root) -> int:
    """<q, root> for q in the coroot lattice: always an exact integer."""
    vec = root.pair_vec if isinstance(root, Root) else _pair_vec(rs, root)
    if len(q) != len(vec):
        raise ValueError(f"point has dimension {len(q)}, expected {len(vec)}")
    return sum(k * p for k, p in zip(q, vec) if k)


def _pair_vec(rs: RootSystemData, coeffs) -> tuple[int, ...]:
    n = rs.rank
    if len(coeffs) != n:
        raise ValueError(f"root vector has dimension {len(coeffs)}, expected {n}")
    a = rs.cartan_matrix
    return tuple(sum(coeffs[j] * a[j][i] for j in range(n)) for i in range(n))


def inner(rs: RootSystemData, x, y) -> Fraction:
    """Inner product of two vectors given in simple-coroot coordinates."""
    return Fraction(sum(
        xi * sum(g * yj for g, yj in zip(row, y, strict=True) if yj)
        for xi, row in zip(x, rs.gram_coroot, strict=True) if xi
    ))


def norm2(rs: RootSystemData, v) -> Fraction:
    """Squared length v^T G v of a rational vector in simple-coroot coordinates."""
    return inner(rs, v, v)


def coroot_scale(rs: RootSystemData, i: int) -> int:
    """2 / |alpha_i|^2 for the simple root alpha_i (0-based): 1 if long, r if short."""
    return rs.gram_coroot[i][i] // 2


def coweight_gram(rs: RootSystemData) -> tuple[tuple[int, ...], ...]:
    """f <omegacheck_i, omegacheck_j>, the integer matrix D^-1 adj(A): the
    Gram matrix of the fundamental coweights scaled by f = det A."""
    return tuple(tuple(coroot_scale(rs, i) * x for x in row)
                 for i, row in enumerate(rs.cartan_adjugate))


def to_json_dict(rs: RootSystemData) -> dict:
    """JSON-ready description: exact values, rationals as 'p/q' strings."""
    return {
        "cartan_type": str(rs.cartan_type),
        "rank": rs.rank,
        "cartan_matrix": [list(row) for row in rs.cartan_matrix],
        "positive_roots": [
            {"coeffs": list(r.coeffs), "height": r.height, "long": r.is_long}
            for r in rs.positive_roots
        ],
        "highest_root": list(rs.highest_root_coeffs),
        "coxeter_number": rs.coxeter_number,
        "dual_coxeter_number": rs.dual_coxeter_number,
        "exponents": list(rs.exponents),
        "index_of_connection": rs.index_of_connection,
        "ratio_long_short": rs.ratio_r,
        "period": rs.period_c,
        "weyl_order": rs.weyl_order,
        "rho_check": [str(x) for x in rs.rho_check_coords],
        "coweights": [[str(x) for x in w] for w in rs.coweight_coords],
    }
