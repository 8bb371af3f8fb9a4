"""Weighted lattice-point enumeration over the coweight lattice and the
quasipolynomial/expectation machinery built on it.

Everything is exact: sums are accumulated as integers against a scaled
Gram matrix of the fundamental coweights, polynomials are fitted by
Newton's divided differences over Fractions, and every identity asserted
here is an equality of rationals.  The weighted enumerator sums the alcove
walk in numpy int64 blocks, each by the checked kernel step
``linalg.QuadraticRows``, whose bound is asserted once before the walk
starts, and adds the block sums as Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import affine, cores, sommers
from .rootsys import RootSystemData


class HeldOutMismatchError(AssertionError):
    """An interpolated component failed validation on held-out samples,
    signalling a wrong period or degree."""


class SeriesMismatchError(AssertionError):
    def __init__(self, degree: int, lhs: int, rhs: int):
        self.degree = degree
        super().__init__(f"power series disagree first at degree {degree}: {lhs} != {rhs}")


def weighted_enumerator(rs: RootSystemData, b: int) -> Fraction:
    """Sum of size_b over the coweight-lattice points of the b-dilated alcove.

    The block walk ``sommers.alcove_blocks`` gives the tuples m in int64
    blocks of at most ``sommers.ALCOVE_BLOCK`` rows, each summed by the
    integer form of ``affine.scaled_size_b`` and added as a Python int.
    Every row has sum m_i <= b, so the kernel's check of ALCOVE_BLOCK rows
    of mass b (``linalg.QuadraticRows.check_total``), run before the walk
    starts, covers every block sum.  The independent checks of the
    total are ``expected_size`` (region mean and closed form) and
    ``verify fg_poly`` (fits against the predicted polynomial).

    For b coprime to h the f * ``haiman_count`` rows are refused up front
    when the count exceeds the cap; for other b, before passing cap * f rows.
    """
    if b < 1:
        raise ValueError("dilation factor must be >= 1")
    if gcd(b, rs.coxeter_number) == 1:
        sommers.capped_haiman_count(rs, b)
    denom, size = affine.scaled_size_b(rs, b)
    size.step.check_total(sommers.ALCOVE_BLOCK, b)
    return Fraction(sum(size.step.total(m, b) for m in sommers.alcove_blocks(rs, b)), denom)


# ---------------------------------------------------------------------------
# Exact polynomial helpers
# ---------------------------------------------------------------------------

def poly_eval(coeffs, x) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, c in enumerate(q):
                out[i + j] += a * c
    return out


def poly_from_roots(leading, roots):
    coeffs = [Fraction(leading)]
    for r in roots:
        coeffs = poly_mul(coeffs, [Fraction(-r), Fraction(1)])
    return tuple(coeffs)


def lagrange_fit(xs, ys) -> tuple[Fraction, ...]:
    """Exact interpolating polynomial through the points (x, y), for distinct
    integers x (ValueError otherwise) and rational y, trailing zeros stripped:
    Newton's divided differences c_i = y[x_0, ..., x_i], and the Newton form
    c_0 + (X - x_0)(c_1 + (X - x_1)(c_2 + ...)) expanded from the inside out,
    O(k^2) Fraction operations for k points."""
    if len(set(xs)) < len(xs):
        raise ValueError(f"interpolation points {list(xs)} repeat an x")
    coeffs = [Fraction(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    poly: list[Fraction] = []
    for c, x in zip(reversed(coeffs), reversed(xs)):
        poly = [lo - x * hi for lo, hi in zip([0, *poly], [*poly, 0])]
        poly[0] += c
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


@dataclass(frozen=True)
class Quasipolynomial:
    """A period-c family of polynomials in the dilation factor b."""

    period: int
    components: dict  # residue -> tuple of Fraction coefficients

    def evaluate(self, b: int) -> Fraction:
        return poly_eval(self.components[b % self.period], b)


def interpolate(rs: RootSystemData, residue: int) -> tuple[Fraction, ...]:
    """Fit the degree-(n+2) polynomial matching the weighted enumerator at
    n + 3 values b = residue mod ``rs.period_c``, then validate it on two more.

    Raises HeldOutMismatchError when validation fails (wrong period or
    degree), and FeasibilityError when the sample values get too large.
    """
    period = rs.period_c
    residue %= period
    samples, held_out = rs.rank + 3, 2
    start = residue or period
    bs = [start + k * period for k in range(samples + held_out)]
    values = [weighted_enumerator(rs, x) for x in bs]
    coeffs = lagrange_fit(bs[:samples], values[:samples])
    for x, y in zip(bs[samples:], values[samples:]):
        if poly_eval(coeffs, x) != y:
            raise HeldOutMismatchError(
                f"{rs.cartan_type}: residue {residue} mod {period} fails held-out "
                f"validation at b={x}; the period or degree is wrong")
    return coeffs


def fit_quasipolynomial(rs: RootSystemData) -> Quasipolynomial:
    return Quasipolynomial(rs.period_c, {r: interpolate(rs, r) for r in range(rs.period_c)})


def _mean_size_polynomial(rs: RootSystemData) -> tuple[Fraction, ...]:
    """The mean size (r g / h) n (b - 1)(h + b + 1) / 24 as a polynomial in b."""
    h = rs.coxeter_number
    return poly_from_roots(Fraction(rs.ratio_r * rs.dual_coxeter_number * rs.rank, 24 * h),
                           [1, -h - 1])


def predicted_enumerator_polynomial(rs: RootSystemData) -> tuple[Fraction, ...]:
    """Closed form implied by the count formula and the expected-size theorem:
    f * prod(b + e_j)/|W| times ``_mean_size_polynomial``.

    Valid on residues coprime to h.
    """
    count_poly = poly_from_roots(Fraction(1, rs.weyl_order), [-e for e in rs.exponents])
    return tuple(Fraction(rs.index_of_connection) * c
                 for c in poly_mul(count_poly, _mean_size_polynomial(rs)))


@dataclass(frozen=True)
class ExpectationReport:
    cartan_type: str
    b: int
    count: int
    total_size: Fraction
    mean: Fraction


def expected_size(coreset: sommers.CoreSet) -> ExpectationReport:
    """Mean size over the points of one b-region, computed three independent ways.

    (i) direct average over the region's points; (ii) the coweight-lattice
    sum divided by f and the count; (iii) the closed form
    ``_mean_size_polynomial`` at b.  Any disagreement raises.
    """
    rs, b = coreset.rs, coreset.b
    count = len(coreset)
    direct_mean = coreset.mean_size
    coweight_mean = weighted_enumerator(rs, b) / (rs.index_of_connection * count)
    closed = poly_eval(_mean_size_polynomial(rs), b)
    if direct_mean != coweight_mean:
        raise AssertionError(
            f"{rs.cartan_type}, b={b}: direct mean {direct_mean} != coweight-sum mean {coweight_mean}")
    if direct_mean != closed:
        raise AssertionError(
            f"{rs.cartan_type}, b={b}: direct mean {direct_mean} != closed form {closed}")
    return ExpectationReport(str(rs.cartan_type), b, count, coreset.total_size, direct_mean)


@dataclass(frozen=True)
class RootReport:
    residue: int
    checked: list  # (root location, value) pairs, each value 0


def reciprocity_roots(rs: RootSystemData, residue: int) -> RootReport:
    """Verify the vanishing of the fitted component (``interpolate``) at
    b = -e_j for the exponents in its residue class, and at b = 1 and
    b = -h-1 when those fall in the class.  A nonzero value raises."""
    period = rs.period_c
    residue %= period
    coeffs = interpolate(rs, residue)
    targets = [-e for e in rs.exponents if (-e) % period == residue]
    if 1 % period == residue:
        targets.append(1)
    if (-rs.coxeter_number - 1) % period == residue:
        targets.append(-rs.coxeter_number - 1)
    checked = [(t, poly_eval(coeffs, t)) for t in sorted(set(targets))]
    bad = [(t, str(v)) for t, v in checked if v != 0]
    if bad:
        raise AssertionError(f"{rs.cartan_type}: component {residue} mod {period} "
                             f"fails to vanish at {bad}")
    return RootReport(residue, checked)


# ---------------------------------------------------------------------------
# Truncated power-series identity in type A
# ---------------------------------------------------------------------------

def partition_counts_euler(n_max: int) -> list[int]:
    """p(0..n_max) by the pentagonal-number recurrence (independent oracle)."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            pent1 = k * (3 * k - 1) // 2
            pent2 = k * (3 * k + 1) // 2
            if pent1 > n and pent2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if pent1 <= n:
                total += sign * p[n - pent1]
            if pent2 <= n:
                total += sign * p[n - pent2]
            k += 1
        p[n] = total
    return p


def _partition_series_dp(n_max: int, part_sizes) -> list[int]:
    """Coefficients of prod 1/(1 - x^s) over the given part sizes, to x^n_max."""
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    for s in part_sizes:
        for n in range(s, n_max + 1):
            coeffs[n] += coeffs[n - s]
    return coeffs


def typea_series_check(a: int, order: int) -> bool:
    """Check the factorization of the partition generating function through
    a-cores: prod 1/(1-x^i) = (prod 1/(1-x^{ai}))^a * sum_{a-cores} x^size,
    as an identity of truncated integer series.

    Exact coefficient comparison; the left side is recomputed with the
    pentagonal-number recurrence as an independent oracle.
    """
    if a < 2:
        raise ValueError("modulus must be at least 2")
    if order < 0:
        raise ValueError("order must be nonnegative")
    lhs = _partition_series_dp(order, range(1, order + 1))
    oracle = partition_counts_euler(order)
    if lhs != oracle:
        raise AssertionError("partition-number DP disagrees with the Euler recurrence")
    sizes = (s for i in range(1, order // a + 1) for s in [a * i] * a)
    rhs = _partition_series_dp(order, sizes)
    core_poly = [0] * (order + 1)
    for parts in cores.all_cores(a, order):
        core_poly[sum(parts)] += 1
    for degree, (x, y) in enumerate(zip(lhs, poly_mul(rhs, core_poly))):
        if x != y:
            raise SeriesMismatchError(degree, x, y)
    return True
