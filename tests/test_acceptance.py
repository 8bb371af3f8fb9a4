"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison below is an equality of
integers or Fractions (tolerance zero).  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time
from fractions import Fraction
from math import comb, gcd

from corelat import affine, cores, ehrhart, sommers, verify
from corelat.rootsys import CartanType, build, build_named

MATRIX = verify.DEFAULT_MATRIX
E_TYPES = (("E6", 5), ("E7", 5), ("E8", 7))

_coresets = {}


def coreset(name, b):
    key = (name, b)
    if key not in _coresets:
        _coresets[key] = sommers.enumerate_cores(build_named(name), b)
    return _coresets[key]


def report(number, ok, detail):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_simultaneous_core_counts_and_means():
    """(a, b) in {(3,4),(3,5),(4,5),(5,6),(4,7)}: |cores| = C(a+b, b)/(a+b)
    and mean size = (a-1)(b-1)(a+b+1)/24, each in under a second."""
    ok = True
    details = []
    for a, b in verify.ARM_PAIRS:
        start = time.perf_counter()
        cs = sommers.enumerate_cores(build(CartanType("A", a - 1)), b)
        elapsed = time.perf_counter() - start
        count_ok = len(cs) == comb(a + b, b) // (a + b)
        mean_ok = cs.mean_size == Fraction((a - 1) * (b - 1) * (a + b + 1), 24)
        ok = ok and count_ok and mean_ok and elapsed < 1.0
        details.append(f"({a},{b}): n={len(cs)} mean={cs.mean_size} {elapsed:.2f}s")
    report(1, ok, "; ".join(details))


def test_criterion_2_expected_size_three_ways():
    """Exact three-way agreement of the mean over the full type matrix,
    within 60 seconds total."""
    start = time.perf_counter()
    failures = []
    for name, bs in MATRIX:
        for b in bs:
            try:
                ehrhart.expected_size(coreset(name, b))
            except AssertionError as exc:
                failures.append(str(exc))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(2, ok, f"{sum(len(bs) for _, bs in MATRIX)} (type, b) pairs in {elapsed:.1f}s"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_self_conjugate_means():
    """Mean box count of self-conjugate (2n, b)-cores, through the C_n
    pipeline and through direct hook-scan enumeration."""
    ok = True
    details = []
    for n in (2, 3):
        for b in (3, 5, 7):
            if gcd(b, 2 * n) != 1:
                continue
            expected = Fraction((2 * n - 1) * (b - 1) * (2 * n + b + 1), 24)
            rep = sommers.simultaneous_selfconjugate(n, b)
            pipeline_sizes = [sum(core) for _, core in rep.pairs]
            pipeline_mean = Fraction(sum(pipeline_sizes), len(pipeline_sizes))
            bound = (4 * n * n - 1) * (b * b - 1) // 24
            brute = [sum(p) for p in cores.self_conjugate_partitions_up_to(bound)
                     if cores.is_core(p, 2 * n) and cores.is_core(p, b)]
            brute_mean = Fraction(sum(brute), len(brute))
            case_ok = (pipeline_mean == expected == brute_mean
                       and sorted(pipeline_sizes) == sorted(brute))
            ok = ok and case_ok
            details.append(f"(2n={2*n},b={b}): mean={pipeline_mean}")
    report(3, ok, "; ".join(details))


def test_criterion_4_maximum_size():
    """Max size (r g / h) n (b^2 - 1)(h + 1)/24 attained uniquely at the
    inverse dilation image of the origin, for every matrix pair."""
    failures = []
    for name, bs in MATRIX:
        for b in bs:
            try:
                sommers.max_size(coreset(name, b))
            except AssertionError as exc:
                failures.append(str(exc))
    report(4, not failures, f"exhaustive scans over {sum(len(bs) for _, bs in MATRIX)} pairs"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_5_multiset_transfer():
    failures = verify.check_transfer(MATRIX)
    report(5, not failures, f"multiset equality over {sum(len(bs) for _, bs in MATRIX)} pairs"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_f4_g2_quasipolynomial_reference_constants():
    """Interpolation against the externally stated reference polynomials
    (1/18432)(b-1)(b+1)(b+5)(b+7)(b+11)(b+13) for F4 and
    (1/144)(b-1)(b+1)(b+5)(b+7) for G2, coefficient for coefficient.

    The interpolation itself is validated on held-out samples and against
    the closed form implied by the count and expectation formulas (see
    test_criterion_6_internal_consistency).  Direct enumeration gives
    leading constants 1/4608 and 1/72 -- larger than the stated reference
    constants by factors of 4 and 2 -- so this criterion, as stated,
    fails; the FAIL line below documents the measured discrepancy.

    Diagnosis: the factors are the ranks.  The fit equals the closed form
    ``predicted_enumerator_polynomial`` on every coprime residue (criterion
    6b), and that closed form is exactly rank * stated (pinned by
    test_criterion_6_stated_constants_omit_rank_factor).  The stated
    constants are the expected-size formula (r g / h) n (b-1)(h+b+1)/24
    without its factor n, an omission type A rules out: the (a, b)-core
    mean (a-1)(b-1)(a+b+1)/24 needs that factor.
    """
    start = time.perf_counter()
    stated = {
        "G2": ehrhart.poly_from_roots(Fraction(1, 144), [1, -1, -5, -7]),
        "F4": ehrhart.poly_from_roots(Fraction(1, 18432), [1, -1, -5, -7, -11, -13]),
    }
    mismatches = []
    for name, reference in stated.items():
        rs = build_named(name)
        for residue in range(rs.period_c):
            if gcd(residue, rs.coxeter_number) != 1:
                continue
            fit = ehrhart.interpolate(rs, residue)
            if fit != reference:
                ratio = fit[-1] / reference[-1]
                mismatches.append(f"{name} residue {residue}: leading {fit[-1]} "
                                  f"= {ratio} * stated {reference[-1]}")
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300.0
    report(6, ok, f"interpolated in {elapsed:.1f}s; " +
           ("; ".join(mismatches) if mismatches else "all residues match"))


def test_criterion_6_stated_constants_omit_rank_factor():
    """The closed form that criterion 6b matches to the fit on every coprime
    residue is the stated reference polynomial times the rank."""
    stated = {
        "G2": ehrhart.poly_from_roots(Fraction(1, 144), [1, -1, -5, -7]),
        "F4": ehrhart.poly_from_roots(Fraction(1, 18432), [1, -1, -5, -7, -11, -13]),
    }
    for name, reference in stated.items():
        rs = build_named(name)
        assert ehrhart.predicted_enumerator_polynomial(rs) == \
            tuple(rs.rank * c for c in reference)


def test_criterion_6_internal_consistency():
    """The fitted F4/G2 quasipolynomials agree with the closed form
    f * count(b) * mean(b) on every residue coprime to h, pass held-out
    validation, and have the asserted roots."""
    failures = verify.check_fg_poly()
    for name in ("G2", "F4"):
        rs = build_named(name)
        for residue in range(rs.period_c):
            if gcd(residue, rs.coxeter_number) == 1:
                ehrhart.reciprocity_roots(rs, residue)
    report("6b", not failures, "fits equal f*count*mean closed form on all coprime residues"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_degree3_enumerator_closed_forms():
    """The weighted enumerator at b = 3: (1/3)(n+1)^2(n+2) for B_n and
    (1/3)(n+1)(n+2)(2n-1) for C_n, n in {2, 3, 4}."""
    ok = True
    details = []
    for n in (2, 3, 4):
        b_val = ehrhart.weighted_enumerator(build(CartanType("B", n)), 3)
        c_val = ehrhart.weighted_enumerator(build(CartanType("C", n)), 3)
        b_ok = b_val == Fraction((n + 1) ** 2 * (n + 2), 3)
        c_ok = c_val == Fraction((n + 1) * (n + 2) * (2 * n - 1), 3)
        ok = ok and b_ok and c_ok
        details.append(f"n={n}: B={b_val} C={c_val}")
    report(7, ok, "; ".join(details))


def test_criterion_8_strange_formula_and_counts():
    strange = verify.check_strange()
    haiman = verify.check_haiman(MATRIX + verify.E_TYPES)
    ok = not strange and not haiman
    report(8, ok, f"strange formula on {len(verify.ALL_FAMILY_NAMES)} systems; "
           f"counts on the matrix plus E6/E7/E8"
           + (f"; failures: {strange + haiman}" if not ok else ""))


def test_criterion_9_property_suites():
    failures = {
        "welldef": verify.check_welldef(max_len=8),
        "sizer": verify.check_sizer(count=1000),
        "ip_content": verify.check_ip_content(),
        "models": verify.check_models(),
    }
    bad = {k: v for k, v in failures.items() if v}
    report(9, not bad, "welldef (length <= 8, ranks <= 3), sizer (1000 words), "
           "content/toggle (a <= 5, <= 60 boxes), model suites (>= 1000 points/type)"
           + (f"; failures: {bad}" if bad else ""))


def test_criterion_10_series_identity():
    failures = verify.check_typea()
    report(10, not failures, "truncated series identity to x^20 for a = 2, 3, 4"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_11_weak_order_maximality_evidence():
    """Evidence-level check (not a proof): no weak-order counterexamples on
    every type of rank <= 8 at b = h - 1 and h + 1."""
    failures = verify.check_conjecture()
    report(11, not failures, "zero counterexamples on every type of rank <= 8 at b = h - 1, h + 1"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_e_types_under_default_cap():
    """E6/E7/E8 at the smallest coprime b complete under the default cap;
    only the count, expectation, transfer, and maximum checks (the
    interpolation fits for E7/E8 are long-running and excluded)."""
    failures = []
    for name, b in E_TYPES:
        rs = build_named(name)
        try:
            cs = sommers.enumerate_cores(rs, b)
            ehrhart.expected_size(cs)
            sommers.max_size(cs)
            alcove = sommers.enumerate_alcove(rs, b, "coroot")
            if sorted(cs.sizes) != sorted(affine.size_b(rs, b, q) for q in alcove):
                failures.append(f"{name}: transfer mismatch")
        except (AssertionError, sommers.FeasibilityError) as exc:
            failures.append(f"{name} b={b}: {exc}")
    report("E", not failures, "E6 (b=5), E7 (b=5), E8 (b=7) complete under the default cap"
           + (f"; failures: {failures}" if failures else ""))
