"""Correctness checks for the benchmark's workloads.

Every check recomputes what it compares against from closed forms, typed
tables and brute force written here; none of them imports ``corelat`` or
compares against a stored copy of an earlier output.  A check raises
``CheckError`` when the output is wrong and ``JobFailed`` when the
operation did not produce a usable answer at all.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod


class CheckError(Exception):
    """The program answered, and the answer is wrong."""


class JobFailed(Exception):
    """The operation failed: an error exit, or a missing cross-check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def poly_eval(coeffs, x) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


# ---------------------------------------------------------------------------
# CLI documents
# ---------------------------------------------------------------------------

def cli_document(output) -> dict:
    """Parse the JSON a ``corelat.cli.main`` job printed; a usage error
    (exit 2) is a failed operation."""
    rc, text = output
    if rc == 2:
        raise JobFailed("exit code 2: usage error")
    require(rc == 0, f"exit code {rc}")
    return json.loads(text)


# ---------------------------------------------------------------------------
# cores-large: simultaneous (a, b)-cores in type A_{a-1}
# ---------------------------------------------------------------------------

def hook_lengths(parts):
    """Every hook length of a partition, from its diagram."""
    cols = [sum(1 for p in parts if p > c) for c in range(parts[0])] if parts else []
    for r, row_len in enumerate(parts):
        for c in range(row_len):
            yield (row_len - c - 1) + (cols[c] - r - 1) + 1


def require_core(parts, t: int) -> None:
    """A t-core has no hook length divisible by t."""
    bad = next((h for h in hook_lengths(parts) if h % t == 0), None)
    require(bad is None, f"hook scan: {list(parts)} has a hook of length {bad}, "
                         f"so it is not a {t}-core")


def check_cores_doc(doc: dict, a: int, b: int, rng, sample: int) -> None:
    """The ``corelat cores A{a-1} b`` document lists every (a, b)-core once."""
    if doc.get("direct_checked") is not True:
        raise JobFailed("direct_checked is not true: the box-scan cross-check did not run")
    rows = doc["rows"]
    count = comb(a + b, a) // (a + b)
    require(len(rows) == count, f"count: {len(rows)} rows, expected C(a+b, a)/(a+b) = {count}")
    require(doc["count"] == count, f"count: document says {doc['count']}, expected {count}")
    require(len({tuple(r["coords"]) for r in rows}) == len(rows), "distinct: repeated coords")
    require(len({tuple(r["partition"]) for r in rows}) == len(rows), "distinct: repeated partitions")
    sizes = []
    for row in rows:
        parts = row["partition"]
        require(all(p > 0 for p in parts)
                and all(x >= y for x, y in zip(parts, parts[1:])),
                f"partition: {parts} is not weakly decreasing and positive")
        size = Fraction(row["size"])
        require(size == sum(parts), f"size: row {row['coords']} has size {size} "
                                    f"but its partition has {sum(parts)} boxes")
        sizes.append(size)
    mean = Fraction((a - 1) * (b - 1) * (a + b + 1), 24)
    top = Fraction((a * a - 1) * (b * b - 1), 24)
    require(sum(sizes) / len(sizes) == mean, f"mean: rows average {sum(sizes) / len(sizes)}, "
                                             f"expected (a-1)(b-1)(a+b+1)/24 = {mean}")
    require(Fraction(doc["mean"]) == mean, f"mean: document says {doc['mean']}, expected {mean}")
    require(max(sizes) == top, f"max: rows reach {max(sizes)}, expected (a^2-1)(b^2-1)/24 = {top}")
    require(Fraction(doc["max"]) == top, f"max: document says {doc['max']}, expected {top}")
    for row in rng.sample(rows, min(sample, len(rows))):
        require_core(row["partition"], a)
        require_core(row["partition"], b)


# ---------------------------------------------------------------------------
# quasipolynomial-fit: weighted Ehrhart components for G2 and F4
# ---------------------------------------------------------------------------

#: Invariants typed from Bourbaki (Plates VIII-IX) and Humphreys,
#: *Reflection Groups and Coxeter Groups*, Table 3.1.  Bourbaki numbering;
#: the inner product gives the highest (long) root squared length 2.
EXCEPTIONAL = {
    "G2": {
        "rank": 2, "h": 6, "g": 4, "r": 3, "f": 1, "weyl": 12,
        "exponents": (1, 5), "marks": (3, 2),
        # alpha_1 short (|alpha_1|^2 = 2/3), alpha_2 long
        "root_gram": ((Fraction(2, 3), -1), (-1, 2)),
    },
    "F4": {
        "rank": 4, "h": 12, "g": 9, "r": 2, "f": 1, "weyl": 1152,
        "exponents": (1, 5, 7, 11), "marks": (2, 3, 4, 2),
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short (squared length 1)
        "root_gram": ((2, -1, 0, 0), (-1, 2, -1, 0),
                      (0, -1, 1, Fraction(-1, 2)), (0, 0, Fraction(-1, 2), 1)),
    },
}


def period(name: str) -> int:
    return lcm(*EXCEPTIONAL[name]["marks"])


def predicted_component(name: str, b) -> Fraction:
    """f * prod(b + e_j)/|W| * (r g / h) * n (b - 1)(h + b + 1) / 24."""
    t = EXCEPTIONAL[name]
    count = Fraction(prod(b + e for e in t["exponents"]), t["weyl"])
    mean = Fraction(t["r"] * t["g"], t["h"]) * Fraction(t["rank"] * (b - 1) * (t["h"] + b + 1), 24)
    return t["f"] * count * mean


def check_fit_closed_form(name: str, residue: int, coeffs) -> None:
    """The fitted component equals the closed form as a polynomial: both have
    degree at most n + 2, so agreement at n + 3 points proves equality."""
    n = EXCEPTIONAL[name]["rank"]
    require(len(coeffs) <= n + 3, f"closed form: {name} residue {residue} fit has degree "
                                  f"{len(coeffs) - 1}, expected at most {n + 2}")
    for b in range(n + 3):
        got, want = poly_eval(coeffs, b), predicted_component(name, b)
        require(got == want, f"closed form: {name} residue {residue} fit gives {got} at "
                             f"b = {b}, closed form gives {want}")


def _inverse(m):
    """Inverse of a small rational matrix by Gauss-Jordan elimination."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def brute_force_enumerator(name: str, b: int) -> Fraction:
    """W(b): the sum of (h/2)(|x - b rho/h|^2 - |rho/h|^2) over the coweights
    x = sum m_i omega_i with m_i >= 0 and sum c_i m_i <= b.

    The coweights are the basis dual to the simple roots, so their Gram
    matrix is the inverse of the root Gram matrix; rho is the sum of the
    fundamental coweights.
    """
    t = EXCEPTIONAL[name]
    n, h, marks = t["rank"], t["h"], t["marks"]
    gram = _inverse(t["root_gram"])

    def norm2(v):
        return sum(v[i] * v[j] * gram[i][j] for i in range(n) for j in range(n))

    rho_over_h = [Fraction(1, h)] * n
    base = norm2(rho_over_h)
    total = Fraction(0)
    for m in product(*(range(b // c + 1) for c in marks)):
        if sum(c * x for c, x in zip(marks, m)) <= b:
            shifted = [x - b * r for x, r in zip(m, rho_over_h)]
            total += Fraction(h, 2) * (norm2(shifted) - base)
    return total


def check_fit_brute_force(name: str, components: dict, bs) -> None:
    """The fitted components reproduce brute-force values of W(b)."""
    p = period(name)
    for b in bs:
        coeffs = components[b % p]
        got, want = poly_eval(coeffs, b), brute_force_enumerator(name, b)
        require(got == want, f"brute force: {name} fit gives W({b}) = {got}, "
                             f"the direct sum gives {want}")


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

def check_verify_doc(doc: dict, suite: str) -> None:
    require(doc.get("theorem") == suite, f"verify: report names {doc.get('theorem')!r}, not {suite!r}")
    require(doc.get("pass") is True, f"verify {suite}: pass is not true")
    require(doc.get("counterexamples") == [],
            f"verify {suite}: {len(doc.get('counterexamples') or [])} counterexamples")


# ---------------------------------------------------------------------------
# structure: classical root systems and the dilation element w_b
# ---------------------------------------------------------------------------

def classical_invariants(family: str, n: int) -> dict:
    """Coxeter number, exponents, index of connection and |W| (Humphreys 3.7,
    Bourbaki Plates I-IV)."""
    if family == "A":
        return {"h": n + 1, "exponents": list(range(1, n + 1)), "f": n + 1,
                "weyl": factorial(n + 1)}
    if family in "BC":
        return {"h": 2 * n, "exponents": list(range(1, 2 * n, 2)), "f": 2,
                "weyl": 2 ** n * factorial(n)}
    if family == "D":
        return {"h": 2 * n - 2, "exponents": sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]),
                "f": 4, "weyl": 2 ** (n - 1) * factorial(n)}
    raise ValueError(f"no closed forms for family {family!r}")


def check_roots_doc(doc: dict, name: str) -> None:
    family, n = name[0], int(name[1:])
    want = classical_invariants(family, n)
    roots = doc["positive_roots"]
    require(doc["cartan_type"] == name and doc["rank"] == n, f"roots: document is for "
                                                             f"{doc['cartan_type']}, not {name}")
    require(doc["coxeter_number"] == want["h"],
            f"roots {name}: h = {doc['coxeter_number']}, expected {want['h']}")
    require(len(roots) == n * want["h"] // 2,
            f"roots {name}: {len(roots)} positive roots, expected n h / 2 = {n * want['h'] // 2}")
    require(len({tuple(r["coeffs"]) for r in roots}) == len(roots), f"roots {name}: repeated roots")
    require(all(r["height"] == sum(r["coeffs"]) and min(r["coeffs"]) >= 0 for r in roots),
            f"roots {name}: a root is not a nonnegative combination of its height")
    require(max(r["height"] for r in roots) == want["h"] - 1,
            f"roots {name}: highest root has height {max(r['height'] for r in roots)}, "
            f"expected h - 1 = {want['h'] - 1}")
    require(doc["exponents"] == want["exponents"],
            f"roots {name}: exponents {doc['exponents']}, expected {want['exponents']}")
    require(doc["index_of_connection"] == want["f"],
            f"roots {name}: index of connection {doc['index_of_connection']}, expected {want['f']}")
    require(doc["weyl_order"] == want["weyl"],
            f"roots {name}: |W| = {doc['weyl_order']}, expected {want['weyl']}")


#: Dynkin diagrams of the simply-laced types used for w_b (Bourbaki
#: numbering, 0-based nodes), with their Coxeter numbers.
SIMPLY_LACED = {
    "A2": ([(0, 1)], 3),
    "A3": ([(0, 1), (1, 2)], 4),
    "E6": ([(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)], 12),
    "E7": ([(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)], 18),
    "E8": ([(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)], 30),
}


def rho_check_over_h(name: str) -> list[Fraction]:
    """rhocheck / h in simple-coroot coordinates: rhocheck pairs to 1 with
    every simple root, so it solves A x = (1, ..., 1)."""
    edges, h = SIMPLY_LACED[name]
    n = int(name[1:])
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
    inv = _inverse(cartan)
    return [sum(row) / h for row in inv]


def check_w_b(name: str, b: int, matrix, translation) -> None:
    """w_b(rhocheck / h) = b rhocheck / h, with w_b(x) = matrix x + translation."""
    x = rho_check_over_h(name)
    image = [sum(m * xi for m, xi in zip(row, x)) + v for row, v in zip(matrix, translation)]
    require(image == [b * xi for xi in x], f"w_b {name} b={b}: w_b(rho/h) = "
                                           f"{[str(y) for y in image]}, expected b rho/h")
