"""Verification suites: each ``check_<id>`` function checks one family of
identities by independent computation and returns a list of counterexample
records (empty = pass).  ``SUITES`` states what each suite reads, and
``run`` scopes and runs one suite by its theorem id; the CLI ``verify``
subcommand calls ``run`` and the acceptance tests call the checks directly."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

from . import affine, cores, ehrhart, models, rootsys, sommers
from .rootsys import CartanType, build, build_named
from .sommers import DEFAULT_CAP

#: (type, b values) used by the region-based suites
DEFAULT_MATRIX = (
    ("A2", (2, 4, 5)), ("A3", (3, 5, 7)), ("B2", (3, 5, 7)), ("B3", (5, 7, 11)),
    ("C2", (3, 5, 7)), ("C3", (5, 7, 11)), ("D4", (5, 7, 11)), ("G2", (5, 7, 11)),
    ("F4", (5, 7, 11)),
)

#: exceptional (type, b values) added to the count suite's default matrix
E_TYPES = (("E6", (5,)), ("E7", (5,)), ("E8", (7,)))

ARM_PAIRS = ((3, 4), (3, 5), (4, 5), (5, 6), (4, 7))

ALL_FAMILY_NAMES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

WELLDEF_TYPES = ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3")

MODEL_POINT_GRIDS = (
    ("B2", 16), ("B3", 5), ("C2", 16), ("C3", 5), ("D4", 3), ("G2", 16),
)
#: the fewest points the models suite checks per type
MODEL_MIN_POINTS = 1000


class Suite(NamedTuple):
    """What ``run`` may pass to a suite's ``check_<id>`` function."""

    reads: tuple[str, ...] = ()  # scoping options, of "type", "b", "count", "length"
    cap: bool = False  # takes the feasibility cap
    note: str | None = None  # added to the report


#: theorem id -> suite, in the order the CLI lists them
SUITES = {
    "arm": Suite(cap=True),
    "main": Suite(("type", "b"), cap=True),
    "max": Suite(("type", "b"), cap=True),
    "transfer": Suite(("type", "b"), cap=True),
    "sizer": Suite(("type", "count")),
    "welldef": Suite(("type", "length")),
    "ip_content": Suite(),
    "models": Suite(),
    "haiman": Suite(("type", "b"), cap=True),
    "strange": Suite(),
    "typea": Suite(),
    "fg_poly": Suite(cap=True),
    "conjecture": Suite(("type", "b"), cap=True,
                        note="evidence only: exhaustive check at these parameters, not a proof"),
}

THEOREMS = tuple(SUITES)


def scoped_matrix(types=None, bs=None) -> list:
    """(type, b values) pairs for a scoped run.

    The types are the given names, else those of DEFAULT_MATRIX.  Each gets
    the given b values, else its DEFAULT_MATRIX ones, else the first two
    b < 40 coprime to h.  A b below 1 or not coprime to h raises ValueError.
    """
    default_bs = dict(DEFAULT_MATRIX)
    out = []
    for t in types or default_bs:
        rs = build_named(t)
        if bs:
            values = bs
        elif t in default_bs:
            values = default_bs[t]
        else:
            values = [b for b in range(2, 40) if gcd(b, rs.coxeter_number) == 1][:2]
        for b in values:
            rootsys.check_dilation(rs, b)
        out.append((t, tuple(values)))
    return out


def run(theorem: str, *, types=None, bs=None, cap=None, count=None, length=None) -> dict:
    """Run the suite ``theorem`` and return its report.

    Only the options that are set are passed on, so every default lives in
    the ``check_<id>`` signature.  The check is looked up as a module
    attribute at call time, so a wrapper installed on it takes effect.
    Raises ValueError for an unknown theorem id, a scoping option the suite
    does not read, or a ``count`` or ``length`` below 1; ``cap`` is
    accepted by every suite.
    """
    if theorem not in SUITES:
        raise ValueError(f"unknown theorem id {theorem!r}; choose from {', '.join(THEOREMS)}")
    suite = SUITES[theorem]
    given = {"type": types, "b": bs, "count": count, "length": length}
    unread = [f"--{k}" for k, v in given.items() if v is not None and k not in suite.reads]
    if unread:
        reads = ", ".join(f"--{k}" for k in suite.reads) or "no scoping flags"
        raise ValueError(f"verify {theorem} does not read {', '.join(unread)}; it reads {reads}")
    kwargs = {}
    if cap is not None and suite.cap:
        kwargs["cap"] = cap
    if "b" in suite.reads:
        if types or bs:
            kwargs["matrix"] = scoped_matrix(types, bs)
    elif types:
        kwargs["types"] = types
    for name, key, value in (("--count", "count", count), ("--length", "max_len", length)):
        if value is not None:
            if value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value}")
            kwargs[key] = value
    failures = globals()[f"check_{theorem}"](**kwargs)
    report = {"theorem": theorem, "pass": not failures, "counterexamples": failures}
    if suite.note:
        report["note"] = suite.note
    return report


def check_arm(cap: int = DEFAULT_CAP) -> list:
    """Count and mean of simultaneous (a, b)-cores via the region machinery."""
    failures = []
    for a, b in ARM_PAIRS:
        rs = build(CartanType("A", a - 1))
        coreset = sommers.enumerate_cores(rs, b, cap=cap)
        expected_count = comb(a + b, b) // (a + b)
        expected_mean = Fraction((a - 1) * (b - 1) * (a + b + 1), 24)
        if len(coreset) != expected_count or coreset.mean_size != expected_mean:
            failures.append({"pair": [a, b], "count": len(coreset),
                             "mean": str(coreset.mean_size)})
    return failures


def check_main(matrix=DEFAULT_MATRIX, cap: int = DEFAULT_CAP) -> list:
    """Three-way agreement of the expected size for every (type, b)."""
    failures = []
    for t, bs in matrix:
        rs = build_named(t)
        for b in bs:
            try:
                ehrhart.expected_size(rs, b, cap=cap)
            except AssertionError as exc:
                failures.append({"type": t, "b": b, "error": str(exc)})
    return failures


def check_max(matrix=DEFAULT_MATRIX, cap: int = DEFAULT_CAP) -> list:
    failures = []
    for t, bs in matrix:
        rs = build_named(t)
        for b in bs:
            try:
                sommers.max_size(rs, b, coreset=sommers.enumerate_cores(rs, b, cap=cap))
            except AssertionError as exc:
                failures.append({"type": t, "b": b, "error": str(exc)})
    return failures


def check_transfer(matrix=DEFAULT_MATRIX, cap: int = DEFAULT_CAP) -> list:
    """Multiset equality of region sizes and dilated-alcove shifted sizes."""
    failures = []
    for t, bs in matrix:
        rs = build_named(t)
        for b in bs:
            coreset = sommers.enumerate_cores(rs, b, cap=cap)
            alcove = sommers.enumerate_alcove(rs, b, "coroot", cap=cap)
            lhs = sorted(coreset.sizes)
            rhs = sorted(sommers.size_b(rs, b, q) for q in alcove)
            if lhs != rhs:
                failures.append({"type": t, "b": b,
                                 "sizes": [str(x) for x in lhs],
                                 "shifted_sizes": [str(x) for x in rhs]})
    return failures


def random_reduced_word(rng, rs, max_len):
    letters = []
    prefix = affine.identity_element(rs)
    while len(letters) < max_len:
        i = rng.randrange(rs.rank + 1)
        entry = prefix.act_root(affine.affine_simple_root(rs, i))
        if not entry.is_positive():
            break
        letters.append(i)
        prefix = prefix.compose(affine.letter_element(rs, i))
    return tuple(letters)


def check_sizer(count: int = 1000, types=None) -> list:
    """Word-side size equals lattice-side size on random reduced words of
    length at most 10 (seed 7)."""
    rng = random.Random(7)
    failures = []
    types = types or [t for t, _ in DEFAULT_MATRIX]
    per_type = -(-count // len(types))  # ceil: at least ``count`` words total
    for t in types:
        rs = build_named(t)
        for _ in range(per_type):
            letters = random_reduced_word(rng, rs, 10)
            q = affine.apply(rs, letters, (0,) * rs.rank)
            word_sizes = affine.size_vector_word(rs, letters[::-1])
            lattice = tuple(affine.size_i_lattice(rs, q, i) for i in range(rs.rank + 1))
            if word_sizes != lattice:
                failures.append({"type": t, "word": list(letters)})
    return failures


def check_welldef(types=WELLDEF_TYPES, max_len: int = 8) -> list:
    """All reduced words of one element give one size vector, invariant under
    appending a finite letter on the left of the word (right-multiplication of
    the represented coset element)."""
    unsupported = [t for t in types if t not in WELLDEF_TYPES]
    if unsupported:
        raise ValueError(f"welldef does not support {', '.join(unsupported)}; "
                         f"supported types: {', '.join(WELLDEF_TYPES)}")
    failures = []
    for t in types:
        rs = build_named(t)
        prefactors = [affine._size_prefactor(rs, i) for i in range(rs.rank + 1)]
        by_element: dict = {}

        def dfs(el, letters, totals):
            vec = tuple(p * s for p, s in zip(prefactors, totals))
            key = el.key()
            prior = by_element.get(key)
            if prior is None:
                by_element[key] = (vec, el)
            elif prior[0] != vec:
                failures.append({"type": t, "word": list(letters),
                                 "sizes": [str(x) for x in vec],
                                 "other": [str(x) for x in prior[0]]})
            if len(letters) == max_len:
                return
            for i in range(rs.rank + 1):
                entry = el.act_root(affine.affine_simple_root(rs, i))
                if entry.is_positive():
                    new_totals = list(totals)
                    new_totals[i] += entry.k
                    dfs(el.compose(affine.letter_element(rs, i)), letters + (i,), new_totals)

        dfs(affine.identity_element(rs), (), [0] * (rs.rank + 1))
        for key, (vec, el) in by_element.items():
            for i in range(1, rs.rank + 1):
                other = by_element.get(affine.letter_element(rs, i).compose(el).key())
                if other is not None and other[0] != vec:
                    failures.append({"type": t, "element": str(key), "finite_letter": i})
    return failures


def check_ip_content() -> list:
    """Content-class counts equal the lattice statistics, and toggling is
    equivariant with the simple reflections, over all a-cores with at most
    60 boxes, a = 3, 4, 5."""
    failures = []
    for a in (3, 4, 5):
        rs = build(CartanType("A", a - 1))
        for parts in cores.all_cores(a, 60):
            ambient = cores.to_coroot(parts, a)
            k = models.type_a_coords_from_ambient(ambient)
            counts = cores.content_counts(parts, a)
            lattice = tuple(affine.size_i_lattice(rs, k, i) for i in range(a))
            if tuple(map(Fraction, counts)) != lattice:
                failures.append({"a": a, "partition": list(parts)})
                continue
            for i in range(a):
                toggled = cores.toggle_action(parts, a, i)
                q2 = affine.apply(rs, (i,), k)
                if cores.to_coroot(toggled, a) != models.type_a_ambient_from_coords(q2):
                    failures.append({"a": a, "partition": list(parts), "letter": i})
    return failures


def model_test_points(t: CartanType, radius: int):
    """At least ``MODEL_MIN_POINTS`` distinct lattice points: the full grid of
    the given radius when small enough, else a random sample (seed 5) of it."""
    pts = list(itertools.product(range(-radius, radius + 1), repeat=t.rank))
    if len(pts) > 2 * MODEL_MIN_POINTS:
        pts = random.Random(5).sample(pts, MODEL_MIN_POINTS)
    assert len(pts) >= MODEL_MIN_POINTS
    return pts


def check_models() -> list:
    """Embedding equivariance and the size correspondence per model type."""
    failures = []
    for name, radius in MODEL_POINT_GRIDS:
        t = CartanType.parse(name)
        rs = build(t)
        for k in model_test_points(t, radius):
            emb = models.embed(t, k)
            sizes = models.model_size_vector(t, k)
            for i in range(t.rank + 1):
                moved = models.embed(t, affine.apply(rs, (i,), k)).image
                if moved != models.act_model_generator(t, i, emb.image):
                    failures.append({"type": name, "point": list(k), "generator": i})
                if sizes[i] != affine.size_i_lattice(rs, k, i):
                    failures.append({"type": name, "point": list(k), "size_index": i})
            if models.model_size_total(t, k) != affine.size_lattice_total(rs, k):
                failures.append({"type": name, "point": list(k), "total": True})
    return failures


def check_haiman(matrix=DEFAULT_MATRIX + E_TYPES, cap: int = DEFAULT_CAP) -> list:
    """Point counts of dilated alcoves against the product formula, in both the
    coroot and the coweight lattice; a count over the cap is refused up front."""
    failures = []
    for t, bs in matrix:
        rs = build_named(t)
        for b in bs:
            predicted = sommers.capped_haiman_count(rs, b, cap)
            coroot = len(sommers.enumerate_alcove(rs, b, "coroot", cap=cap))
            coweight = len(sommers.enumerate_alcove(rs, b, "coweight", cap=cap))
            if coroot != predicted or coweight != rs.index_of_connection * predicted:
                failures.append({"type": t, "b": b, "count": coroot,
                                 "coweight_count": coweight, "predicted": predicted})
    return failures


def check_strange() -> list:
    failures = []
    for name in ALL_FAMILY_NAMES:
        rs = build_named(name)
        lhs = rootsys.norm2(rs, rs.rho_check_coords)
        rhs = Fraction(rs.ratio_r * rs.dual_coxeter_number
                       * rs.rank * (rs.coxeter_number + 1), 12)
        if lhs != rhs:
            failures.append({"type": name, "lhs": str(lhs), "rhs": str(rhs)})
    return failures


def check_typea() -> list:
    """The a-core factorization of the partition series to x^20, a = 2, 3, 4."""
    failures = []
    for a in (2, 3, 4):
        try:
            ehrhart.typea_series_check(a, 20)
        except (AssertionError, ehrhart.SeriesMismatchError) as exc:
            failures.append({"a": a, "error": str(exc)})
    return failures


def check_fg_poly(cap: int = DEFAULT_CAP) -> list:
    """F4/G2 quasipolynomial fits must match the closed form implied by the
    count and expectation formulas, on every residue coprime to h."""
    failures = []
    for name in ("G2", "F4"):
        rs = build_named(name)
        predicted = ehrhart.predicted_enumerator_polynomial(rs)
        for residue in range(rs.period_c):
            if gcd(residue, rs.coxeter_number) != 1:
                continue
            coeffs = ehrhart.interpolate(rs, residue, cap=cap)
            if coeffs != predicted:
                failures.append({"type": name, "residue": residue,
                                 "fit": [str(c) for c in coeffs],
                                 "predicted": [str(c) for c in predicted]})
    return failures


def check_conjecture(matrix=(("A2", (2, 4)), ("C2", (3, 5)), ("G2", (5, 7))),
                     cap: int = DEFAULT_CAP) -> list:
    failures = []
    for t, bs in matrix:
        rs = build_named(t)
        for b in bs:
            report = affine.check_wb_maximality(rs, b, cap=cap)
            if not report.ok:
                failures.append({"type": t, "b": b,
                                 "counterexamples": [str(c) for c in report.counterexamples]})
    return failures
