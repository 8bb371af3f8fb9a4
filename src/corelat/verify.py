"""Verification suites: each ``check_<id>`` function checks one family of
identities by independent computation and returns a list of counterexample
records (empty = pass).  ``SUITES`` holds the flags each suite reads, off
its check's keywords; ``run`` scopes and runs one suite by its theorem id;
the CLI ``verify`` subcommand calls ``run``, the acceptance tests the checks.

A ValueError is a refusal and propagates.  An AssertionError is a failed
identity: every suite runs its cases through ``_counterexamples``, which
turns it into a counterexample record and goes on to the next case.

Suites run in one process share what they compute: ``main``, ``max``,
``transfer``, ``arm`` and ``conjecture`` read each region from
``sommers.enumerate_cores``, made once per (type, b), and ``sizer`` and
``welldef`` read one word walk per type (``_word_walk``), made as deep as
any reader has asked.  Each reader still applies its own cap, read when it
starts, and is refused exactly where a fresh computation would be."""

from __future__ import annotations

import inspect
import itertools
import random
import threading
from fractions import Fraction
from functools import partial
from math import comb, gcd
from typing import NamedTuple

import numpy as np

from . import affine, cores, ehrhart, linalg, models, rootsys, sommers
from .rootsys import CartanType, build, build_named

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

MODEL_POINT_GRIDS = (
    ("B2", 16), ("B3", 5), ("C2", 16), ("C3", 5), ("D4", 3), ("G2", 16),
)
#: the fewest points the models suite checks per type
MODEL_MIN_POINTS = 1000


#: theorem ids in the order the CLI lists them: suite ``<id>`` runs ``check_<id>``
THEOREMS = ("arm", "main", "max", "transfer", "sizer", "welldef", "ip_content", "models",
            "haiman", "strange", "typea", "fg_poly", "conjecture")

#: theorem id -> a note added to its report
NOTES = {"conjecture": "evidence only: exhaustive check at these parameters, not a proof"}

#: a check's keyword -> the scoping flags that set it
KEYWORD_FLAGS = {"types": ("--type",), "matrix": ("--type", "--b"), "count": ("--count",),
                 "max_len": ("--length",)}


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
        t = str(rs.cartan_type)
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


def run(theorem: str, *, types=None, bs=None, count=None, length=None) -> dict:
    """Run the suite ``theorem`` and return its report, with its ``NOTES`` entry.

    Only the options that are set are passed on, so every default lives in
    the ``check_<id>`` signature.  The check is looked up as a module
    attribute at call time, so a wrapper installed on it takes effect.
    Raises ValueError for an unknown type or theorem id, a scoping option
    outside ``SUITES[theorem]``, or a ``count`` or ``length`` below 1.  Type
    names are normalized here ("a2" is A2); the cap is ``sommers.capped``'s.
    """
    if types:
        types = [str(CartanType.parse(t)) for t in types]
    if theorem not in SUITES:
        raise ValueError(f"unknown theorem id {theorem!r}; choose from {', '.join(THEOREMS)}")
    reads = SUITES[theorem]
    given = {"--type": types, "--b": bs, "--count": count, "--length": length}
    unread = [flag for flag, v in given.items() if v is not None and flag not in reads]
    if unread:
        raise ValueError(f"verify {theorem} does not read {', '.join(unread)}; "
                         f"it reads {', '.join(reads) or 'no scoping flags'}")
    kwargs = {}
    if "--b" in reads and (types or bs):
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
    if theorem in NOTES:
        report["note"] = NOTES[theorem]
    return report


def _counterexamples(cases) -> list:
    """The counterexample records of ``cases``, pairs (labels, check).

    ``check()`` yields one dict per disagreement it finds, or returns
    nothing; each record is ``labels`` merged with one such dict.  An
    AssertionError (a failed identity) adds ``{**labels, "error": message}``
    and the next case runs; a ValueError (a refusal) propagates.
    """
    records = []
    for labels, check in cases:
        try:
            for found in check() or ():
                records.append({**labels, **found})
        except AssertionError as exc:
            records.append({**labels, "error": str(exc)})
    return records


def _by_type_and_b(matrix, check):
    """The ``{type, b}`` cases of a (type, b values) matrix, each running
    ``check(rs, b)``; each type is built once."""
    for t, bs in matrix:
        rs = build_named(t)
        for b in bs:
            yield {"type": t, "b": b}, partial(check, rs, b)


def check_arm() -> list:
    """Count and mean of simultaneous (a, b)-cores via the region machinery."""
    def check(a, b):
        coreset = sommers.enumerate_cores(build(CartanType("A", a - 1)), b)
        expected_count = comb(a + b, b) // (a + b)
        expected_mean = Fraction((a - 1) * (b - 1) * (a + b + 1), 24)
        if len(coreset) != expected_count or coreset.mean_size != expected_mean:
            yield {"count": len(coreset), "mean": str(coreset.mean_size)}
    return _counterexamples(({"pair": [a, b]}, partial(check, a, b)) for a, b in ARM_PAIRS)


def check_main(matrix=DEFAULT_MATRIX) -> list:
    """Three-way agreement of the expected size for every (type, b)."""
    def check(rs, b):
        ehrhart.expected_size(sommers.enumerate_cores(rs, b))
    return _counterexamples(_by_type_and_b(matrix, check))


def check_max(matrix=DEFAULT_MATRIX) -> list:
    def check(rs, b):
        sommers.max_size(sommers.enumerate_cores(rs, b))
    return _counterexamples(_by_type_and_b(matrix, check))


def check_transfer(matrix=DEFAULT_MATRIX) -> list:
    """Multiset equality of region sizes and dilated-alcove shifted sizes, as
    sorted integer numerators over one denominator 2 h f: those of
    ``sommers.enumerate_cores`` against the form step of ``affine.scaled_size_b``
    at b on each block of ``sommers.coroot_blocks``, the coroot points'
    pairings m, walked one row per point (two in D_{2k}), with no Fraction
    and no Python object per point.  Only a counterexample record makes
    Fraction strings."""
    def check(rs, b):
        coreset = sommers.enumerate_cores(rs, b)
        d, form = affine.scaled_size_b(rs, b)
        assert d == coreset.denominator, \
            f"shifted sizes over {d}, region sizes over {coreset.denominator}"
        shifted = np.concatenate([form.step(m) for m in sommers.coroot_blocks(rs, b)])
        lhs, rhs = np.sort(coreset.numerators), np.sort(shifted)
        if not np.array_equal(lhs, rhs):
            yield {"sizes": [str(Fraction(x, d)) for x in lhs.tolist()],
                   "shifted_sizes": [str(Fraction(x, d)) for x in rhs.tolist()]}
    return _counterexamples(_by_type_and_b(matrix, check))


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of an int64 array, a hashable key per row."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _first_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) for the rows of an int64 array: the index where each
    distinct row first occurs, in order, and the position in ``first`` of
    each row's own."""
    index: dict = {}
    group = np.array([index.setdefault(key, len(index)) for key in _row_keys(rows)], dtype=np.int64)
    return np.unique(group, return_index=True)[1], group  # groups are numbered as they first occur


def _left_mismatches(rs, keys: np.ndarray, vecs: np.ndarray):
    """welldef's left pass: a record for each (element, finite letter i) where
    s_i times the element is also an element of the walk and has another
    size vector.  Row r of ``keys`` is an element's m and v, flattened, and
    row r of ``vecs`` its size vector; each finite letter's
    ``AffineElement.step`` moves all of them at once."""
    n, count = rs.rank, len(keys)
    index = {key: r for r, key in enumerate(_row_keys(keys))}
    # s_i (m, v) = (s_i m, s_i v): a finite letter fixes 0, so it moves v and m's columns as points
    points = np.concatenate([keys[:, n * n:], keys[:, :n * n].reshape(count, n, n).transpose(0, 2, 1).reshape(-1, n)])
    bad = np.zeros((count, n), dtype=bool)
    for i in range(1, n + 1):
        moved = affine.letter_element(rs, i).step(points)
        moved_m = moved[count:].reshape(count, n, n).transpose(0, 2, 1).reshape(count, -1)
        other = np.array([index.get(key, -1) for key in _row_keys(np.column_stack([moved_m, moved[:count]]))])
        found = other >= 0
        bad[found, i - 1] = (vecs[other[found]] != vecs[found]).any(axis=1)
    for r, i in zip(*(a.tolist() for a in np.nonzero(bad))):
        key = (tuple(map(tuple, keys[r, :n * n].reshape(n, n).tolist())), tuple(keys[r, n * n:].tolist()))
        yield {"element": str(key), "finite_letter": i + 1}


class _Level(NamedTuple):
    """One level of ``_word_walk``: the distinct (element, size vector) rows
    of the reduced words of one length, in the order of their least words."""

    keys: np.ndarray  # each row's element u, its m and v flattened
    first: np.ndarray  # the first row of each distinct element
    element: np.ndarray  # each row's element, as a position in ``first``
    vec: np.ndarray  # each row's word-side size vector
    point: np.ndarray  # each row's u^-1(0)
    least: np.ndarray  # each row's least word, a row of letters


#: the one word walk per root system that every ``_word_walk`` reads:
#: rs -> (its levels made so far, the translations q of the last level's rows)
_WALKS: dict = {}
#: held while a walk is read or extended, so no level is made twice
_WALKS_LOCK = threading.Lock()


def _word_walk(rs):
    """Levels 0, 1, 2, ... of the reduced words of ``rs``, each a ``_Level``
    of read-only arrays, from the one walk per ``rs`` in a process.

    The levels are made by ``_next_level`` as far as any reader has asked,
    and kept in ``_WALKS``; a reader makes a missing level under
    ``_WALKS_LOCK``, and a level that fails to be made changes nothing.
    Each reader counts its rows from level 0 and refuses with
    FeasibilityError at the level where they pass the cap read when it
    starts, whether that level was made for it or read."""
    cap, total = sommers._CAP.get(), 0
    for length in itertools.count():
        with _WALKS_LOCK:
            levels, q = _WALKS.get(rs) or _first_level(rs)
            while len(levels) <= length:
                level, q = _next_level(rs, levels[-1], q)
                levels = [*levels, level]
            _WALKS[rs] = levels, q
        total += len(levels[length].vec)
        if total > cap:
            raise sommers.FeasibilityError(
                f"the word walk of {rs.cartan_type} has {total} rows up to length {length}, over cap {cap}")
        yield levels[length]


def _first_level(rs) -> tuple[list[_Level], np.ndarray]:
    """([level 0], q): the identity element, its empty word and zero vector."""
    m, v, q = affine.identity_rows(rs)
    zeros = partial(np.zeros, dtype=np.int64)
    return [_frozen_level(m, v, zeros((1, rs.rank + 1)), zeros((1, rs.rank)), zeros((1, 0)))], q


def _frozen_level(m, v, vec, point, least) -> _Level:
    """The ``_Level`` of the rows (m, v), with read-only arrays."""
    keys = np.column_stack([m.reshape(len(m), -1), v])
    level = _Level(keys, *_first_rows(keys), vec, point, least)
    for array in level:
        array.flags.writeable = False
    return level


def _next_level(rs, level: _Level, q: np.ndarray) -> tuple[_Level, np.ndarray]:
    """(the level after ``level``, its rows' translations), from the
    translations q of ``level``'s rows.

    A row's vector sums the delta parts of its words' inversion entries per
    letter, scaled by ``affine.scale_letter_totals``.  The level takes one
    ``affine.reduced_steps`` block over the distinct elements of the last
    and every letter.  A row's point moves by its last letter's
    ``AffineElement.step``, as (u s_i)^-1(0) = s_i(u^-1(0))."""
    n, letters = rs.rank, rs.rank + 1
    scales = np.array(affine.scale_letter_totals(rs, (1,) * letters), dtype=np.int64)
    first, element, vec = level.first, level.element, level.vec
    m, v = level.keys[:, :n * n].reshape(-1, n, n), level.keys[:, n * n:]
    step = affine.reduced_steps(rs, *(np.repeat(a[first], letters, axis=0) for a in (m, v, q)),
                                np.tile(np.arange(letters), len(first)))
    assert linalg.peak(vec) + max(scales) * linalg.peak(step.k) < linalg.INT64_LIMIT, \
        "int64 bound of the size vectors"
    grid = element[:, None] * letters + np.arange(letters)  # (row, letter) -> step row
    row, letter = np.nonzero(step.positive[grid])
    src = grid[row, letter]
    vec = vec[row]
    vec[np.arange(len(row)), letter] += scales[letter] * step.k[src]
    kept = _first_rows(np.column_stack([step.m[src].reshape(len(src), -1), step.v[src], vec]))[0]
    row, letter, src, vec = row[kept], letter[kept], src[kept], vec[kept]
    point = np.empty((len(row), n), dtype=np.int64)
    for i in range(letters):
        at = letter == i
        point[at] = affine.letter_element(rs, i).step(level.point[row[at]])
    least = np.column_stack([level.least[row], letter])
    return _frozen_level(step.m[src], step.v[src], vec, point, least), step.q[src]


def check_sizer(types=tuple(dict(DEFAULT_MATRIX)), count: int = 1000) -> list:
    """Word-side size equals lattice-side size on the shortest elements of
    each type: ``_word_walk``'s rows, level by level, until a level ends
    with at least ceil(count / types) rows checked, so at least ``count`` in
    all.  Each level's vectors meet one ``affine.size_vector_numerators``
    block of its points.  A record's word w is a row's least word reversed,
    so that its point is apply(w, 0)."""
    per_type = -(-count // len(types)) if types else 0  # ceil: at least ``count`` rows total; no types, no rows

    def check(rs):
        checked = 0
        for level in _word_walk(rs):
            half, odd = np.divmod(affine.size_vector_numerators(rs, level.point)[1], 2)
            for r in np.flatnonzero(((odd != 0) | (half != level.vec)).any(axis=1)).tolist():
                yield {"word": level.least[r, ::-1].tolist()}
            checked += len(level.vec)
            if checked >= per_type:
                break
    return _counterexamples(({"type": t}, partial(check, build_named(t))) for t in types)


def check_welldef(types=tuple(dict(DEFAULT_MATRIX)), max_len: int = 8) -> list:
    """All reduced words of one element give one size vector, invariant under
    appending a finite letter on the left of the word (right-multiplication of
    the represented coset element).

    ``_word_walk`` goes to ``max_len``; a row whose vector differs from that
    of its element's first row is a counterexample, reported with its least
    word.  Then ``_left_mismatches`` moves every element by each finite
    letter."""
    def check(rs):
        elements, priors = [], []  # each level's distinct elements as (m, v) rows, and their vectors
        for level in itertools.islice(_word_walk(rs), max_len + 1):
            prior = level.vec[level.first]
            for r in np.flatnonzero((level.vec != prior[level.element]).any(axis=1)).tolist():
                yield {"word": level.least[r].tolist(), "sizes": [str(x) for x in level.vec[r].tolist()],
                       "other": [str(x) for x in prior[level.element[r]].tolist()]}
            elements.append(level.keys[level.first])
            priors.append(prior)
        yield from _left_mismatches(rs, np.concatenate(elements), np.concatenate(priors))
    return _counterexamples(({"type": t}, partial(check, build_named(t))) for t in types)


def check_ip_content() -> list:
    """Content-class counts equal the lattice statistics, and toggling is
    equivariant with the simple reflections, over all a-cores with at most
    60 boxes, a = 3, 4, 5, each a as whole arrays: one block of the cores
    of ``cores.core_closure``, their levels from one ``cores.coroot_block``
    and their coordinates (partial sums of the levels) in one checked step,
    one letter step per letter, and one ``cores.abacus_block`` of the
    cores of all moved points, against the toggles that the closure made.
    A non-core fails the identity: its content counts are no core's."""
    def check(a):
        t = CartanType("A", a - 1)
        rs = build(t)
        all_parts, toggles = cores.core_closure(a, 60)
        block = cores.PartitionBlock.of(all_parts)
        x = linalg.AffineRows(np.tri(a - 1, a, dtype=np.int64), [0] * (a - 1))(cores.coroot_block(block, a))
        moved = np.stack([affine.letter_element(rs, i).step(x) for i in range(a)], axis=1).reshape(-1, a - 1)
        # most letters fix their core: each distinct moved point is converted once
        first, which = _first_rows(moved)
        moved_cores = cores.abacus_block(a, models.level_step(t)(moved[first])).partitions()
        which = which.tolist()
        half, odd = np.divmod(affine.size_vector_numerators(rs, x)[1], 2)
        wrong = ((odd != 0) | (half != cores.content_counts(block, a))).any(axis=1).tolist()
        for n, parts in enumerate(all_parts):
            if wrong[n]:
                yield {"partition": list(parts)}
                continue
            for i, toggled in enumerate(toggles[n]):
                if toggled != moved_cores[which[n * a + i]]:
                    yield {"partition": list(parts), "letter": i}
    return _counterexamples(({"a": a}, partial(check, a)) for a in (3, 4, 5))


def model_test_points(t: CartanType, radius: int):
    """At least ``MODEL_MIN_POINTS`` distinct lattice points: the full grid of
    the given radius when small enough, else a random sample (seed 5) of it."""
    pts = list(itertools.product(range(-radius, radius + 1), repeat=t.rank))
    if len(pts) > 2 * MODEL_MIN_POINTS:
        pts = random.Random(5).sample(pts, MODEL_MIN_POINTS)
    assert len(pts) >= MODEL_MIN_POINTS
    return pts


def check_models() -> list:
    """Embedding equivariance and the size correspondence per model type, each
    grid as one int64 block; a point's records: generator i, size_index i, total."""
    def check(name, radius):
        t = CartanType.parse(name)
        rs = build(t)
        points = model_test_points(t, radius)
        x = np.array(points, dtype=np.int64)
        level = models.level_step(t)
        images = level(x)
        model, lattice = models.size_numerators(t, x)[1], affine.size_vector_numerators(rs, x)[1]
        d, total = affine.size_numerators(rs, x)
        twice, rest = np.divmod(total, d // 2)  # d = 2 h f is even, and 2 size = s / (h f)
        wrong = []
        for i in range(t.rank + 1):
            moved = level(affine.letter_element(rs, i).step(x))
            wrong += [(moved != models.generator_step(t, i)(images)).any(axis=1),
                      model[:, i] != lattice[:, i]]
        wrong.append((rest != 0) | (twice != model[:, -1]))
        found = [{k: i} for i in range(t.rank + 1) for k in ("generator", "size_index")] + [{"total": True}]
        for row, col in zip(*(a.tolist() for a in np.nonzero(np.column_stack(wrong)))):
            yield {"point": list(points[row]), **found[col]}
    return _counterexamples(({"type": name}, partial(check, name, radius))
                            for name, radius in MODEL_POINT_GRIDS)


def check_haiman(matrix=DEFAULT_MATRIX + E_TYPES) -> list:
    """Point counts of dilated alcoves against the product formula, in both
    lattices from one walk, block by block with no array kept: the coweight
    points are the rows of ``sommers.alcove_blocks``, the coroot points the
    rows ``sommers.coroot_mask`` keeps.  A count over the cap is refused up front."""
    def check(rs, b):
        predicted = sommers.capped_haiman_count(rs, b)
        coroot = coweight = 0
        for m in sommers.alcove_blocks(rs, b):
            coroot += int(sommers.coroot_mask(rs, m).sum())
            coweight += len(m)
        if coroot != predicted or coweight != rs.index_of_connection * predicted:
            yield {"count": coroot, "coweight_count": coweight, "predicted": predicted}
    return _counterexamples(_by_type_and_b(matrix, check))


def check_strange() -> list:
    def check(rs):
        lhs = rootsys.norm2(rs, rs.rho_check_coords)
        rhs = Fraction(rs.ratio_r * rs.dual_coxeter_number
                       * rs.rank * (rs.coxeter_number + 1), 12)
        if lhs != rhs:
            yield {"lhs": str(lhs), "rhs": str(rhs)}
    return _counterexamples(({"type": name}, partial(check, build_named(name)))
                            for name in ALL_FAMILY_NAMES)


def check_typea() -> list:
    """The a-core factorization of the partition series to x^20, a = 2, 3, 4."""
    def check(a):
        ehrhart.typea_series_check(a, 20)
    return _counterexamples(({"a": a}, partial(check, a)) for a in (2, 3, 4))


def check_fg_poly() -> list:
    """F4/G2 quasipolynomial fits must match the closed form implied by the
    count and expectation formulas, on every residue coprime to h."""
    def check(rs, residue, predicted):
        coeffs = ehrhart.interpolate(rs, residue)
        if coeffs != predicted:
            yield {"fit": [str(c) for c in coeffs], "predicted": [str(c) for c in predicted]}

    def cases():
        for name in ("G2", "F4"):
            rs = build_named(name)
            predicted = ehrhart.predicted_enumerator_polynomial(rs)
            for residue in range(rs.period_c):
                if gcd(residue, rs.coxeter_number) == 1:
                    yield {"type": name, "residue": residue}, partial(check, rs, residue, predicted)
    return _counterexamples(cases())


def check_conjecture(matrix=None) -> list:
    """Weak-order maximality of w_b, as evidence: for the dominant
    representative w~_q of every q in the b-region, inv(w~_q) lies in
    inv(w_b), and w_b is that of q* = w_b^-1(0).  The inversions of a
    dominant alcove with interior point y are the H_{alpha,k}, alpha > 0 and
    1 <= k <= floor(<y, alpha>); w~_q has y_q, the dominant conjugate of
    rhocheck/h - q, and w_b has b rhocheck/h.  So a case is one block: the
    pairings h <y_q, alpha_j> from 1 - h <q, alpha_j> by
    ``affine.dominant_rows``, one product with the positive roots, and
    floor(<y_q, alpha>) <= floor(b ht(alpha) / h); q*'s row must pair to
    (b, ..., b).  A failing point is a (q, reason) pair, the reason the
    first three sorted -alpha + k delta of inv(w~_q) - inv(w_b).  The
    default is every ``ALL_FAMILY_NAMES`` type at b = h - 1 and h + 1, each
    h read when the suite runs."""
    if matrix is None:
        matrix = [(t, (h - 1, h + 1)) for t in ALL_FAMILY_NAMES for h in [build_named(t).coxeter_number]]

    def check(rs, b):
        h, roots = rs.coxeter_number, [r.coeffs for r in rs.positive_roots]
        rows = sommers.enumerate_cores(rs, b).point_rows
        pairings = linalg.AffineRows([[-h * x for x in row] for row in rs.cartan_matrix], [1] * rs.rank)(rows)
        dominant = affine.dominant_rows(rs, pairings)
        floors = linalg.AffineRows(roots, [0] * len(roots))(dominant) // h
        tops = [b * r.height // h for r in rs.positive_roots]
        q_star = affine.compute_w_b(rs, b).inverse().v
        moved, over = (rows == q_star).all(axis=1) & (dominant != b).any(axis=1), floors > tops
        found = []
        for r in np.flatnonzero(moved | over.any(axis=1)).tolist():
            extra = [affine.AffineRoot(tuple(-c for c in roots[j]), k) for j in np.flatnonzero(over[r]).tolist()
                     for k in range(tops[j] + 1, floors[r, j] + 1)]
            found.append((tuple(rows[r].tolist()),
                          "w_b is not the dominant representative" if moved[r] else sorted(extra)[:3]))
        if found:
            yield {"counterexamples": [str(c) for c in found]}
    return _counterexamples(_by_type_and_b(matrix, check))


#: theorem id -> the flags its check's keywords read, in order: read at import, before any
#: ``*args, **kwargs`` wrapper replaces a check; a keyword not in ``KEYWORD_FLAGS`` fails here
SUITES = {theorem: tuple(flag for keyword in inspect.signature(globals()[f"check_{theorem}"]).parameters
                         for flag in KEYWORD_FLAGS[keyword]) for theorem in THEOREMS}
