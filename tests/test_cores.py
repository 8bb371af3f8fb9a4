import itertools
import math
import re
import tracemalloc
from typing import Iterator
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelat import affine, cores, linalg, models, rootsys, verify
from corelat.cores import (
    NotACoreError,
    Partition,
    all_cores,
    boundary_word,
    conjugate,
    conjugate_coroot,
    content_counts,
    core_closure,
    first_hook_of_length,
    from_coroot,
    is_core,
    to_coroot,
    toggle_action,
)


# ---------------------------------------------------------------------------
# boundary words
# ---------------------------------------------------------------------------

def test_boundary_word_reference():
    bw = boundary_word((5, 3, 1, 1))
    assert bw.window(-6, 7) == "••◦••◦◦•◦◦•◦◦"


def test_boundary_word_empty():
    bw = boundary_word(())
    assert bw.window(-3, 3) == "•••◦◦◦"
    assert str(bw) == ""


def test_boundary_word_single_box():
    bw = boundary_word((1,))
    assert bw.window(0, 2) == "•◦"
    assert bw.window(-2, 0) == "•◦"
    assert bw.bead(0) and not bw.bead(-1)
    assert bw.bead(-2) and not bw.bead(1)


# ---------------------------------------------------------------------------
# the abacus bijection
# ---------------------------------------------------------------------------

def test_to_coroot_reference():
    assert to_coroot((5, 3, 1, 1), 3) == (0, 2, -2)
    assert to_coroot((), 5) == (0, 0, 0, 0, 0)
    assert to_coroot((4, 3, 2, 1), 4) == (-1, 1, -1, 1)


def test_from_coroot_reference():
    assert from_coroot(3, (0, 2, -2)) == (5, 3, 1, 1)
    assert from_coroot(4, (0, 0, 0, 0)) == ()
    assert from_coroot(4, (-1, 1, -1, 1)) == (4, 3, 2, 1)


def test_to_coroot_rejects_non_core():
    with pytest.raises(NotACoreError) as err:
        to_coroot((5, 3, 1, 1), 4)
    assert err.value.a == 4


def test_from_coroot_rejects_unbalanced():
    with pytest.raises(ValueError):
        from_coroot(3, (1, 0, 0))
    with pytest.raises(ValueError):
        from_coroot(3, (1, -1))
    with pytest.raises(ValueError, match=r"runner levels \(1, 0, -2\) must sum to zero"):
        cores.abacus_block(3, [(0, 0, 0), (1, 0, -2), (2, 0, -2)])


def test_from_coroot_is_the_one_row_view_of_abacus_block():
    assert from_coroot(3, (0, 2, -2)) == (5, 3, 1, 1)
    assert cores.abacus_block(3, [(0, 2, -2), (0, 0, 0)]).partitions() == [(5, 3, 1, 1), ()]
    assert cores.abacus_block(3, [(0, 2, -2)]).partitions() == [(5, 3, 1, 1)]
    assert cores.abacus_block(3, np.zeros((0, 3), dtype=np.int64)).partitions() == []


@pytest.mark.parametrize("make, levels, shape", [
    (cores.abacus_block, np.array([0, 0, 0]), "(3,)"),  # one row, not a block of rows
    (cores.abacus_block, np.zeros((2, 2, 3), dtype=np.int64), "(2, 2, 3)"),
    (cores.abacus_block, np.zeros((2, 4), dtype=np.int64), "(2, 4)"),
    (from_coroot, [[(0, 0, 0)]], "(1, 1, 3)"),  # a block, not one row
    (from_coroot, [(0, 0, 0), (1, 0, -1)], "(2, 3)"),
])
def test_levels_of_the_wrong_shape_are_refused_by_their_shape(make, levels, shape):
    with pytest.raises(ValueError, match=rf"runner levels, got shape {re.escape(shape)}$"):
        make(3, levels)


@pytest.mark.parametrize("a", [2, 3, 7])
def test_from_coroot_asserts_its_int64_bound_once_per_block(a):
    """Every value ``abacus_block`` forms is within a (3 L + 1) for the
    block's largest |level| L: the bound admits L = top and refuses
    L = top + 1.  A block with one row past it is refused before anything
    is formed, and so is that row alone, through its one-row view
    ``from_coroot``; the step at top itself would need a window of
    a (2 top + 1) int64 positions per row, so it is not run."""
    top = ((linalg.INT64_LIMIT - 1) // a - 1) // 3
    assert cores.abacus_bound(a, top) < linalg.INT64_LIMIT <= cores.abacus_bound(a, top + 1)
    far = (0,) * (a - 2) + (top + 1, -top - 1)
    with pytest.raises(AssertionError, match="int64 bound of the abacus"):
        cores.abacus_block(a, [(0,) * a, far])
    with pytest.raises(AssertionError, match="int64 bound of the abacus"):
        from_coroot(a, far)


@pytest.mark.parametrize("a", [2, 3, 7])
def test_abacus_content_counts_asserts_its_int64_bound_once_per_block(a):
    """Every value ``abacus_content_counts`` forms is within a (2 L + 1)^2
    for the block's largest |level| L, which grows quadratically in L where
    ``abacus_bound`` grows linearly: the bound admits L = top and refuses
    L = top + 1, which ``check_levels`` passes.  A block with one row past
    it is refused before any window is made."""
    top = (math.isqrt((linalg.INT64_LIMIT - 1) // a) - 1) // 2
    assert cores.content_bound(a, top) < linalg.INT64_LIMIT <= cores.content_bound(a, top + 1)
    assert cores.abacus_bound(a, top + 1) < linalg.INT64_LIMIT
    far = (0,) * (a - 2) + (top + 1, -top - 1)
    with patch.object(cores, "_abacus_window", wraps=cores._abacus_window) as window:
        with pytest.raises(AssertionError, match="int64 bound of the content counts"):
            cores.abacus_content_counts(a, [(0,) * a, far])
    assert window.call_count == 0


@pytest.mark.parametrize("levels, error", [
    (np.array([0, 0, 0]), r"runner levels, got shape \(3,\)$"),
    (np.zeros((2, 2, 3), dtype=np.int64), r"runner levels, got shape \(2, 2, 3\)$"),
    (np.zeros((2, 4), dtype=np.int64), r"runner levels, got shape \(2, 4\)$"),
    ([(0, 0, 0), (1, 0, -2)], r"^runner levels \(1, 0, -2\) must sum to zero$"),
])
def test_abacus_content_counts_refuses_what_check_levels_refuses(levels, error):
    with pytest.raises(ValueError, match=error):
        cores.abacus_content_counts(3, levels)
    with pytest.raises(ValueError, match=error):
        cores.check_levels(3, np.asarray(levels, dtype=np.int64))


def test_abacus_content_counts_memory_does_not_grow_with_the_block():
    # as for abacus_block: one wide row would pad 20,000 rows to 404
    # positions in a single step; steps of ABACUS_CELLS positions stay under 1 MB
    levels = np.zeros((20000, 4), dtype=np.int64)
    levels[7] = (50, -50, 0, 0)
    tracemalloc.start()
    try:
        counts = cores.abacus_content_counts(4, levels)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.shape == (20000, 4) and counts.dtype == np.int64
    assert tuple(counts[7].tolist()) == content_counts(from_coroot(4, (50, -50, 0, 0)), 4)
    assert counts.sum() == counts[7].sum() == sum(from_coroot(4, (50, -50, 0, 0)))
    assert peak - current < 2**20


def test_abacus_block_memory_does_not_grow_with_the_block():
    # one wide row pads 20,000 rows to 404 positions: 8 M cells in a single
    # step, about 130 MB; steps of ABACUS_CELLS positions stay under 1 MB
    levels = np.zeros((20000, 4), dtype=np.int64)
    levels[7] = (50, -50, 0, 0)
    tracemalloc.start()
    try:
        block = cores.abacus_block(4, levels)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    parts = block.partitions()
    assert parts[7] == from_coroot(4, (50, -50, 0, 0)) and parts.count(()) == 19999
    assert peak - current < 2**20


def count_calls(monkeypatch, *names) -> dict:
    """The moduli each of the ``cores`` functions ``names`` is called with."""
    calls = {name: [] for name in names}
    for name, seen in calls.items():
        real = getattr(cores, name)
        monkeypatch.setattr(cores, name, lambda a, q, real=real, seen=seen: seen.append(a) or real(a, q))
    return calls


@pytest.mark.parametrize("theorem,most", [("ip_content", 3)])
def test_verify_suites_call_abacus_block_once_per_block(monkeypatch, theorem, most):
    # one abacus_block per a, not one from_coroot per row
    calls = count_calls(monkeypatch, "from_coroot", "abacus_block")
    assert verify.run(theorem)["pass"]
    assert 0 < len(calls["abacus_block"]) <= most and calls["from_coroot"] == []


def test_models_suite_counts_contents_on_the_abacus_and_makes_no_partition(monkeypatch):
    # one abacus_content_counts per model type, and no PartitionBlock at all
    calls = count_calls(monkeypatch, "from_coroot", "abacus_block", "abacus_content_counts")
    made = []

    class Counted(cores.PartitionBlock):
        def __init__(self, *fields):
            made.append(len(fields))
            super().__init__(*fields)
    monkeypatch.setattr(cores, "PartitionBlock", Counted)
    assert verify.run("models")["pass"]
    assert 0 < len(calls["abacus_content_counts"]) <= len(verify.MODEL_POINT_GRIDS) == 6
    assert calls["abacus_block"] == calls["from_coroot"] == made == []


@pytest.mark.parametrize("a", [3, 4, 5])
def test_bijection_roundtrip(a):
    for parts in all_cores(a, 60):
        q = to_coroot(parts, a)
        assert sum(q) == 0
        assert from_coroot(a, q) == parts
        # hook-freeness of every from_coroot output
        assert is_core(parts, a)


@pytest.mark.parametrize("a, max_boxes", [(1, 0), (1, 3), (0, 0), (0, 3), (-2, 3)])
def test_core_closure_refuses_a_modulus_below_2(a, max_boxes):
    """With a = 1 every box has content class 0, so toggling would reach the
    non-core (1,); a = 0 would divide by zero.  Both are refused up front,
    even when no box is allowed."""
    for closure in (core_closure, all_cores):
        with pytest.raises(ValueError, match="^modulus must be at least 2$"):
            closure(a, max_boxes)


@pytest.mark.parametrize("a", [2, 5])
def test_core_closure_refuses_a_negative_max_boxes(a):
    """No core has fewer than 0 boxes, not even the empty one."""
    assert all_cores(a, 0) == [()]
    for closure in (core_closure, all_cores):
        with pytest.raises(ValueError, match="^max_boxes must be nonnegative$"):
            closure(a, -1)


#: each entry point that reads a modulus, on a modulus below 1
BELOW_ONE = {
    "first_hook_of_length": lambda a: first_hook_of_length((1,), a),
    "is_core": lambda a: is_core((2, 1), a),
    "to_coroot": lambda a: to_coroot((1,), a),
    "coroot_block": lambda a: cores.coroot_block(cores.PartitionBlock.of([(1,)]), a),
    "content_counts": lambda a: content_counts((1,), a),
    "toggle_corners": lambda a: cores.toggle_corners((1,), a),
    "from_coroot": lambda a: from_coroot(a, ()),
    "abacus_block": lambda a: cores.abacus_block(a, np.zeros((1, 0), dtype=np.int64)),
    "abacus_content_counts": lambda a: cores.abacus_content_counts(a, np.zeros((1, 0), dtype=np.int64)),
}


@pytest.mark.parametrize("name", BELOW_ONE)
@pytest.mark.parametrize("a", [0, -1])
def test_a_modulus_below_1_is_refused(name, a):
    with pytest.raises(ValueError, match="^modulus must be at least 1$"):
        BELOW_ONE[name](a)


def test_modulus_1_is_read():
    assert from_coroot(1, (0,)) == ()
    assert content_counts((2, 1), 1) == (3,)
    assert is_core((1,), 1) is False


@pytest.mark.parametrize("a", [3, 4, 5])
def test_core_enumeration_complete(a):
    """The toggle-closure count matches a direct lattice-ball count.

    The ball scan uses the integer formula for the number of boxes of the
    core with balanced runner levels q: (a/2) sum q_j^2 + sum (j-1) q_j.
    """
    cap = 40
    by_bfs = sum(1 for parts in all_cores(a, cap))
    radius = 9
    count = 0
    for head in itertools.product(range(-radius, radius + 1), repeat=a - 1):
        q = head + (-sum(head),)
        double_size = a * sum(x * x for x in q) + 2 * sum(j * x for j, x in enumerate(q))
        if double_size <= 2 * cap:
            assert all(abs(x) < radius - 1 for x in q), "ball radius too small"
            count += 1
    assert count == by_bfs
    # spot-check the integer formula against the partition itself
    for parts in all_cores(a, cap)[:50]:
        q = to_coroot(parts, a)
        assert a * sum(x * x for x in q) + 2 * sum(j * x for j, x in enumerate(q)) == 2 * sum(parts)


# ---------------------------------------------------------------------------
# the hook scan against every box
# ---------------------------------------------------------------------------

def hook_lengths(parts: Partition) -> Iterator[tuple[int, int, int]]:
    """Yield (row, col, hook length) for every box, 1-indexed."""
    conj = conjugate(parts)
    for r, row_len in enumerate(parts, start=1):
        for c in range(1, row_len + 1):
            yield r, c, row_len - c + conj[c - 1] - r + 1


def first_hook_by_boxes(parts: Partition, a: int):
    """The first box in row-major order whose hook has length a, box by box."""
    return next(((r, c) for r, c, h in hook_lengths(parts) if h == a), None)


@pytest.mark.parametrize("a", [3, 4, 5])
def test_hook_bisection_equals_the_box_scan_on_cores(a):
    for parts in core_closure(a, 60)[0]:
        for length in range(1, 3 * a):
            assert first_hook_of_length(parts, length) == first_hook_by_boxes(parts, length)
        assert first_hook_of_length(parts, a) is None


PARTITIONS = st.lists(st.integers(1, 15), max_size=12).map(lambda parts: tuple(sorted(parts, reverse=True)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PARTITIONS, st.integers(1, 8))
def test_hook_bisection_equals_the_box_scan(parts, a):
    assert conjugate(parts) == tuple(sum(1 for p in parts if p >= c) for c in range(1, max(parts, default=0) + 1))
    assert first_hook_of_length(parts, a) == first_hook_by_boxes(parts, a)


# ---------------------------------------------------------------------------
# content counts
# ---------------------------------------------------------------------------

def test_content_counts_reference():
    assert content_counts((5, 3, 1, 1), 3) == (4, 4, 2)
    assert content_counts((), 3) == (0, 0, 0)
    assert content_counts((4, 3, 2, 1), 4) == (2, 3, 2, 3)


def test_content_counts_sum():
    for parts in all_cores(4, 30):
        assert sum(content_counts(parts, 4)) == sum(parts)


@pytest.mark.parametrize("a", [3, 4, 5])
def test_content_formula(a):
    """content class counts equal the lattice statistics of the coroot."""
    rs = rootsys.build(rootsys.CartanType("A", a - 1))
    for parts in all_cores(a, 60):
        q = models.type_a_coords_from_ambient(to_coroot(parts, a))
        counts = content_counts(parts, a)
        for i in range(a):
            assert counts[i] == affine.size_i_lattice(rs, q, i)


# ---------------------------------------------------------------------------
# the toggle action
# ---------------------------------------------------------------------------

def test_toggle_reference():
    assert toggle_action((), 3, 0) == (1,)
    assert toggle_action((), 3, 1) == ()
    assert toggle_action((1,), 3, 0) == ()


def toggle_by_boxes(parts, a, i):
    """The toggle of class i, box by box: the cells of content i mod a that
    can be added to or removed from the diagram, one at a time; None when
    there are both."""
    boxes = {(r, c) for r, length in enumerate(parts, 1) for c in range(1, length + 1)}
    cells = {(r, c) for r in range(1, len(parts) + 2) for c in range(1, (parts[0] if parts else 0) + 2)}
    adds = {(r, c) for r, c in cells - boxes
            if (c == 1 or (r, c - 1) in boxes) and (r == 1 or (r - 1, c) in boxes)}
    rems = {(r, c) for r, c in boxes if (r, c + 1) not in boxes and (r + 1, c) not in boxes}
    adds, rems = ({(r, c) for r, c in found if (c - r) % a == i} for found in (adds, rems))
    if adds and rems:
        return None
    boxes = (boxes | adds) - rems
    rows = [sum(1 for r, _ in boxes if r == row) for row in range(1, len(parts) + 2)]
    return tuple(x for x in rows if x)


def partitions_up_to(n):
    """Every partition with at most n boxes."""
    def below(total, largest):
        yield ()
        for first in range(min(total, largest), 0, -1):
            for rest in below(total - first, first):
                yield (first, *rest)
    return list(below(n, n))


@pytest.mark.parametrize("a", [2, 3, 4, 5])
def test_toggle_equals_the_box_by_box_toggle(a):
    """On every partition of at most 9 boxes, cores and non-cores: the same
    partition, or a refusal exactly where the class both adds and removes."""
    mixed = 0
    for parts in partitions_up_to(9):
        for i in range(a):
            expected = toggle_by_boxes(parts, a, i)
            if expected is None:
                mixed += 1
                with pytest.raises(ValueError, match="would both add and remove"):
                    toggle_action(parts, a, i)
            else:
                assert toggle_action(parts, a, i) == expected, (parts, i)
    assert mixed > 0
    # class 1 of (2,) adds (2, 1) and removes (1, 2)
    assert toggle_by_boxes((2,), 2, 1) is None


def test_toggle_involution_and_core():
    for a in (3, 4):
        for parts in all_cores(a, 40):
            for i in range(a):
                other = toggle_action(parts, a, i)
                assert is_core(other, a)
                assert toggle_action(other, a, i) == parts


@pytest.mark.parametrize("a", [3, 4, 5])
def test_toggle_equivariance(a):
    """s_i on runner levels: adjacent swap for i != 0, wrap-shift for i = 0."""
    for parts in all_cores(a, 60):
        q = to_coroot(parts, a)
        for i in range(a):
            if i == 0:
                expected = (q[-1] + 1,) + q[1:-1] + (q[0] - 1,)
            else:
                expected = q[:i - 1] + (q[i], q[i - 1]) + q[i + 1:]
            assert to_coroot(toggle_action(parts, a, i), a) == expected


def test_toggle_braid_relations():
    a = 4
    sample = all_cores(a, 25)
    for parts in sample:
        for i in range(a):
            for j in range(a):
                if i == j:
                    continue
                adjacent = (j - i) % a in (1, a - 1)
                if adjacent:
                    lhs = toggle_action(toggle_action(toggle_action(parts, a, i), a, j), a, i)
                    rhs = toggle_action(toggle_action(toggle_action(parts, a, j), a, i), a, j)
                else:
                    lhs = toggle_action(toggle_action(parts, a, i), a, j)
                    rhs = toggle_action(toggle_action(parts, a, j), a, i)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_reference():
    assert conjugate((5, 3, 1, 1)) == (4, 2, 2, 1, 1)
    assert conjugate_coroot((0, 2, -2)) == (2, -2, 0)
    assert conjugate((4, 3, 2, 1)) == (4, 3, 2, 1)


def test_conjugate_compatible_with_coroot():
    for a in (3, 4):
        for parts in all_cores(a, 40):
            assert to_coroot(conjugate(parts), a) == conjugate_coroot(to_coroot(parts, a))


# ---------------------------------------------------------------------------
# a core is a partition tuple
# ---------------------------------------------------------------------------

def test_core_partition_class():
    core = (5, 3, 1, 1)
    assert content_counts(core, 3) == (4, 4, 2)
    assert sum(core) == 10
    assert to_coroot(core, 3) == (0, 2, -2)
    assert is_core(toggle_action(core, 3, 0), 3)
    assert conjugate(core) == (4, 2, 2, 1, 1) and is_core(conjugate(core), 3)
    with pytest.raises(NotACoreError):
        to_coroot(core, 4)


def test_self_conjugate_generator():
    seen = cores.self_conjugate_partitions_up_to(12)
    brute = []
    # brute force over all partitions with at most 12 boxes
    def partitions(n, most):
        if n == 0:
            yield ()
            return
        for first in range(min(n, most), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest
    for n in range(13):
        for parts in partitions(n, n if n else 1):
            if conjugate(parts) == parts:
                brute.append(parts)
    assert sorted(seen) == sorted(brute)

