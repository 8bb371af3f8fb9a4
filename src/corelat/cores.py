"""Core partitions, boundary words, abaci, and the coroot-lattice bijection.

Conventions:

* Partitions are weakly decreasing tuples of positive ints (English notation,
  row r has ``parts[r-1]`` boxes); the empty partition is ``()``.
* The boundary word of a partition assigns to every integer position p a
  bead: black (an up-step) iff p is in the beta-set {parts[i] - (i+1)}, read
  from south-west to north-east.  Rows of the a-abacus are the windows
  [a*k, a*k + a); runner j holds the positions congruent to j mod a.  With
  this alignment the abacus is automatically balanced, and the level of the
  lowest black bead on runner j is the coroot coordinate q_j.
* The content of the box in row r, column s is (s - r) mod a.  This is the
  convention under which the content class counts match the size_i lattice
  statistics and under which s_i toggles the class-i boxes equivariantly.

The abacus route has one block implementation in each direction:
``coroot_block`` reads the levels of a block of partitions off their
beta-sets, and ``abacus_block`` turns a block of level rows into partitions,
in checked int64 steps; each is the other's independent check, and
``to_coroot`` and ``from_coroot`` are their one-row views: one tuple in,
one tuple out.  A block of partitions has one internal form, the ragged
``PartitionBlock``: a flat int64 array of part lengths and the number of
parts of each partition.  ``abacus_block`` and ``PartitionBlock.of`` make
it, ``content_counts`` counts on it (or on one partition tuple).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import linalg

Partition = tuple[int, ...]

#: bead positions per int64 step of ``abacus_block``, and (row, class) cells of
#: ``content_counts``: bounds a step's memory whatever the size of the block
ABACUS_CELLS = 2**14


class NotACoreError(ValueError):
    def __init__(self, parts: Partition, a: int, cell: tuple[int, int]):
        self.parts, self.a, self.cell = parts, a, cell
        super().__init__(f"{parts} has a hook of length {a} at cell {cell}")


def _check_modulus(a: int) -> None:
    if a < 1:
        raise ValueError("modulus must be at least 1")


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if any(p <= 0 for p in parts) or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"{parts} is not a weakly decreasing tuple of positive integers")
    return parts


def conjugate(parts: Partition) -> Partition:
    """Transpose of the Ferrers diagram, in one pass from the bottom row up:
    row r adds a column of height r for each box it has past the rows below."""
    conj: list[int] = []
    for r in range(len(parts), 0, -1):
        conj.extend([r] * (parts[r - 1] - len(conj)))
    return tuple(conj)


def first_hook_of_length(parts: Partition, a: int):
    """The first box (row, col), 1-indexed in row-major order, whose hook
    has length a, or None: a direct scan of each row's boxes that reads only
    the parts and their conjugate.  The hook of (r, c) is
    parts[r-1] - c + conj[c-1] - r + 1.  A modulus below 1 raises ValueError."""
    _check_modulus(a)
    conj = conjugate(parts)
    return next(((r, c) for r, length in enumerate(parts, start=1) for c in range(1, length + 1)
                 if length - c + conj[c - 1] - r + 1 == a), None)


def is_core(parts: Partition, a: int) -> bool:
    """True iff no hook of length a exists (direct hook scan)."""
    return first_hook_of_length(parts, a) is None


@dataclass(frozen=True)
class BoundaryWord:
    """Boundary word with finite support: black beads below ``low`` everywhere,
    white beads from ``high`` upward, explicit beads on [low, high)."""

    low: int
    high: int
    beads: tuple[bool, ...]  # True = black = up-step

    def bead(self, p: int) -> bool:
        if p < self.low:
            return True
        if p >= self.high:
            return False
        return self.beads[p - self.low]

    def window(self, lo: int, hi: int) -> str:
        """The beads on [lo, hi): • black, ◦ white."""
        return "".join("•" if self.bead(p) else "◦" for p in range(lo, hi))

    def __str__(self):
        return self.window(self.low, self.high)


def boundary_word(parts: Partition) -> BoundaryWord:
    parts = check_partition(parts)
    if not parts:
        return BoundaryWord(0, 0, ())
    k = len(parts)
    blacks = {p - i for i, p in enumerate(parts, start=1)}  # the finite top of the beta-set
    low, high = -k, parts[0]
    return BoundaryWord(low, high, tuple(p in blacks for p in range(low, high)))


def to_coroot(parts: Partition, a: int) -> tuple[int, ...]:
    """Runner levels of the balanced flush a-abacus of an a-core: the
    one-row view of ``coroot_block``, after a hook scan.

    Raises NotACoreError (naming an offending hook of length a) otherwise.
    """
    parts = check_partition(parts)
    cell = first_hook_of_length(parts, a)
    if cell is not None:
        raise NotACoreError(parts, a, cell)
    q = tuple(coroot_block(PartitionBlock.of([parts]), a)[0].tolist())
    assert sum(q) == 0, "balanced abacus must have levels summing to zero"
    return q


@dataclass(frozen=True, eq=False)
class PartitionBlock:
    """A block of partitions in one ragged int64 form: ``lengths`` holds the
    parts of every partition, partition after partition, and ``rows`` the
    number of parts of each.  ``abacus_block`` and ``of`` make it,
    ``coroot_block`` and ``content_counts`` read it; ``partitions`` is its
    tuple view."""

    lengths: np.ndarray  # int64, every part of every partition
    rows: np.ndarray  # int64, the number of parts of each partition

    @classmethod
    def of(cls, partitions) -> PartitionBlock:
        """The block of a list of partition tuples, flattened in one pass."""
        return cls(np.fromiter(chain.from_iterable(partitions), dtype=np.int64),
                   np.fromiter(map(len, partitions), dtype=np.int64, count=len(partitions)))

    def partitions(self) -> list[Partition]:
        flat = iter(self.lengths.tolist())
        return [tuple(islice(flat, n)) for n in self.rows.tolist()]


def coroot_block(block: PartitionBlock, a: int) -> np.ndarray:
    """The runner levels of each partition of ``block``, a row each, in one
    int64 pass with no hook scan: on runner j, 1 + p // a for the highest
    beta-set position p = part_r - r on it, or with none, for the top of the
    tail below -k (k parts): 1 + (-k - 1 - j) // a.  An a-core's levels sum
    to zero, a non-core's to more.  No value passes max(l) + (parts) + a.
    A modulus below 1 raises ValueError."""
    _check_modulus(a)
    lengths, rows = block.lengths, block.rows
    assert int(lengths.max(initial=0)) + len(lengths) + a < linalg.INT64_LIMIT, "int64 bound of the levels"
    which = np.repeat(np.arange(len(rows)), rows)
    positions = lengths - 1 - np.arange(len(lengths)) + np.repeat(rows.cumsum() - rows, rows)  # part_r - r
    levels = 1 + (-1 - rows[:, None] - np.arange(a)) // a
    np.maximum.at(levels, (which, positions % a), 1 + positions // a)
    return levels


def from_coroot(a: int, q) -> Partition:
    """Inverse of ``to_coroot``: the a-core whose runner levels are the one
    sum-zero a-tuple q, the one-row view of ``abacus_block``.  Any q that
    is not one row raises ValueError."""
    levels = np.asarray(q, dtype=np.int64)
    if levels.ndim != 1:
        raise ValueError(f"expected one row of {a} runner levels, got shape {levels.shape}")
    return abacus_block(a, levels[None, :]).partitions()[0]


def abacus_block(a: int, levels) -> PartitionBlock:
    """The a-cores whose runner levels are the rows of the int64 array
    ``levels``, as one ``PartitionBlock``.

    Each row is read from its top position p = a max(q) - 1 down; the bead
    at p is black iff p // a < q[p mod a], and with i the black beads so
    far, each black bead with p + i > 0 is a part p + i.  The block goes
    through this in int64 steps of whole rows, at most ``ABACUS_CELLS`` bead
    positions each, padded to the widest row of the step: a (max(q) -
    min(q) + 1) positions.  Below its own window every bead of a row is
    black with p + i = 0, as the abacus is balanced, so the padding adds no
    part.  The block is checked once, before any step (``check_levels``).
    """
    levels = np.asarray(levels, dtype=np.int64)
    peak = check_levels(a, levels)
    rows = max(1, ABACUS_CELLS // (a * (2 * peak + 1)))  # no row is wider than a (2 peak + 1)
    steps = [_abacus_step(a, levels[lo:lo + rows]) for lo in range(0, len(levels), rows)]
    empty = np.zeros(0, dtype=np.int64)
    return PartitionBlock(np.concatenate([s.lengths for s in steps] or [empty]),
                          np.concatenate([s.rows for s in steps] or [empty]))


def check_levels(a: int, levels: np.ndarray) -> int:
    """The largest |level| of the int64 block ``levels``, once its rows are
    checked as a-abacus levels: a modulus below 1, a block that is not a 2-D
    array of rows of a levels, or a row not summing to zero raises
    ValueError, and the int64 bound (``abacus_bound``) is asserted.  A block
    that passes passes in every slice."""
    _check_modulus(a)
    if levels.ndim != 2 or levels.shape[1] != a:
        raise ValueError(f"expected rows of {a} runner levels, got shape {levels.shape}")
    peak = max(int(levels.max(initial=0)), -int(levels.min(initial=0)))
    assert abacus_bound(a, peak) < linalg.INT64_LIMIT, "int64 bound of the abacus"
    unbalanced = np.flatnonzero(levels.sum(axis=1))
    if unbalanced.size:
        row = tuple(levels[unbalanced[0]].tolist())
        raise ValueError(f"runner levels {row} must sum to zero")
    return peak


def _abacus_step(a: int, levels: np.ndarray) -> PartitionBlock:
    """The partitions of the rows of ``levels`` (a step of ``abacus_block``)."""
    hi = levels.max(axis=1)
    depth = int((hi - levels.min(axis=1)).max(initial=0)) + 1
    # window row m holds runners j = a - 1, ..., 0 at level hi - 1 - m: black iff q_j > hi - 1 - m
    black = levels[:, None, ::-1] >= (hi[:, None] - np.arange(depth))[:, :, None]
    black = black.reshape(len(levels), depth * a)
    # p + i, formed in place: the step's one int64 array
    values = black.cumsum(axis=1, dtype=np.int64)
    values += (a * hi - 1)[:, None]
    values -= np.arange(depth * a)
    black &= values > 0
    return PartitionBlock(values[black], black.sum(axis=1, dtype=np.int64))


def abacus_bound(a: int, peak: int) -> int:
    """a (3 peak + 1): no value that ``abacus_block`` forms on a block whose
    largest |level| is ``peak`` exceeds it.  In a row with top a hi, a
    position lies in [a hi - a (2 peak + 1), a hi), a bead count is at most
    the window width a (2 peak + 1), and position + count at a black bead
    lies between the position and a hi."""
    return a * (3 * peak + 1)


def content_counts(parts, a: int):
    """Number of boxes in each content class (s - r) mod a, box = (row r, col s).

    ``parts`` is one partition (a tuple), giving an a-tuple, or a
    ``PartitionBlock``, giving an int64 array with a row each.  Row r of
    length l has (l + a - 1 - (c + r - 1) mod a) // a boxes of class c.  A
    step counts whole partitions, at most ``ABACUS_CELLS`` (row, class)
    cells unless one partition alone has more, and sums them per partition
    by one cumulative sum.  No value passes (rows) (max(l) + a), asserted
    once per block.  A modulus below 1 raises ValueError."""
    _check_modulus(a)
    single = not isinstance(parts, PartitionBlock)
    block = PartitionBlock.of([parts]) if single else parts
    lengths, rows = block.lengths, block.rows
    assert len(lengths) * (int(lengths.max(initial=0)) + a) < linalg.INT64_LIMIT, "int64 bound of the contents"
    ends = rows.cumsum()
    starts = ends - rows
    counts = np.empty((len(rows), a), dtype=np.int64)
    lo = 0
    while lo < len(rows):
        hi = max(lo + 1, int(ends.searchsorted(starts[lo] + ABACUS_CELLS // a, side="right")))
        first, n = starts[lo], rows[lo:hi]
        step = lengths[first:ends[hi - 1]]
        r = np.arange(len(step)) - np.repeat(starts[lo:hi] - first, n)  # r - 1
        totals = np.zeros((len(step) + 1, a), dtype=np.int64)
        np.cumsum((step[:, None] + (a - 1) - (r[:, None] + np.arange(a)) % a) // a, axis=0, out=totals[1:])
        counts[lo:hi] = totals[ends[lo:hi] - first] - totals[starts[lo:hi] - first]
        lo = hi
    return tuple(counts[0].tolist()) if single else counts


def toggle_corners(parts: Partition, a: int) -> list[tuple[list[int], list[int]]]:
    """The rows of the addable and of the removable boxes of each content
    class, from one pass over the corners of ``parts``: row r of length l
    has an addable box (r, l + 1), of class (l + 1 - r) mod a, when the row
    above is longer (or r = 1), and a removable box (r, l), of class
    (l - r) mod a, when the row below is shorter.  A modulus below 1
    raises ValueError."""
    _check_modulus(a)
    corners: list = [([], []) for _ in range(a)]
    lengths = (*parts, 0)
    for r, (above, l, below) in enumerate(zip((lengths[0] + 1, *lengths), lengths, (*parts[1:], 0, 0)), 1):
        if above > l:
            corners[(l + 1 - r) % a][0].append(r)
        if l > below:
            corners[(l - r) % a][1].append(r)
    return corners


def _toggled(parts: Partition, i: int, adds: list[int], rems: list[int]) -> Partition:
    """``parts`` with the boxes of class i added at the rows ``adds``, or
    removed at the rows ``rems``; both at once raises."""
    if adds and rems:
        raise ValueError(f"toggling class {i} of {parts} would both add and remove boxes")
    if not (adds or rems):
        return parts
    step, rows = (1, adds) if adds else (-1, rems)
    toggled = list(parts) + [0]
    for r in rows:
        toggled[r - 1] += step
    while toggled and toggled[-1] == 0:
        toggled.pop()
    return tuple(toggled)


def toggle_action(parts: Partition, a: int, i: int) -> Partition:
    """Add all addable, or remove all removable, boxes with content i mod a:
    class i of ``toggle_corners``.  For an a-core the two cases never mix;
    a mixed case raises."""
    if not 0 <= i < a:
        raise ValueError(f"content class {i} out of range 0..{a - 1}")
    return _toggled(parts, i, *toggle_corners(parts, a)[i])


def conjugate_coroot(q) -> tuple[int, ...]:
    """Runner levels of the conjugate core: negate and reverse."""
    return tuple(-x for x in reversed(q))


def core_closure(a: int, max_boxes: int) -> tuple[list[Partition], list[tuple[Partition, ...]]]:
    """All a-cores with at most ``max_boxes`` boxes, sorted by size and then
    parts, and the row of a toggles (``toggle_action``) of each, from one
    breadth-first closure of the empty partition.  Each core's row comes
    from one pass over its corners (``toggle_corners``), sorted by content
    class; every a-core of size <= max_boxes is reached because each
    nonempty core admits a strictly size-decreasing toggle.  A modulus below
    2 raises ValueError: mod 1 every box has content class 0.  So does a
    negative ``max_boxes``, which no core fits."""
    if a < 2:
        raise ValueError("modulus must be at least 2")
    if max_boxes < 0:
        raise ValueError("max_boxes must be nonnegative")
    toggles: dict = {(): None}
    frontier = [()]
    while frontier:
        nxt = []
        for parts in frontier:
            toggles[parts] = row = tuple(_toggled(parts, i, *c) for i, c in enumerate(toggle_corners(parts, a)))
            for other in row:
                if other not in toggles and sum(other) <= max_boxes:
                    toggles[other] = None
                    nxt.append(other)
        frontier = nxt
    order = sorted(toggles, key=lambda p: (sum(p), p))
    return order, [toggles[p] for p in order]


def all_cores(a: int, max_boxes: int) -> list[Partition]:
    """All a-cores with at most ``max_boxes`` boxes: the cores of ``core_closure``."""
    return core_closure(a, max_boxes)[0]


def self_conjugate_partitions_up_to(max_boxes: int) -> list[Partition]:
    """All self-conjugate partitions with at most ``max_boxes`` boxes.

    Generated from their principal hooks: a self-conjugate partition
    corresponds to a strictly decreasing sequence of odd diagonal hook
    lengths, whose sum is the number of boxes.
    """
    results = []

    def rebuild(hooks):
        m = len(hooks)
        arms = [(d - 1) // 2 for d in hooks]
        rows = [arms[i] + i + 1 for i in range(m)]
        for r in range(m + 1, (rows[0] if rows else 0) + 1):
            width = sum(1 for i in range(m) if rows[i] >= r)
            if width == 0:
                break
            rows.append(width)
        return tuple(rows)

    def grow(hooks, total, next_max):
        results.append(rebuild(hooks))
        d = min(next_max, max_boxes - total)
        if d % 2 == 0:
            d -= 1
        while d >= 1:
            grow(hooks + [d], total + d, d - 2)
            d -= 2

    grow([], 0, max_boxes)
    return sorted(set(results), key=lambda p: (sum(p), p))
