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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

Partition = tuple[int, ...]


class NotACoreError(ValueError):
    def __init__(self, parts: Partition, a: int, cell: tuple[int, int]):
        self.parts, self.a, self.cell = parts, a, cell
        super().__init__(f"{parts} has a hook of length {a} at cell {cell}")


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if any(p <= 0 for p in parts) or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"{parts} is not a weakly decreasing tuple of positive integers")
    return parts


def conjugate(parts: Partition) -> Partition:
    """Transpose of the Ferrers diagram."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1))


def hook_lengths(parts: Partition) -> Iterator[tuple[int, int, int]]:
    """Yield (row, col, hook length) for every box, 1-indexed."""
    conj = conjugate(parts)
    for r, row_len in enumerate(parts, start=1):
        for c in range(1, row_len + 1):
            yield r, c, row_len - c + conj[c - 1] - r + 1


def first_hook_of_length(parts: Partition, a: int):
    for r, c, h in hook_lengths(parts):
        if h == a:
            return (r, c)
    return None


def is_core(parts: Partition, a: int) -> bool:
    """True iff no hook of length a exists (direct hook scan)."""
    return first_hook_of_length(parts, a) is None


def beta_set(parts: Partition) -> list[int]:
    """The finite top of the beta-set: parts[i] - (i+1) for each row."""
    return [p - i for i, p in enumerate(parts, start=1)]


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
    blacks = set(beta_set(parts))
    low, high = -k, parts[0]
    return BoundaryWord(low, high, tuple(p in blacks for p in range(low, high)))


def to_coroot(parts: Partition, a: int) -> tuple[int, ...]:
    """Runner levels of the balanced flush a-abacus of an a-core.

    Raises NotACoreError (naming an offending hook of length a) otherwise.
    """
    parts = check_partition(parts)
    cell = first_hook_of_length(parts, a)
    if cell is not None:
        raise NotACoreError(parts, a, cell)
    k = len(parts)
    highest = {}  # runner -> its highest beta-set position
    for p in beta_set(parts):  # strictly decreasing
        highest.setdefault(p % a, p)
    levels = []
    for j in range(a):
        tail_top = -k - 1 - ((-k - 1 - j) % a)  # largest p <= -k-1 with p = j mod a
        levels.append(1 + highest.get(j, tail_top) // a)
    q = tuple(levels)
    assert sum(q) == 0, "balanced abacus must have levels summing to zero"
    return q


def from_coroot(a: int, q) -> Partition:
    """Inverse of ``to_coroot``: the a-core whose runner levels are q."""
    q = tuple(q)
    if len(q) != a:
        raise ValueError(f"expected {a} runner levels, got {len(q)}")
    if sum(q) != 0:
        raise ValueError(f"runner levels {q} must sum to zero")
    top = a * max(q)
    bottom = a * (min(q) - 1)  # below this every position is black
    parts = []
    i = 0
    for p in range(top - 1, bottom - 1, -1):
        if p // a < q[p % a]:
            i += 1
            if p + i > 0:
                parts.append(p + i)
    return tuple(parts)


def content_counts(parts: Partition, a: int) -> tuple[int, ...]:
    """Number of boxes in each content class (s - r) mod a, box = (row r, col s)."""
    counts = [0] * a
    turns = 0
    for r, row_len in enumerate(parts, start=1):
        # contents in row r run over (1 - r) .. (row_len - r): full turns of
        # a add one box to every class, added once for all rows at the end
        full, rem = divmod(row_len, a)
        turns += full
        start = (1 - r) % a
        for offset in range(rem):
            counts[(start + offset) % a] += 1
    return tuple(c + turns for c in counts)


def _corners(parts: Partition):
    """(addable, removable) corner cells as (row, col) pairs, 1-indexed."""
    k = len(parts)
    addable = []
    removable = []
    for r in range(1, k + 2):
        cur = parts[r - 1] if r <= k else 0
        prev = parts[r - 2] if r >= 2 else None
        if r == 1 or (prev is not None and prev > cur):
            addable.append((r, cur + 1))
        if r <= k and cur > 0 and (r == k or parts[r] < cur):
            removable.append((r, cur))
    return addable, removable


def toggle_action(parts: Partition, a: int, i: int) -> Partition:
    """Add all addable, or remove all removable, boxes with content i mod a.

    For an a-core the two cases never mix; a mixed case raises.
    """
    if not 0 <= i < a:
        raise ValueError(f"content class {i} out of range 0..{a - 1}")
    addable, removable = _corners(parts)
    adds = [r for r, c in addable if (c - r) % a == i]
    rems = [r for r, c in removable if (c - r) % a == i]
    if adds and rems:
        raise ValueError(f"toggling class {i} of {parts} would both add and remove boxes")
    step, rows = (1, adds) if adds else (-1, rems)
    toggled = list(parts) + [0]
    for r in rows:
        toggled[r - 1] += step
    while toggled and toggled[-1] == 0:
        toggled.pop()
    return tuple(toggled)


def conjugate_coroot(q) -> tuple[int, ...]:
    """Runner levels of the conjugate core: negate and reverse."""
    return tuple(-x for x in reversed(q))


def all_cores(a: int, max_boxes: int) -> list[Partition]:
    """All a-cores with at most ``max_boxes`` boxes.

    Breadth-first closure under the toggle action starting from the empty
    partition; every a-core of size <= max_boxes is reached because each
    nonempty core admits a strictly size-decreasing toggle.
    """
    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for parts in frontier:
            for i in range(a):
                other = toggle_action(parts, a, i)
                if other not in seen and sum(other) <= max_boxes:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return sorted(seen, key=lambda p: (sum(p), p))


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
