"""Pairwise relations between same-size ordered trees.

Two trees are adjacent when one can be turned into the other by removing a
single leaf and appending a single leaf somewhere else, leaving every other
vertex (and its level) untouched.  A Delta records one such move on the level
sequence; _move reads it off the first and last differing positions in O(n),
and _sibling_move gives it without a search when both trees are children of
one tree.
Copying, used by the ordering rules, is the restricted form: U arises from T
by appending a new rightmost leaf, then deleting some other leaf.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .tree import OrderedTree


class NotAdjacentError(ValueError):
    """delta() was asked for a move between non-adjacent trees."""


@dataclass(frozen=True)
class Delta:
    """One Gray move on a level sequence, all positions 1-based.

    remove_at indexes the leaf entry to drop from the source sequence;
    insert_at is the insertion position in the shortened sequence and
    insert_level the level value inserted there.  The inserted vertex must be
    a leaf of the result, so the move never re-parents existing vertices.
    """

    remove_at: int
    insert_at: int
    insert_level: int

    def __str__(self) -> str:
        return f"{self.remove_at} {self.insert_at} {self.insert_level}"

    @classmethod
    def parse(cls, text: str) -> "Delta":
        parts = text.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'remove insert level', got {text!r}")
        try:
            r, p, v = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"non-integer field in delta {text!r}") from None
        return cls(r, p, v)


def has_pony_tail(tree: OrderedTree) -> bool:
    """True iff the root's rightmost child has exactly one child, a leaf.

    On the level sequence this is exactly a (2, 3) suffix: the last level-2
    vertex is the root's rightmost child and the single level-3 vertex after
    it is its only descendant.
    """
    return tree.size >= 3 and tree.levels[-2:] == (2, 3)


def _removable(levels: tuple[int, ...]) -> Iterator[int]:
    """0-based positions of leaves, rightmost first.  The root is never removable."""
    last = len(levels) - 1
    for j in range(last, 0, -1):
        if j == last or levels[j + 1] <= levels[j]:
            yield j


def _require_same_size(t: OrderedTree, u: OrderedTree) -> None:
    if t.size != u.size:
        raise ValueError(f"size mismatch: {t.size} vs {u.size}")


def is_copying(t: OrderedTree, u: OrderedTree) -> bool:
    """True iff u arises from t by appending a new rightmost leaf and then
    deleting one of the other leaves.

    The appended leaf stays rightmost, so the append must happen at level
    rpl(u); the deleted leaf is any leaf of child(t, rpl(u)) other than the
    appended one.
    """
    _require_same_size(t, u)
    if t == u:
        raise ValueError("copying is defined for distinct trees only")
    i = u.rpl
    if i > t.rpl + 1:
        return False
    grown = t.levels + (i + 1,)
    for j in _removable(grown):
        if j < t.size and grown[:j] + grown[j + 1 :] == u.levels:
            return True
    return False


def _move(t: OrderedTree, u: OrderedTree) -> Optional[tuple[int, int, int]]:
    """The canonical move taking t to u (see delta) as a plain
    (remove_at, insert_at, insert_level) tuple, or None if not adjacent.

    With p, e the first and last positions where t and u differ, removing t[j]
    and inserting u[q] is (A) j >= e, q <= p, t[q:j] == u[q+1:j+1] or (B) j <= p,
    q == e > j, t[j+1:q+1] == u[j:q]: prefix, shifted run and suffix match, so
    it is a move iff t[j] and u[q] are leaves.  (A) has the larger j, so it goes
    first; below p its run repeats levels, hence leaves, so its least q starts
    the run.  (B) skips j == e, which is the (A) move with q == j.
    """
    _require_same_size(t, u)
    if t == u:
        return None
    tl, ul = t.levels + (0,), u.levels + (0,)  # the 0 ends the last leaf
    p, e = 0, t.size
    while tl[p] == ul[p]:
        p += 1
    while tl[e] == ul[e]:
        e -= 1
    q, end, start = p, p, e
    while ul[q] == tl[q - 1]:
        q -= 1
    while ul[end + 1] == tl[end]:
        end += 1
    while ul[start - 1] == tl[start]:
        start -= 1
    for hi, lo, at in ((end, e, q), (min(p, e - 1), start, e)):
        if ul[at + 1] <= ul[at]:
            for j in range(hi, lo - 1, -1):
                if tl[j + 1] <= tl[j]:
                    return j + 1, at + 1, ul[at]
    return None


def _sibling_move(parent: tuple[int, ...], level: int) -> tuple[int, int, int]:
    """The canonical move from any other child of parent to parent + (level,).

    The two trees differ only in their last entry, so this is _move's shape
    (A) with p == e == j the last position: the rightmost leaf goes, and the
    new leaf is inserted where the trailing run of `level` in the result
    starts.  No tree is built.
    """
    q = len(parent)
    while parent[q - 1] == level:  # parent[0] is the root level 1 < level
        q -= 1
    return len(parent) + 1, q + 1, level


def is_adjacent(t: OrderedTree, u: OrderedTree) -> bool:
    """True iff u is t with one leaf removed and one leaf appended elsewhere."""
    return _move(t, u) is not None


def delta(t: OrderedTree, u: OrderedTree) -> Delta:
    """The canonical move taking t to u; NotAdjacentError if there is none.

    Several (remove, insert, level) triples can realize the same move; the
    canonical one removes the rightmost possible leaf and breaks remaining
    ties toward the smallest insertion position, which makes recorded streams
    deterministic and keeps sibling moves expressed as rightmost-leaf swaps.
    """
    m = _move(t, u)
    if m is None:
        raise NotAdjacentError(f"{t} and {u} are not adjacent")
    return Delta(*m)


def apply_delta(t: OrderedTree, d: Delta) -> OrderedTree:
    """Replay one move: drop the entry at remove_at, then insert insert_level
    at insert_at of the shortened sequence.  Rejects moves that do not remove
    a leaf, do not insert a leaf, or produce an invalid sequence.
    """
    levels = t.levels
    m = len(levels)
    j = d.remove_at - 1
    if not 1 <= j < m:
        raise ValueError(f"remove_at {d.remove_at} out of range for {t}")
    if j != m - 1 and levels[j + 1] > levels[j]:
        raise ValueError(f"entry {d.remove_at} of {t} is not a leaf")
    short = levels[:j] + levels[j + 1 :]
    q = d.insert_at - 1
    v = d.insert_level
    if not 1 <= q <= len(short):
        raise ValueError(f"insert_at {d.insert_at} out of range")
    if not 2 <= v <= short[q - 1] + 1:
        raise ValueError(f"insert_level {v} invalid after level {short[q - 1]}")
    if q < len(short) and short[q] > v:
        raise ValueError(
            f"inserting level {v} at {d.insert_at} would capture a subtree"
        )
    return OrderedTree._trusted(short[:q] + (v,) + short[q:])
