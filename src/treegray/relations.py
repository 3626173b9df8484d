"""Pairwise relations between same-size ordered trees.

Two trees are adjacent when one can be turned into the other by removing a
single leaf and appending a single leaf somewhere else, leaving every other
vertex (and its level) untouched.  A Delta records one such move on the level
sequence.  The copying relation is the restricted form of adjacency used by
the ordering rules: U is reachable from T by first appending a new rightmost
leaf and then deleting some other leaf.
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


def _insert_point(short: tuple[int, ...], full: tuple[int, ...]) -> Optional[int]:
    """The smallest 0-based point q where inserting full[q] into short yields
    full, or None.  Both are valid level sequences, so full[q] is always a
    valid level after short[q - 1].

    Only leaf insertions count: the entry following the insertion point must
    not be deeper than the inserted level, otherwise the new vertex would
    adopt an existing subtree.
    """
    m = len(short)
    d = 0
    while d < m and short[d] == full[d]:
        d += 1
    for q in range(1, d + 1):
        if full[q + 1 :] == short[q:] and (q == m or short[q] <= full[q]):
            return q
    return None


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
    target = u.levels
    last = len(grown) - 1
    for j in _removable(grown):
        if j != last and grown[:j] + grown[j + 1 :] == target:
            return True
    return False


def _move(t: OrderedTree, u: OrderedTree) -> Optional[Delta]:
    """The canonical move taking t to u (see delta), or None if not adjacent."""
    _require_same_size(t, u)
    if t == u:
        return None
    tl, ul = t.levels, u.levels
    for j in _removable(tl):
        q = _insert_point(tl[:j] + tl[j + 1 :], ul)
        if q is not None:
            return Delta(j + 1, q + 1, ul[q])
    return None


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
    d = _move(t, u)
    if d is None:
        raise NotAdjacentError(f"{t} and {u} are not adjacent")
    return d


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
