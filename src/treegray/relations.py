"""Pairwise relations between same-size ordered trees.

Two trees are adjacent when one can be turned into the other by removing a
single leaf and appending a single leaf somewhere else, leaving every other
vertex (and its level) untouched.  A Delta records one such move on the level
sequence; _move reads it off the first and last differing positions in O(n)
for delta and is_adjacent, which replays it (_replay: apply_delta on a bare
level tuple) instead of trusting the search.  _sibling_move gives it with no
search when both trees are children of one tree; the generator derives every
other move from it and proves it with the same replay.  The replay's checks
live in one place, _replay_in_place, which edits a mutable level list; the
oracle's certifier replays a whole move stream on one such list.
Copying, used by the ordering rules, is the restricted form: U arises from T
by appending a new rightmost leaf, then deleting some other leaf.
"""
from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterable, NamedTuple, Optional

from .tree import OrderedTree


class NotAdjacentError(ValueError):
    """delta() was asked for a move between non-adjacent trees."""


class Delta(NamedTuple):
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


_new_delta = partial(tuple.__new__, Delta)  # skips NamedTuple's Python __new__


def has_pony_tail(tree: OrderedTree) -> bool:
    """True iff the root's rightmost child has exactly one child, a leaf.

    On the level sequence this is exactly a (2, 3) suffix: the last level-2
    vertex is the root's rightmost child and the single level-3 vertex after
    it is its only descendant.
    """
    return tree.levels[-2:] == (2, 3)


def is_copying(t: OrderedTree, u: OrderedTree) -> bool:
    """True iff u arises from t by appending a new rightmost leaf and then
    deleting one of the other leaves.

    The appended leaf stays rightmost, so the append must happen at level
    rpl(u); the deleted leaf is any leaf of child(t, rpl(u)) other than the
    appended one.  Deleting entry j of the grown sequence gives u exactly
    when u matches it before j and matches it shifted by one from j on.  One
    scan from the right finds s, the least j whose shifted suffix matches;
    every other j that fits has equal entries from s to j, so s is a leaf
    whenever one of them is.  u is a copy iff the prefix before s matches
    too and entry s is a leaf.  That is O(n).
    """
    tl, ul = t.levels, u.levels
    n = len(tl)
    if n != len(ul):
        raise ValueError(f"size mismatch: {n} vs {len(ul)}")
    if tl == ul:
        raise ValueError("copying is defined for distinct trees only")
    if ul[-1] > tl[-1] + 1:  # rpl(u) > rpl(t) + 1: no child(t, rpl(u))
        return False
    grown = tl + (ul[-1],)
    s = n - 1  # the appended leaf matches u's last entry
    # Long equal runs (a star's 2s) go 64 entries per C-level comparison.
    while s >= 64 and grown[s - 63 : s + 1] == ul[s - 64 : s]:
        s -= 64
    while grown[s] == ul[s - 1]:  # stops at 1: grown[1] >= 2 > ul[0]
        s -= 1
    return grown[:s] == ul[:s] and grown[s + 1] <= grown[s]


def _move(t: OrderedTree, u: OrderedTree) -> Optional[Delta]:
    """The canonical move taking t to u (see delta), or None if not adjacent.

    With p, e the first and last positions where t and u differ, removing t[j]
    and inserting u[q] is (A) j >= e, q <= p, t[q:j] == u[q+1:j+1] or (B) j <= p,
    q == e > j, t[j+1:q+1] == u[j:q]: prefix, shifted run and suffix match, so
    it is a move iff t[j] and u[q] are leaves.  (A) has the larger j, so it goes
    first; below p its run repeats levels, hence leaves, so its least q starts
    the run.  (B) skips j == e, which is the (A) move with q == j.
    """
    tl, ul = t.levels, u.levels
    e = len(tl)
    if e != len(ul):
        raise ValueError(f"size mismatch: {e} vs {len(ul)}")
    if tl == ul:
        return None
    tl, ul = tl + (0,), ul + (0,)  # the 0 ends the last leaf
    p = 0
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
                    return Delta(j + 1, at + 1, ul[at])
    return None


def _sibling_move(parent: tuple[int, ...], level: int) -> Delta:
    """The canonical move from any other child of parent to parent + (level,).

    The two trees differ only in their last entry, so this is _move's shape
    (A) with p == e == j the last position: the rightmost leaf goes, and the
    new leaf is inserted where the trailing run of `level` in the result
    starts.  No tree is built.
    """
    q = len(parent)
    # Long runs (a star's 2s) go 64 entries per C-level comparison.
    if q > 64 and parent[q - 64] == level:
        run = (level,) * 64
        while q > 64 and parent[q - 64 : q] == run:
            q -= 64
    while parent[q - 1] == level:  # parent[0] is the root level 1 < level
        q -= 1
    return _new_delta((len(parent) + 1, q + 1, level))


@lru_cache(maxsize=None)
def _sibling_texts(n: int) -> tuple[str, ...]:
    # At index i, (n, n, i + 1) as text: the move to a child of size n whose
    # new leaf at level i + 1 does not repeat its parent's last level, so the
    # trailing run of i + 1 is that leaf alone.
    return tuple(f"{n} {n} {i + 1}" for i in range(n))


def _sibling_move_lines(parent: tuple[int, ...], order: Iterable[int]) -> list[str]:
    """str(_sibling_move(parent, i + 1)) for each child index i in order.

    Only the child whose new leaf repeats parent's last level walks back
    over a trailing run; every other move is read from a per-size table.
    """
    texts = _sibling_texts(len(parent) + 1)
    same = parent[-1] - 1
    return [texts[i] if i != same else str(_sibling_move(parent, i + 1)) for i in order]


def is_adjacent(t: OrderedTree, u: OrderedTree) -> bool:
    """True iff u is t with one leaf removed and one leaf appended elsewhere.

    Two children of one tree are adjacent exactly when they differ (see
    _sibling_move).  Any other pair counts only if the move _move finds
    replays (as apply_delta does) to u, so a wrong move gives False, not True.
    """
    tl, ul = t.levels, u.levels
    if tl[:-1] == ul[:-1]:
        return tl != ul
    m = _move(t, u)
    try:
        return m is not None and _replay(tl, m) == ul
    except ValueError:  # the move does not replay
        return False


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
    return m


def _replay_in_place(levels: list[int], d: Delta) -> None:
    """apply_delta on a mutable level list, edited in place: the same checks
    and errors.  A move that does not replay may leave the list half-edited."""
    m = len(levels)
    r, p, v = d
    j, q = r - 1, p - 1
    if not 1 <= j < m:
        tree = OrderedTree._trusted(tuple(levels))
        raise ValueError(f"remove_at {r} out of range for {tree}")
    if j != m - 1 and levels[j + 1] > levels[j]:
        tree = OrderedTree._trusted(tuple(levels))
        raise ValueError(f"entry {r} of {tree} is not a leaf")
    del levels[j]
    if not 1 <= q < m:
        raise ValueError(f"insert_at {p} out of range")
    if not 2 <= v <= levels[q - 1] + 1:
        raise ValueError(f"insert_level {v} invalid after level {levels[q - 1]}")
    if q < m - 1 and levels[q] > v:
        raise ValueError(f"inserting level {v} at {p} would capture a subtree")
    levels.insert(q, v)


def _replay(levels: tuple[int, ...], d: Delta) -> tuple[int, ...]:
    """apply_delta on a bare level tuple: the same checks and errors."""
    # One list edited in place: fewer tuples than slicing twice.
    short = list(levels)
    _replay_in_place(short, d)
    return tuple(short)


def apply_delta(t: OrderedTree, d: Delta) -> OrderedTree:
    """Replay one move: drop the entry at remove_at, then insert insert_level
    at insert_at of the shortened sequence.  Rejects moves that do not remove
    a leaf, do not insert a leaf, or produce an invalid sequence.
    """
    return OrderedTree._trusted(_replay(t.levels, d))
