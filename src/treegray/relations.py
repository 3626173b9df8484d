"""Pairwise relations between same-size ordered trees.

Two trees are adjacent when one can be turned into the other by removing a
single leaf and appending a single leaf somewhere else, leaving every other
vertex (and its level) untouched.  A Delta records one such move on the level
sequence; _move reads it off the first and last differing positions in O(n)
for delta and is_adjacent, which replays it (_replay: apply_delta on a bare
level tuple) instead of trusting the search.  _sibling_move gives it with no
search when both trees are children of one tree; _sibling_moves gives all
the moves within one block of siblings, as Deltas and as text, built from
_sibling_move once per block shape and cached.  The generator derives every
other move by _sibling_move's rule and proves it with the same replay
(_replays_to), on the suffixes that the derivation's one walk collects.
The replay's checks live in one place, _replay_in_place, which edits a
mutable level list; the oracle's certifier replays a whole move stream on
one such list.  Copying, used by the ordering rules, is the restricted
form: U arises from T by appending a new rightmost leaf, then deleting some
other leaf.

The generator holds its trees as family-tree nodes (tree.Node), so
_sibling_move and _copying take nodes, and _replays_to the node two trees
share and their entries above it; each reads only those entries.
is_copying and the replay on level tuples stay as the oracle's independent
reference.
"""
from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple, Optional

from .tree import Node, OrderedTree, _new


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


def _sibling_move(parent: Node, level: int) -> Delta:
    """The canonical move from any other child of parent to its child with
    last level `level`.

    The two trees differ only in their last entry, so this is _move's shape
    (A) with p == e == j the last position: the rightmost leaf goes, and the
    new leaf is inserted where the trailing run of `level` in the result
    starts, which parent's last level and run give in O(1).  No tree is built.
    """
    q = parent.size
    if parent.last == level:
        q -= parent.run
    return _new_delta((parent.size + 1, q + 1, level))


def _sibling_moves(
    parent: Node, order: tuple[int, ...]
) -> tuple[tuple[Delta, ...], str]:
    """The moves into the children of parent after the first in order,
    _sibling_move(parent, i + 1) for each later index i: as Deltas and as
    their lines joined.

    A move reads the child's size, its index and parent's last level, and
    parent's run only for child `same`, whose new leaf repeats that level;
    so blocks are cached by those, with the run only when `same` comes after
    the first child.
    """
    same = parent.last - 1
    run = parent.run if same in order[1:] else 0
    return _sibling_block(parent.size + 1, order, same, run)


# Keyed by what the moves read, one entry per block shape; at most 256 are
# kept, as in ordering._order (a run at n=13 uses 132, at n=14 160).
@lru_cache(maxsize=256)
def _sibling_block(
    n: int, order: tuple[int, ...], same: int, run: int
) -> tuple[tuple[Delta, ...], str]:
    # A stand-in for the parent with the fields _sibling_move reads.
    parent = _new(Node)
    parent.size, parent.last, parent.run = n - 1, same + 1, run
    moves = tuple([_sibling_move(parent, i + 1) for i in order[1:]])
    return moves, "".join(["%d %d %d\n" % d for d in moves])


def _copying(t: Node, u: Node) -> bool:
    """is_copying(t, u) for two distinct nodes of one size in one family tree.

    Let c be the deepest node the two chains share, of size s, and g the
    grown sequence t + (u's last level,).  A deletion from g that gives u
    keeps u's prefix, so it deletes an entry j <= s (0-based); one with
    j < s needs g's entries j..s equal, and then j = s works too.  So u is
    a copy iff g[s+1:] == u[s:], read pair by pair on the two chains above
    c, and one of those entries is a leaf: entry s when the entry after it
    is no higher, or entry s - 1 when t's entry s repeats it, that is when
    t's node of size s + 1 has run > 1.  The walk is as long as the two
    suffixes above c, not O(n).
    """
    if u.last > t.last + 1:  # rpl(u) > rpl(t) + 1: no child(t, rpl(u))
        return False
    a, b, after = t, u, u.last  # after: g's entry after a's
    while True:
        up = a.up
        if up is b.up:  # a is t's node of size s + 1
            return after <= a.last or a.run > 1
        if a.last != b.up.last:
            return False
        after, a, b = a.last, up, b.up


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


def _replays_to(c: Node, ts: list[int], us: list[int], d: Delta) -> bool:
    """True iff d replays, with every check of apply_delta, on the levels of
    one child to those of another, distinct from it, as the two ends of a
    block boundary are.  c is the deepest node their chains share, and ts and
    us, which are edited, their entries above c from the last one down, as
    generator._boundary's walk collects them.

    A replay edits only the entries from the lower to the higher of d's two
    positions and reads the one below them.  Let s be c's size, so the two
    children agree up to position s.  If the edits lie at or below s, the
    result differs from the other child above s.  If they lie above s, the
    replay runs on the entries from position s up and the result is
    compared with the other child's.  If the lower position is at or below
    s, the result matches only when the entries from it to s are one run,
    of c's last level: a level the move inserts there equals them, and one
    it removes there could be removed at any entry of the run.  Then c's
    run covers them, the checks read there pass by the tree's validity, and
    the run stands as one entry of its level, after one more of it for the
    entry below.  Either way the replay reads and compares every entry the
    move can change, in time for the two suffixes above c.
    """
    s, last = c.size, c.last
    size = s + len(ts)
    r, p, v = d
    if not (2 <= r <= size and 2 <= p <= size):
        return False  # out of range: apply_delta raises
    lo, hi = (r, p) if r < p else (p, r)
    if hi <= s:
        return False
    if lo > s:  # the lists hold positions s..size
        ts.append(last)
        us.append(last)
        r -= s - 1
        p -= s - 1
    elif c.run > s - lo:  # position s stands for the run from lo to s
        ts += (last, last)
        us += (last, last)
        r = 2 if r == lo else r - s + 2
        p = 2 if p == lo else p - s + 2
    else:
        return False
    ts.reverse()
    us.reverse()
    try:
        _replay_in_place(ts, (r, p, v))
    except ValueError:  # the move does not replay
        return False
    return ts == us


def apply_delta(t: OrderedTree, d: Delta) -> OrderedTree:
    """Replay one move: drop the entry at remove_at, then insert insert_level
    at insert_at of the shortened sequence.  Rejects moves that do not remove
    a leaf, do not insert a leaf, or produce an invalid sequence.
    """
    return OrderedTree._trusted(_replay(t.levels, d))
