"""Streaming construction of the Gray code over ordered trees of a given size.

The code for size n comes from one explicit loop over per-level records.
Level k emits the trees of size k: it keeps the current tree of level k-1
plus one tree of lookahead, orders the current tree's children by the step
rules, and emits them left to right; when the lookahead runs out the final
tree's children are ordered by decreasing rightmost-path length.  A level
whose block is used up takes its next tree from the level below by index,
walking down only as far as a level that still has a child to hand up, so
no recursion limits n.  Only the current/lookahead pair of each level is
retained, so the whole stack holds O(n) trees no matter how many it emits.

The top level yields trees, or with moves=True the first tree followed by
one canonical move per step: a sibling step's move is read off the child
index without building a tree, and a block boundary builds just its two
trees and finds the move with the one search that also proves adjacency.

The full family tree (every tree of sizes 1..n with ordered child lists) is
assembled from the same per-level streams for DOT export and cross-checks:
level k+1 read in order is the concatenation of the child blocks of level k.
It is eager and therefore capped, because level sizes grow like Catalan
numbers.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .ordering import (
    FORBIDDEN_CASES,
    AdjacencyViolationError,
    Case,
    ForbiddenCaseError,
    plan_last,
    plan_step,
)
# bench/tracer.py wraps generator.is_adjacent by name, so it stays bound.
from .relations import Delta, _move, _sibling_move, is_adjacent  # noqa: F401
from .tree import OrderedTree, encode_parens


@dataclass
class StreamStats:
    """Instrumentation collected during one generation run.

    vertex_writes counts every level-sequence entry written while
    materializing trees (a size-k tree costs k writes); under moves=True only
    the boundary trees are built at level n, so only they count there.
    emitted counts records produced per level: trees, and at level n under
    moves=True every record, moves included.  case_counts tallies every step
    label, including forbidden ones, before any error is raised.  max_held
    records, per level, the most trees the stack retained between yields:
    each level record keeps at most its current and lookahead trees (its last
    child is the lookahead of the level above), and the consumer keeps the
    tree most recently handed to it.
    """

    vertex_writes: int = 0
    emitted: Counter = field(default_factory=Counter)
    case_counts: Counter = field(default_factory=Counter)
    max_held: dict[int, int] = field(default_factory=dict)

    def note_write(self, size: int) -> None:
        self.vertex_writes += size

    def note_emit(self, level: int) -> None:
        self.emitted[level] += 1

    def note_held(self, level: int, count: int) -> None:
        if count > self.max_held.get(level, 0):
            self.max_held[level] = count

    @property
    def total_emitted(self) -> int:
        return sum(self.emitted.values())


def _child(t: OrderedTree, i: int, stats: Optional[StreamStats]) -> OrderedTree:
    c = t.child(i)
    if stats is not None:
        stats.note_write(c.size)
    return c


class _Level:
    """The state of level k of the stack, which emits the trees of size k.

    Its current block is the children of cur (a tree of level k-1) in the
    child-index order `order`, of which the first `pos` are emitted and `last`
    is the latest.  nxt is the lookahead tree of level k-1, None once cur is
    that level's final tree, and lm is the leftmost child index fixed for
    nxt's block.  index is cur's 0-based position in level k-1 and case the
    step label that planned the block.
    """

    __slots__ = ("cur", "nxt", "lm", "order", "pos", "last", "index", "case")

    def __init__(self, nxt: Optional[OrderedTree]):
        self.cur: Optional[OrderedTree] = None
        self.nxt = nxt
        self.lm = 1
        self.order: tuple[int, ...] = ()
        self.pos = 0
        self.last: Optional[OrderedTree] = None
        self.index = -1
        self.case: Optional[Case] = None


def _emit(lv: _Level, k: int, stats: Optional[StreamStats]) -> OrderedTree:
    # The next child of a level below the top, handed to the level above.
    lv.last = t = lv.cur.child(lv.order[lv.pos])
    lv.pos += 1
    if stats is not None:
        stats.note_write(k)
        stats.note_emit(k)
    return t


def _boundary_move(
    lv: _Level, k: int, stats: Optional[StreamStats]
) -> tuple[int, int, int]:
    """The move from level k's last child to the first child of nxt's block.

    It is both the adjacency proof and, at the top of a move stream, the
    record emitted for the step.
    """
    first = _child(lv.nxt, lv.lm, stats)
    m = _move(lv.last, first)
    if m is None:
        raise AdjacencyViolationError(
            f"adjacency violation in case {lv.case} at level {k} after "
            f"position {lv.index} of level {k - 1}: {lv.last} vs {first}"
        )
    return m


def _advance(
    levels: list[_Level], k: int, checked: bool, stats: Optional[StreamStats]
) -> None:
    """Start level k's next block; its current one is used up and nxt is set.

    nxt's successor in level k-1 comes from the highest level below whose
    block still has a child, or None if the level below that has run out.
    Every level passed over on the way down is used up too: its block
    boundary is checked there, and on the way back up it starts its next
    block with the tree handed up from below.
    """
    j = k - 1
    below = levels[j]
    while below.pos == len(below.order):
        if below.nxt is None:
            t: Optional[OrderedTree] = None
            break
        if checked:
            _boundary_move(below, j, stats)
        j -= 1
        below = levels[j]
    else:
        t = _emit(below, j, stats)
    while j < k:
        j += 1
        lv = levels[j]
        lv.cur = cur = lv.nxt
        lv.nxt = t
        lv.index += 1
        if t is None:
            case, order = Case.LAST, plan_last(cur, lv.lm)
        else:
            case, order, lv.lm = plan_step(cur, t, lv.lm)
        if stats is not None:
            stats.note_held(j - 1, 1 if t is None else 2)
            stats.case_counts[case] += 1
        if case in FORBIDDEN_CASES:
            raise ForbiddenCaseError(
                f"forbidden case {case} at level {j - 1}, position "
                f"{lv.index}: {cur} -> {t}"
            )
        lv.case = case
        lv.order = order
        lv.pos = 0
        if j < k:
            t = _emit(lv, j, stats)


def _records(
    n: int, checked: bool, moves: bool, stats: Optional[StreamStats]
) -> Iterator[Union[OrderedTree, Delta]]:
    root = OrderedTree._trusted((1,))
    if stats is not None:
        stats.note_write(1)
        stats.note_emit(1)
    if n == 1:
        yield root
        return
    # levels[k] is level k (levels[0] is padding).  Level 1 is used up from
    # the start; each higher level begins with the first tree of the level
    # below as its lookahead.
    levels = [_Level(None), _Level(None), _Level(root)]
    for k in range(2, n):
        _advance(levels, k, checked, stats)
        levels.append(_Level(_emit(levels[k], k, stats)))
    top = levels[n]
    _advance(levels, n, checked, stats)
    if moves:
        first = _child(top.cur, top.order[0], stats)
        if stats is not None:
            stats.note_emit(n)
        yield first
    while True:
        cur, order = top.cur, top.order
        if moves:
            # Sibling steps need no tree: the move is fixed by the index.
            parent = cur.levels
            for i in order[1:]:
                if stats is not None:
                    stats.note_emit(n)
                yield Delta(*_sibling_move(parent, i + 1))
        else:
            for i in order:
                t = cur.child(i)
                if stats is not None:
                    stats.note_write(n)
                    stats.note_emit(n)
                yield t
            top.last = t
        if top.nxt is None:
            return
        if moves:
            top.last = _child(cur, order[-1], stats)
            m = _boundary_move(top, n, stats)
            if stats is not None:
                stats.note_emit(n)
            yield Delta(*m)
        elif checked:
            _boundary_move(top, n, stats)
        _advance(levels, n, checked, stats)


def gray_code(
    n: int,
    *,
    checked: bool = True,
    stats: Optional[StreamStats] = None,
    moves: bool = False,
) -> Iterator[Union[OrderedTree, Delta]]:
    """Yield every ordered tree with n vertices, consecutive trees adjacent.

    The first tree is the star (level sequence 1,2,2,...,2).  With
    checked=True every boundary pair between sibling blocks is verified as it
    is produced.  With moves=True only the first tree is yielded, followed by
    the canonical Delta of each step (the same as relations.delta gives);
    sibling steps are read off the child index and each boundary move is
    proven by the search that finds it, checked or not.  Pass a StreamStats
    to collect counters.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if stats is not None:
        # The consumer retains the tree most recently yielded to it.
        stats.note_held(n, 1)
    return _records(n, checked, moves, stats)


def delta_stream(
    n: int, *, checked: bool = True, stats: Optional[StreamStats] = None
) -> Iterator[Delta]:
    """Yield the canonical delta between each consecutive pair of gray_code(n).

    Folding the deltas over the first tree with apply_delta replays the code.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    records = gray_code(n, checked=checked, stats=stats, moves=True)
    return itertools.islice(records, 1, None)


FAMILY_TREE_CAP = 12


@dataclass(frozen=True)
class FamilyTree:
    """Every ordered tree of sizes 1..n, each linked to its ordered children.

    A node's parent is itself minus its rightmost leaf; child lists carry the
    left-to-right order chosen by the step rules, so the level-k nodes read in
    leaf order are exactly gray_code(k).
    """

    n: int
    levels: tuple[tuple[OrderedTree, ...], ...]
    children: dict[OrderedTree, tuple[OrderedTree, ...]]

    def level(self, k: int) -> tuple[OrderedTree, ...]:
        if not 1 <= k <= self.n:
            raise ValueError(f"level must be in 1..{self.n}, got {k}")
        return self.levels[k - 1]

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)


def build_family_tree(n: int, cap: int = FAMILY_TREE_CAP) -> FamilyTree:
    """Materialize the family tree for sizes 1..n.  Eager, so capped."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > cap:
        raise ValueError(f"cap exceeded: n={n} is above the cap of {cap}")
    levels = tuple(tuple(gray_code(k, checked=False)) for k in range(1, n + 1))
    children: dict[OrderedTree, tuple[OrderedTree, ...]] = {
        t: () for level in levels for t in level
    }
    # Each level lists the children of each tree below as one contiguous block.
    for level in levels[1:]:
        for parent, block in itertools.groupby(level, key=OrderedTree.parent):
            children[parent] = tuple(block)
    return FamilyTree(n, levels, children)


def export_dot(ft: FamilyTree) -> str:
    """Render a family tree as a Graphviz digraph.

    Node ids are parenthesis encodings; `ordering=out` preserves the child
    order; each size class sits on its own rank.  Output is deterministic.
    """
    lines = [
        "digraph family_tree {",
        "  graph [ordering=out];",
        "  node [shape=box];",
    ]
    for level in ft.levels:
        ids = " ".join(f'"{encode_parens(t)}";' for t in level)
        lines.append(f"  {{ rank=same; {ids} }}")
    for level in ft.levels:
        for t in level:
            tid = encode_parens(t)
            for c in ft.children[t]:
                lines.append(f'  "{tid}" -> "{encode_parens(c)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
