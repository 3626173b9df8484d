"""Streaming construction of the Gray code over ordered trees of a given size.

The code for size n is produced by a stack of per-level generators.  The
level-k member pulls trees of size k-1 from the level below, keeping the
current tree plus one tree of lookahead, orders the current tree's children
by the step rules, and emits them left to right; when the lookahead runs out
the final tree's children are ordered by decreasing rightmost-path length.
Only the current/lookahead pair of each level is retained, so the whole stack
holds O(n) trees no matter how many it emits.

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
from typing import Iterator, Optional

from .ordering import (
    FORBIDDEN_CASES,
    AdjacencyViolationError,
    Case,
    ForbiddenCaseError,
    plan_last,
    plan_step,
)
from .relations import Delta, delta, is_adjacent
from .tree import OrderedTree, encode_parens


@dataclass
class StreamStats:
    """Instrumentation collected during one generation run.

    vertex_writes counts every level-sequence entry written while
    materializing trees (a size-k tree costs k writes).  emitted counts trees
    produced per level.  case_counts tallies every step label, including
    forbidden ones, before any error is raised.  max_held records, per level,
    the most trees the stack retained between yields: each level generator
    keeps at most its current and lookahead trees, and the consumer keeps the
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


def _level_stream(
    k: int, checked: bool, stats: Optional[StreamStats]
) -> Iterator[OrderedTree]:
    if k == 1:
        root = OrderedTree._trusted((1,))
        if stats is not None:
            stats.note_write(1)
            stats.note_emit(1)
        yield root
        return
    src = _level_stream(k - 1, checked, stats)
    cur = next(src)
    lm = 1
    nxt = next(src, None)
    if stats is not None:
        stats.note_held(k - 1, 1 if nxt is None else 2)
    while nxt is not None:
        case, order, nl = plan_step(cur, nxt, lm)
        if stats is not None:
            stats.case_counts[case] += 1
        if case in FORBIDDEN_CASES:
            raise ForbiddenCaseError(
                f"forbidden case {case} at level {k - 1}: {cur} -> {nxt}"
            )
        child = None
        for i in order:
            child = _child(cur, i, stats)
            if stats is not None:
                stats.note_emit(k)
            yield child
        if checked:
            boundary = _child(nxt, nl, stats)
            if not is_adjacent(child, boundary):
                raise AdjacencyViolationError(
                    f"adjacency violation in case {case} at level {k}: "
                    f"{child} vs {boundary}"
                )
        # Sequential rebinding releases the old current tree before the next
        # lookahead is pulled, keeping the per-level retention at two.
        cur = nxt
        lm = nl
        nxt = next(src, None)
        if stats is not None:
            stats.note_held(k - 1, 1 if nxt is None else 2)
    if stats is not None:
        stats.case_counts[Case.LAST] += 1
    for i in plan_last(cur, lm):
        child = _child(cur, i, stats)
        if stats is not None:
            stats.note_emit(k)
        yield child


def gray_code(
    n: int, *, checked: bool = True, stats: Optional[StreamStats] = None
) -> Iterator[OrderedTree]:
    """Yield every ordered tree with n vertices, consecutive trees adjacent.

    The first tree is the star (level sequence 1,2,2,...,2).  With
    checked=True every boundary pair between sibling blocks is verified with
    is_adjacent as it is produced.  Pass a StreamStats to collect counters.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if stats is not None:
        # The consumer retains the tree most recently yielded to it.
        stats.note_held(n, 1)
    return _level_stream(n, checked, stats)


def delta_stream(
    n: int, *, checked: bool = True, stats: Optional[StreamStats] = None
) -> Iterator[Delta]:
    """Yield the canonical delta between each consecutive pair of gray_code(n).

    Folding the deltas over the first tree with apply_delta replays the code.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")

    def deltas() -> Iterator[Delta]:
        prev: Optional[OrderedTree] = None
        for t in gray_code(n, checked=checked, stats=stats):
            if prev is not None:
                yield delta(prev, t)
            prev = t

    return deltas()


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
