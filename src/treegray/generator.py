"""Streaming construction of the Gray code over ordered trees of a given size.

The code for size n comes from one explicit loop over per-level records.
Level k emits the trees of size k: it keeps the current tree of level k-1
plus one tree of lookahead, orders the current tree's children by the step
rules, and emits them left to right; when the lookahead runs out the final
tree's children are ordered by decreasing rightmost-path length.  A level
below the top whose block is used up is due: it starts its next block with
the next tree the level below hands up.  After each block of the top level
one due level does so ahead of need, in the same call, so past the first
boundary the top always finds a child to hand up below it, and each block
start plans at most two blocks.  A level asked for a tree while still due
starts its block itself, walking down the stack in a loop, so the output
never depends on the schedule and no recursion limits n.

The per-level streams are the family tree, in which a tree's parent is
itself minus its rightmost leaf: level k+1 read in order is the
concatenation of the child blocks of level k.  The stack holds its trees as
nodes of that tree (tree.Node): a node is the node of its parent plus its
last level, the trailing run of that level and its size, so handing up a
child costs O(1), equal prefixes are one object, and the stack holds at
most a few nodes of each size, O(n) in all.  Every step reads only what
differs between two trees: the step rules read the last levels and
relations._copying walks the two chains to the node they share.  Only the
current/lookahead pair of each level is retained, so the state does not
grow with the number of trees emitted.

Siblings in a block are adjacent by construction.  Each level carries the
move to its lookahead and derives each boundary's move from the one below
(docs/boundary-moves.md), so no move is searched for; a proven level
replays it from the used-up block's last child to the new block's first on
the suffixes above the node the two share (relations._replays_to).  The top
level hands out blocks (_blocks): a parent node, its child order and, where
the boundary is proven, the move into the first child; it checks every
child index and builds no tree of size n.  gray_code flattens them into
trees, each block's parent spliced from the one before, or with moves=True
into the first tree followed by each step's canonical relations.Delta, read
off the child index for a sibling step; the CLI renders them as text.
export_dot writes the family tree as Graphviz text from those streams.
"""
from __future__ import annotations

import itertools
from bisect import insort
from collections import Counter
from typing import Iterator, Optional, Union

from .ordering import (
    FORBIDDEN_CASES,
    AdjacencyViolationError,
    Case,
    ForbiddenCaseError,
    plan_last,
    plan_step,
)
from .relations import (
    Delta,
    _new_delta,
    _replays_to,
    _sibling_move,
    _sibling_moves,
)
from .relations import is_adjacent  # noqa: F401  (bench/tracer.py wraps it)
from .tree import (
    Node,
    OrderedTree,
    Spliced,
    _above,
    _check_size,
    _child_error,
    _new,
    _root,
    _store_levels,
    child_parens,
    encode_parens,
    paren_piece,
)


class StreamStats:
    """Instrumentation collected during one generation run.

    vertex_writes counts the level entries the stream writes, checked or
    not: one for each family-tree node the stack builds (a node holds only
    its last level, so each tree of size below n costs one), and k for each
    OrderedTree of size k it builds: every record of a tree stream, and
    under moves=True only the first record and its parent.  Neither the
    boundary proofs, which read nodes the stack holds, nor the spliced level
    tuple of a block's parent are counted.  emitted counts records produced
    per level: trees, and at level n under moves=True every record, moves
    included, tallied a block at a time as the block starts.  case_counts
    tallies every step label, including forbidden ones, before any error is
    raised.  Levels below the top start blocks ahead of need, so a run
    stopped early, by an error or by its reader, may have tallied labels,
    trees and writes below the top that only later records need, and under
    moves=True the rest of the top's block; a run drawn to the end counts
    each of them once.
    """

    # A plain class, not a dataclass: importing dataclasses also imports
    # inspect, ast, dis and tokenize, about 1 MB of every run's peak.
    def __init__(
        self,
        vertex_writes: int = 0,
        emitted: Optional[Counter] = None,
        case_counts: Optional[Counter] = None,
    ):
        self.vertex_writes = vertex_writes
        self.emitted = Counter() if emitted is None else emitted
        self.case_counts = Counter() if case_counts is None else case_counts

    @property
    def total_emitted(self) -> int:
        return sum(self.emitted.values())


class _Level:
    """The state of level k of the stack, which emits the trees of size k.

    Its current block is the children of cur (a tree of level k-1, as a
    family-tree node) in the child-index order `order`, of which the first
    `pos` are handed up.  nxt is the lookahead tree of level k-1, None once
    cur is that level's final tree, and lm is the leftmost child index fixed
    for nxt's block.  b is the move from cur to nxt, and m the move into the
    block's first child from the last child of the block before, if moves
    are derived.  index is cur's 0-based position in level k-1 and case the
    step label that planned the block.  err is what a roll ahead of need
    raised, kept for the level above to meet when it next asks for a tree.
    """

    __slots__ = ("cur", "nxt", "lm", "b", "m", "order", "pos", "index", "case", "err")

    def __init__(self):
        self.cur: Optional[Node] = None
        self.nxt: Optional[Node] = None
        self.lm = 1
        self.b: Optional[Delta] = None
        self.m: Optional[Delta] = None
        self.order: tuple[int, ...] = ()
        self.pos = 0
        self.index = -1
        self.case: Optional[Case] = None
        self.err: Optional[Exception] = None


def _boundary_move(b: Delta, p: Node, ell: int, nu: int) -> Delta:
    """The canonical move from P.child(ell), ending P's block, to Q.child(nu),
    starting Q's, by docs/boundary-moves.md from b = P -> Q and p, P's node."""
    k, rpl = p.size + 1, p.last - 1
    if b.remove_at < k - 1 or ell == nu < rpl:  # lemmas A and B2
        return b
    r = k - 2 if ell == nu == rpl + 1 else k  # lemma B3, else B1
    return _new_delta((r, b.insert_at, b.insert_level))


def _tree(node: Node) -> OrderedTree:
    return OrderedTree._trusted(node.levels)


def _advance(
    levels: list[_Level],
    k: int,
    proven: int,
    stats: Optional[StreamStats],
    due: list[int],
    ahead: int = 0,
) -> Optional[Delta]:
    """Start level k's next block and return the move into its first child.

    The new lookahead is the next child that level k-1 hands up, with the
    move into it from the child it handed up before, if moves are derived.
    If level k-1 is due, the walk goes down to the highest level below with
    a child to hand up, or to one that has run out (then the lookahead is
    None, or the error that level kept is raised); on the way back up each
    due level starts its next block with the tree handed up from below and
    hands up its first child.  If any level is proven, each derives the
    move into its new first child; at or above `proven` it proves that move
    by replay from the used-up block's last child (relations._replays_to),
    which reads only the entries above the node the two ends share.  Else
    the move is None.  A child is a family-tree node, built in O(1); the
    top level builds none.

    Then up to `ahead` due levels start their next block ahead of need, one
    after another: each time the highest due level whose level below is not
    due, so that one plan does it.  What such a roll raises is kept on the
    level, for the level above to meet where a walk would have started that
    block, and the move into level k's block is still returned.

    `due` lists the due levels in increasing order.  A level whose hand-up
    uses up its block, and that has a lookahead, joins it; a level the walk
    goes past leaves it.  Only the top's walk goes past due levels, and
    they are the highest ones, so each is the last entry.
    """
    derive = proven < len(levels)  # checked, or a move stream
    rolled, move = 0, None
    try:
        while True:
            j = k - 1
            below = levels[j]
            while below.pos == len(below.order):
                if below.nxt is None:  # run out: no lookahead
                    if below.err is not None:
                        raise below.err
                    break
                due.pop()
                j -= 1
                below = levels[j]
            while True:
                pos = below.pos
                if pos == len(below.order):
                    t = b = None
                else:
                    i = below.order[pos]
                    cur = below.cur
                    t = cur.child(i)
                    if not pos:
                        b = below.m
                    elif derive:
                        b = _sibling_move(cur, i + 1)
                    else:
                        b = None
                    below.pos = pos = pos + 1
                    if pos == len(below.order) and below.nxt is not None:
                        insort(due, j)
                    if stats is not None:
                        stats.vertex_writes += 1
                        stats.emitted[j] += 1
                j += 1
                lv = levels[j]
                m = end = None
                if derive and lv.order:
                    m = _boundary_move(lv.b, lv.cur, lv.order[-1], lv.lm)
                    if j >= proven:
                        # The used-up block's last child, and where that block stood.
                        end, ell = lv.cur, lv.order[-1]
                        end_case, end_index = lv.case, lv.index
                lv.cur = cur = lv.nxt
                lv.nxt, lv.b = t, b
                lv.index += 1
                if t is None:
                    case, order = Case.LAST, plan_last(cur, lv.lm)
                else:
                    case, order, lv.lm = plan_step(cur, t, lv.lm)
                if stats is not None:
                    stats.case_counts[case] += 1
                if case in FORBIDDEN_CASES:
                    raise ForbiddenCaseError(
                        f"forbidden case {case} at level {j - 1}, position "
                        f"{lv.index}: {cur} -> {t}",
                        level=j - 1, position=lv.index, case=case,
                        trees=(_tree(cur), _tree(t)),
                    )
                lv.case, lv.order, lv.pos, lv.m = case, order, 0, m
                if end is not None:
                    nu = order[0]
                    if not 1 <= nu <= cur.last:
                        raise _child_error(cur, nu)
                    if not _replays_to(end, ell, cur, nu, m):
                        trees = _tree(end).child(ell), _tree(cur).child(nu)
                        raise AdjacencyViolationError(
                            f"adjacency violation in case {end_case} at level {j} "
                            f"after position {end_index} of level {j - 1}: "
                            f"{trees[0]} vs {trees[1]}",
                            level=j, position=end_index, case=end_case, trees=trees,
                        )
                if j == k:
                    break
                below = lv  # due: its first child goes up next
            if not rolled:
                move = m
            if not ahead or not due:
                return move
            ahead -= 1
            i = len(due) - 1
            while i and due[i - 1] == due[i] - 1:
                i -= 1
            rolled = k = due.pop(i)
    except Exception as exc:
        if not rolled:
            raise
        lv = levels[rolled]
        # Used up with no lookahead: the next walk stops here and raises.
        lv.err, lv.nxt, lv.pos = exc, None, len(lv.order)
        return move


# (parent, child-index order, move into the first child): see _blocks.
Block = tuple[Node, tuple[int, ...], Optional[Delta]]


def _blocks(
    n: int, checked: bool, moves: bool, stats: Optional[StreamStats]
) -> Iterator[Block]:
    """Yield gray_code(n) one block at a time, building no tree of size n.

    A block is all the children of one tree of size n-1, in the order the
    code lists them: (parent, order, move), where parent is that tree's
    family-tree node, the records are its children with the child indices
    in order, and move is the canonical Delta into the first of them from
    the last record of the block before.  It is derived when checked or with
    moves=True and None otherwise (and always for the first block).  Before
    a block is yielded its boundary is proven as gray_code proves it, and
    each of its child indices is checked against the parent, with
    Node.child's error; below the top, Node.child checks each index as the
    child is handed up.  So no reader of the blocks checks an index again.
    n must be at least 2: the one tree of size 1 has no parent.

    After each block of the top, one due level (see _advance) starts its
    next block ahead of need, so each block costs at most two plans.
    """
    # Levels from `proven` up prove each block boundary: all of them when
    # checked, else only the top of a move stream, which yields the moves.
    proven = 2 if checked else n if moves else n + 1
    if stats is not None:
        stats.vertex_writes += 1
        stats.emitted[1] += 1
    # levels[k] is level k (levels[0] is padding).  Level 1 is used up from
    # the start; each higher level begins with the first tree of the level
    # below as its lookahead.
    levels = [_Level() for _ in range(n + 1)]
    levels[2].nxt = _root()
    due: list[int] = []
    for k in range(2, n + 1):
        m = _advance(levels, k, proven, stats, due)
        if k < n:  # level k's first child is level k + 1's first lookahead
            lv = levels[k]
            lv.pos = 1
            levels[k + 1].nxt = lv.cur.child(lv.order[0])
            if stats is not None:
                stats.vertex_writes += 1
                stats.emitted[k] += 1
    top = levels[n]
    while True:
        parent, order, last = top.cur, top.order, top.cur.last
        for i in order:
            if not 1 <= i <= last:
                raise _child_error(parent, i)
        yield parent, order, m
        if top.nxt is None:
            return
        m = _advance(levels, n, proven, stats, due, 1)


def _records(
    n: int, checked: bool, moves: bool, stats: Optional[StreamStats]
) -> Iterator[Union[OrderedTree, Delta]]:
    if n == 1:
        if stats is not None:
            stats.vertex_writes += 1
            stats.emitted[1] += 1
        yield OrderedTree._trusted((1,))
        return
    parent, head = None, ()
    for node, order, m in _blocks(n, checked, moves, stats):
        if not moves:
            # The block's parent's levels, spliced from the parent before:
            # consecutive parents share all but a suffix.
            if parent is not None and node.up is parent.up:  # siblings
                head = head[:-1] + (node.last,)
            else:
                above = _above(node, parent)
                keep = node.size - len(above)
                head = head[:keep] + tuple([x.last for x in reversed(above)])
            parent = node
            for i in order:
                t = _new(OrderedTree)
                _store_levels(t, head + (i + 1,))
                if stats is not None:
                    stats.vertex_writes += n
                    stats.emitted[n] += 1
                yield t
            continue
        if stats is not None:
            stats.emitted[n] += len(order)
        if m is None:  # the first record, as a tree
            if stats is not None:
                stats.vertex_writes += n - 1 + n
            yield OrderedTree._trusted(node.levels).child(order[0])
        else:
            yield m
        # Sibling steps need no tree: _sibling_moves gives each block's
        # moves, built once per block shape from _sibling_move.
        yield from _sibling_moves(node, order)[0]


def gray_code(
    n: int,
    *,
    checked: bool = True,
    stats: Optional[StreamStats] = None,
    moves: bool = False,
) -> Iterator[Union[OrderedTree, Delta]]:
    """Yield every ordered tree with n vertices, consecutive trees adjacent.

    The first tree is the star (level sequence 1,2,2,...,2).  With
    checked=True every boundary between sibling blocks, at every level of the
    stack, is proven once, where the next block starts.  With moves=True only
    the first tree is yielded, followed by the canonical Delta of each step
    (the same as relations.delta gives); sibling steps are read off the child
    index, and each boundary move is derived from the move below and proven
    by replay, checked or not.  Pass a StreamStats to collect counters.
    """
    _check_size(n, 1)
    return _records(n, checked, moves, stats)


def delta_stream(
    n: int, *, checked: bool = True, stats: Optional[StreamStats] = None
) -> Iterator[Delta]:
    """Yield the canonical delta between each consecutive pair of gray_code(n).

    Folding the deltas over the first tree with apply_delta replays the code.
    """
    _check_size(n, 2)
    records = gray_code(n, checked=checked, stats=stats, moves=True)
    return itertools.islice(records, 1, None)


def export_dot(n: int) -> Iterator[str]:
    """Yield the family tree of sizes 1..n as Graphviz DOT text, in pieces.

    Each size k is one rank, read from gray_code(k).  The edges are
    parent(c) -> c for every c of sizes 2..n in stream order, read block by
    block, which lists each tree's children in step-rule order, and
    `ordering=out` keeps that order.  Node ids are parenthesis encodings;
    each parent is encoded once per block and its children from it.  One
    stream is open at a time, so the text is produced holding O(n) trees.
    """
    _check_size(n, 1)
    return _dot(n)


def _dot(n: int) -> Iterator[str]:
    yield "digraph family_tree {\n  graph [ordering=out];\n  node [shape=box];\n"
    for k in range(1, n + 1):
        yield "  { rank=same;"
        for t in gray_code(k, checked=False):
            yield f' "{encode_parens(t)}";'
        yield " }\n"
    for k in range(2, n + 1):
        # Each block is the children of one parent, encoded once per block
        # from the parent before.
        head = Spliced(paren_piece)
        for parent, order, _ in _blocks(k, False, False, None):
            text, last = head(parent), parent.last
            source = text + ")" * last
            for target in "".join(child_parens(text, last, order)).splitlines():
                yield f'  "{source}" -> "{target}";\n'
    yield "}\n"
